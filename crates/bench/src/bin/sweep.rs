//! Scalability sweep — the growth trends behind Table I as a series.
//!
//! The paper's two Table I rows show both speedups growing from the 20K
//! graph to the 2M graph. This harness regenerates that trend as a proper
//! sweep over graph sizes: serial runtime, gpClust component breakdown,
//! and both speedups per size, plus the stream pair's pipelined device
//! makespan (`StageTimes::device_pipelined`).
//!
//! Usage: `sweep [--sizes 20000,50000,100000,200000] [--seed <u64>]
//!               [--kernel sort|select]
//!                [--mem-budget BYTES] [--shards N]`
//!
//! The schedule knobs select the device configuration being swept
//! (results stay bit-identical to the serial oracle across all of them).

use gpclust_bench::datasets;
use gpclust_bench::reports::{render_table, secs, Experiment};
use gpclust_bench::Args;
use gpclust_bench::{json_fields, Json};
use gpclust_core::minwise::unpack_element;
use gpclust_core::serial::shingle_pass_foreach;
use gpclust_core::{GpClust, SerialShingling, ShinglingParams};
use std::time::Instant;

#[derive(Debug)]
struct Point {
    n_vertices: usize,
    n_edges: usize,
    serial_s: f64,
    serial_shingling_s: f64,
    gpclust_total_s: f64,
    gpu_s: f64,
    transfers_s: f64,
    pipelined_device_s: f64,
    total_speedup: f64,
    gpu_part_speedup: f64,
}

impl From<&Point> for Json {
    fn from(r: &Point) -> Json {
        json_fields!(r; n_vertices, n_edges, serial_s, serial_shingling_s, gpclust_total_s, gpu_s, transfers_s, pipelined_device_s, total_speedup, gpu_part_speedup)
    }
}

fn main() {
    let args = Args::parse();
    let seed = args.get("seed", 7u64);
    let sizes_arg = args.get("sizes", String::from("20000,50000,100000,200000"));
    let sizes: Vec<usize> = sizes_arg
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();

    let sched = args.schedule();
    let params = sched.apply(ShinglingParams::paper_default(seed));
    let mut points = Vec::new();
    for &n in &sizes {
        eprintln!("--- n = {n} ---");
        let pg = datasets::planted_2m_like(n, seed);
        let g = pg.graph;

        let serial_alg = SerialShingling::new(params).unwrap();
        let t0 = Instant::now();
        let serial_partition = serial_alg.cluster(&g);
        let serial_s = t0.elapsed().as_secs_f64();

        // Accelerated part alone (pure sinks; see table1 for rationale).
        let mut sink = 0u64;
        let t0 = Instant::now();
        shingle_pass_foreach(&g, params.s1, &params.family_pass1(), |_, _, p| {
            sink ^= p[0]
        });
        let p1 = t0.elapsed().as_secs_f64();
        let mut agg = gpclust_core::aggregate::StreamAggregator::new(params.s1);
        shingle_pass_foreach(&g, params.s1, &params.family_pass1(), |t, nn, p| {
            agg.push(t, nn, p.iter().map(|&p| unpack_element(p)));
        });
        let first = agg.finish();
        let t0 = Instant::now();
        shingle_pass_foreach(&first, params.s2, &params.family_pass2(), |_, _, p| {
            sink ^= p[0];
        });
        std::hint::black_box(sink);
        let serial_shingling_s = p1 + t0.elapsed().as_secs_f64();
        drop(first);

        let report = GpClust::new(params, sched.harness_gpu(0))
            .unwrap()
            .cluster(&g)
            .expect("gpClust");
        assert_eq!(report.partition, serial_partition);

        points.push(Point {
            n_vertices: g.n(),
            n_edges: g.m(),
            serial_s,
            serial_shingling_s,
            gpclust_total_s: report.times.total(),
            gpu_s: report.times.gpu,
            transfers_s: report.times.h2d + report.times.d2h,
            pipelined_device_s: report.times.device_pipelined,
            total_speedup: serial_s / report.times.total(),
            gpu_part_speedup: serial_shingling_s / report.times.gpu,
        });
    }

    println!("\nScalability sweep (2M-like planted graphs)\n");
    let header = [
        "n",
        "edges",
        "serial",
        "gpClust",
        "GPU",
        "xfer",
        "pipelined",
        "speedup",
        "GPUspd",
    ];
    let cells: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n_vertices.to_string(),
                p.n_edges.to_string(),
                secs(p.serial_s),
                secs(p.gpclust_total_s),
                secs(p.gpu_s),
                secs(p.transfers_s),
                secs(p.pipelined_device_s),
                format!("{:.2}", p.total_speedup),
                format!("{:.2}", p.gpu_part_speedup),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &cells));
    if points.len() >= 2 {
        let first = &points[0];
        let last = &points[points.len() - 1];
        println!(
            "GPU-part speedup {} with scale: {:.2}x -> {:.2}x (paper: 44.9x -> 373.7x)",
            if last.gpu_part_speedup > first.gpu_part_speedup {
                "grows"
            } else {
                "does not grow"
            },
            first.gpu_part_speedup,
            last.gpu_part_speedup
        );
    }

    let path = Experiment::new(
        "sweep",
        "Scalability sweep (Table I as a series)",
        points.iter().map(Json::from).collect::<Vec<_>>(),
    )
    .save()
    .expect("save report");
    eprintln!("report written to {path:?}");
}
