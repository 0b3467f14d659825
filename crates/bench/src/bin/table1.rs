//! Table I — serial runtime and the per-component runtime of gpClust.
//!
//! Paper reference:
//!
//! | graph | CPU | GPU | Data c→g | Data g→c | Disk I/O | Total | Serial | speedup | GPU speedup |
//! |---|---|---|---|---|---|---|---|---|---|
//! | 20K | 52.70 | 7.57 | 1.26 | 4.82 | 0.40 | 66.75 | 392.32 | 5.88 | 44.86 |
//! | 2M | 2685.06 | 447.97 | 5.99 | 108.19 | 28.77 | 3275.98 | 23,537.80 | 7.18 | 373.71 |
//!
//! In this reproduction, CPU and Disk I/O are measured wall-clock seconds;
//! GPU and the two transfer columns are *simulated* Tesla-K20 seconds from
//! the device cost model (see gpclust-gpu). The serial runtime is the
//! measured wall time of the serial pClust implementation, and "GPU
//! speedup" compares the serial wall time of the accelerated part (the two
//! shingling passes) against the simulated device time, as the paper does.
//!
//! Usage: `table1 [--n <vertices>] [--full] [--seed <u64>] [--skip-20k]
//!                [--skip-2m] [--kernel sort|select]
//!                [--mem-budget BYTES] [--shards N]`
//!
//! The Total column is the paper's: every component summed, so its
//! device share is the blocking-copy total
//! ([`gpclust_core::StageTimes::device_serialized`]). Each row also
//! reports, from the same run, the double-buffered stream makespan
//! ([`gpclust_core::StageTimes::device_pipelined`]) — the asynchronous
//! transfers the paper names as future work.
//!
//! The table runs the paper's segmented sort + compaction
//! (`ShingleKernel::SortCompact`) although the library default is the
//! fused kernel. `--kernel select` swaps in the fused hash + top-s
//! selection kernel (`ShingleKernel::FusedSelect`), which runs each
//! batch's trials in groups of one launch each: the device columns drop
//! while the clusters stay bit-identical to the serial oracle.

use gpclust_bench::datasets;
use gpclust_bench::reports::{render_table, secs, Experiment};
use gpclust_bench::{json_fields, Json};
use gpclust_bench::{Args, ScheduleArgs};
use gpclust_core::minwise::unpack_element;
use gpclust_core::serial::shingle_pass_foreach;
use gpclust_core::{GpClust, SerialShingling, ShingleKernel, ShinglingParams};
use gpclust_graph::{io as graph_io, Csr};
use gpclust_homology::HomologyConfig;
use std::time::Instant;

#[derive(Debug)]
struct Row {
    graph: String,
    /// Top-s extraction kernel the device passes ran (`sort` | `select`).
    kernel: String,
    /// One-line summary of the lowered execution plan
    /// ([`gpclust_core::Plan::describe`]).
    plan: String,
    n_non_singleton: usize,
    n_edges: usize,
    cpu_s: f64,
    gpu_s: f64,
    h2d_s: f64,
    d2h_s: f64,
    disk_s: f64,
    total_s: f64,
    /// GPU + c→g + g→c: the device share of `total_s`.
    device_serialized_s: f64,
    /// The double-buffered stream makespan of the same run.
    device_pipelined_s: f64,
    serial_s: f64,
    serial_shingling_s: f64,
    serial_shingling_frac: f64,
    total_speedup: f64,
    gpu_part_speedup: f64,
    n_clusters: usize,
    /// Batches each device pass split into (`[pass I, pass II]`).
    n_batches: [u64; 2],
    /// Per-element device footprint the batches were planned at (bytes;
    /// the same for both kernels).
    elem_footprint_bytes: u64,
}

impl From<&Row> for Json {
    fn from(r: &Row) -> Json {
        json_fields!(r; graph, kernel, plan, n_non_singleton, n_edges, cpu_s, gpu_s, h2d_s, d2h_s, disk_s, total_s, device_serialized_s, device_pipelined_s, serial_s, serial_shingling_s, serial_shingling_frac, total_speedup, gpu_part_speedup, n_clusters, n_batches, elem_footprint_bytes)
    }
}

fn measure(sched: &ScheduleArgs, graph: &Csr, label: &str, seed: u64) -> Row {
    // Table I is the paper's pipeline: the sort kernel unless
    // `--kernel select` asks for the fused one.
    let params =
        sched.apply(ShinglingParams::paper_default(seed).with_kernel(ShingleKernel::SortCompact));

    // Serial reference: total, and the accelerated part (two passes) alone.
    eprintln!("[{label}] running serial pClust ...");
    let serial_alg = SerialShingling::new(params).unwrap();
    let t0 = Instant::now();
    let serial_partition = serial_alg.cluster(graph);
    let serial_s = t0.elapsed().as_secs_f64();

    // Time the accelerated part (the two shingling passes) alone, with
    // pure sinks so no aggregation work pollutes the measurement. Pass II
    // needs G′ as input, so it is built (untimed) between the two.
    let mut sink = 0u64;
    let t0 = Instant::now();
    shingle_pass_foreach(graph, params.s1, &params.family_pass1(), |_, _, p| {
        sink ^= p[0];
    });
    let shingling1 = t0.elapsed().as_secs_f64();
    let mut agg1 = gpclust_core::aggregate::StreamAggregator::new(params.s1);
    shingle_pass_foreach(graph, params.s1, &params.family_pass1(), |t, n, p| {
        agg1.push(t, n, p.iter().map(|&p| unpack_element(p)));
    });
    let first = agg1.finish();
    let t0 = Instant::now();
    shingle_pass_foreach(&first, params.s2, &params.family_pass2(), |_, _, p| {
        sink ^= p[0];
    });
    std::hint::black_box(sink);
    let serial_shingling_s = shingling1 + t0.elapsed().as_secs_f64();
    drop(first);

    // gpClust through a disk round-trip so the Disk I/O column is real.
    eprintln!("[{label}] running gpClust on the simulated Tesla K20 ...");
    let tmp = gpclust_bench::data_dir().join(format!("table1-{label}.graph.bin"));
    graph_io::write_file(&tmp, graph).expect("write graph");
    let gpu = sched.harness_gpu(0);
    let plan_line = sched.describe_plan(&params, std::slice::from_ref(&gpu));
    let pipeline = GpClust::new(params, gpu).unwrap();
    let report = pipeline.cluster_from_file(&tmp).expect("gpClust run");
    std::fs::remove_file(&tmp).ok();

    assert_eq!(
        report.partition, serial_partition,
        "GPU path must match the serial oracle"
    );

    let t = report.times;
    let n_non_singleton = graph.non_singleton_count();
    Row {
        graph: label.to_string(),
        kernel: match params.kernel {
            ShingleKernel::SortCompact => "sort".into(),
            ShingleKernel::FusedSelect => "select".into(),
        },
        plan: plan_line,
        n_non_singleton,
        n_edges: graph.m(),
        cpu_s: t.cpu,
        gpu_s: t.gpu,
        h2d_s: t.h2d,
        d2h_s: t.d2h,
        disk_s: t.disk_io,
        total_s: t.total(),
        device_serialized_s: t.device_serialized(),
        device_pipelined_s: t.device_pipelined,
        serial_s,
        serial_shingling_s,
        serial_shingling_frac: serial_shingling_s / serial_s,
        total_speedup: serial_s / t.total(),
        gpu_part_speedup: serial_shingling_s / t.gpu,
        n_clusters: report.partition.n_groups(),
        n_batches: [
            report.batch_stats[0].n_batches,
            report.batch_stats[1].n_batches,
        ],
        elem_footprint_bytes: t.elem_footprint_bytes,
    }
}

fn main() {
    let args = Args::parse();
    let sched = args.schedule();
    let seed = args.get("seed", 7u64);
    let mut rows = Vec::new();

    if !args.flag("skip-20k") {
        eprintln!("preparing 20K similarity graph (alignment pipeline, cached) ...");
        let mg = datasets::metagenome_20k(seed);
        let g = datasets::similarity_graph_cached(
            &format!("sim20k-seed{seed}"),
            &mg,
            &HomologyConfig::default(),
        );
        rows.push(measure(&sched, &g, "20K", seed));
    }

    if !args.flag("skip-2m") {
        let n = if args.flag("full") {
            1_562_984
        } else {
            args.get("n", 200_000usize)
        };
        eprintln!("preparing 2M-like planted graph with {n} vertices ...");
        let pg = datasets::planted_2m_like(n, seed);
        rows.push(measure(&sched, &pg.graph, &format!("2M-like(n={n})"), seed));
    }

    println!("\nTable I — runtime of each component in gpClust (seconds)\n");
    let header = [
        "graph", "kernel", "#vert", "#edges", "CPU", "GPU", "c->g", "g->c", "Disk", "Total",
        "Serial", "speedup", "GPUspd",
    ];
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.graph.clone(),
                r.kernel.clone(),
                r.n_non_singleton.to_string(),
                r.n_edges.to_string(),
                secs(r.cpu_s),
                secs(r.gpu_s),
                secs(r.h2d_s),
                secs(r.d2h_s),
                secs(r.disk_s),
                secs(r.total_s),
                secs(r.serial_s),
                format!("{:.2}", r.total_speedup),
                format!("{:.2}", r.gpu_part_speedup),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &cells));

    for r in &rows {
        println!(
            "[{}] serial shingling = {:.1}% of serial runtime (paper: ~80%)",
            r.graph,
            r.serial_shingling_frac * 100.0
        );
        println!(
            "[{}] plan: {} | pass I {} batch(es), pass II {} batch(es)",
            r.graph, r.plan, r.n_batches[0], r.n_batches[1]
        );
        println!(
            "[{}] device: {} s serialized (the Total's share) -> {} s stream makespan; \
             total {} -> {} s",
            r.graph,
            secs(r.device_serialized_s),
            secs(r.device_pipelined_s),
            secs(r.total_s),
            secs(r.cpu_s + r.device_pipelined_s + r.disk_s)
        );
    }
    println!(
        "\npaper reference: 20K row total 66.75s (serial 392.32, 5.88X, GPU part 44.86X); \
         2M row total 3275.98s (serial 23537.80, 7.18X, GPU part 373.71X)"
    );
    println!(
        "note: GPU/transfer columns are simulated Tesla-K20 seconds; CPU/Disk/Serial are \
         measured wall-clock on this host (see EXPERIMENTS.md)."
    );

    let path = Experiment::new(
        "table1",
        "Runtime breakdown and speedups (Table I)",
        rows.iter().map(Json::from).collect::<Vec<_>>(),
    )
    .save()
    .expect("save report");
    eprintln!("report written to {path:?}");
}
