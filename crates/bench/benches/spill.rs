//! The spill layer's integrity and I/O costs on a real Pass-I run: the
//! CRC-32 over its sealed bytes, writing it as a framed run file, and
//! replaying it frame by frame. Under `--bench` it also prints the CRC's
//! nanoseconds per byte.

use gpclust_bench::time;
use gpclust_core::aggregate::{SortedRun, StreamAggregator};
use gpclust_core::checkpoint::crc32;
use gpclust_core::minwise::unpack_element;
use gpclust_core::serial::shingle_pass_foreach;
use gpclust_core::{ShinglingParams, SpillStats, SpilledRun};
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use std::hint::black_box;
use std::time::Instant;

/// The pipeline bench's graph: 7,500 vertices, Zipf-sized planted groups.
fn pass1_run() -> (usize, SortedRun) {
    let g = planted_partition(&PlantedConfig {
        group_sizes: PlantedConfig::zipf_groups(6_000, 4, 250, 1.4, 13),
        n_noise_vertices: 1_500,
        p_intra: 0.8,
        max_intra_degree: 50.0,
        inter_edges_per_vertex: 0.1,
        seed: 13,
    })
    .graph;
    let params = ShinglingParams::paper_default(7);
    let mut agg = StreamAggregator::new(params.s1);
    shingle_pass_foreach(
        &g,
        params.s1,
        &params.family_pass1(),
        |trial, node, pairs| agg.push(trial, node, pairs.iter().map(|&p| unpack_element(p))),
    );
    (params.s1, agg.into_run())
}

/// Replay `sealed` and check every record against `run`: the same
/// `(key, node)` order and the same element ids.
fn assert_replays(s: usize, run: &SortedRun, sealed: &SpilledRun) {
    let mut replay = sealed.replay().unwrap();
    for (i, &p) in run.packed.iter().enumerate() {
        let got = replay.peek().unwrap().expect("replay ended early");
        assert_eq!(got >> 32, p >> 32, "record {i}");
        let rep = (p & 0xFFFF_FFFF) as usize;
        assert_eq!(
            replay.elements(),
            &run.elements[rep * s..(rep + 1) * s],
            "record {i}"
        );
        replay.advance();
    }
    assert_eq!(replay.peek().unwrap(), None, "replay ran past the run");
}

fn main() {
    let (s, run) = pass1_run();
    let mut stats = SpillStats::default();
    let sealed = SpilledRun::write(s, &run, &mut stats).unwrap();
    assert_replays(s, &run, &sealed);
    let bytes = std::fs::read(sealed.path()).unwrap();
    println!(
        "spill: Pass-I run of {} records, {:.1} MiB sealed",
        run.len(),
        bytes.len() as f64 / (1 << 20) as f64
    );

    time("spill/crc32_mib", 10, || crc32(black_box(&bytes)));
    if std::env::args().any(|a| a == "--bench") {
        let start = Instant::now();
        black_box(crc32(black_box(&bytes)));
        let ns = start.elapsed().as_secs_f64() * 1e9 / bytes.len() as f64;
        println!("spill/crc32_mib: {ns:.2} ns per byte");
    }
    time("spill/seal_pass1_run", 10, || {
        SpilledRun::write(s, &run, &mut stats).unwrap()
    });
    time("spill/replay_pass1_run", 10, || {
        let mut replay = sealed.replay().unwrap();
        let mut acc = 0u128;
        while let Some(p) = replay.peek().unwrap() {
            acc ^= p ^ replay.elements()[0] as u128;
            replay.advance();
        }
        acc
    });
}
