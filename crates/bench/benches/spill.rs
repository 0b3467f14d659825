//! The spill layer's integrity and I/O costs on a real Pass-I run: the
//! CRC-32 over its sealed bytes, writing it as a framed run file,
//! replaying it frame by frame, updating the shingle index built from it
//! with a 1 % delta in one record merge, and sealing that delta as one
//! index-store segment beside the sealed base. Under `--bench` it also
//! prints the CRC's nanoseconds per byte.

use gpclust_bench::{time, time_with_setup};
use gpclust_core::aggregate::{SortedRun, StreamAggregator};
use gpclust_core::checkpoint::crc32;
use gpclust_core::minwise::unpack_element;
use gpclust_core::serial::shingle_pass_foreach;
use gpclust_core::{
    ExternalRun, IndexDelta, IndexStore, MemoryBudget, ShingleIndex, ShinglingParams, SpillStats,
    SpilledRun,
};
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::{Csr, GraphDelta, Partition, VertexId};
use std::hint::black_box;
use std::time::Instant;

/// The pipeline bench's graph: 7,500 vertices, Zipf-sized planted groups.
fn bench_graph() -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: PlantedConfig::zipf_groups(6_000, 4, 250, 1.4, 13),
        n_noise_vertices: 1_500,
        p_intra: 0.8,
        max_intra_degree: 50.0,
        inter_edges_per_vertex: 0.1,
        seed: 13,
    })
    .graph
}

/// The serial oracle's Pass-I records of `g`, of the vertices in `only`
/// (sorted) when given.
fn pass1_records(g: &Csr, params: &ShinglingParams, only: Option<&[VertexId]>) -> SortedRun {
    let mut agg = StreamAggregator::new(params.s1);
    shingle_pass_foreach(
        g,
        params.s1,
        &params.family_pass1(),
        |trial, node, pairs| {
            if only.is_none_or(|vs| vs.binary_search(&node).is_ok()) {
                agg.push(trial, node, pairs.iter().map(|&p| unpack_element(p)))
            }
        },
    );
    agg.into_run()
}

/// `g` grown by 1 % new vertices with 8 edges each into the first 250
/// vertices, as a `serve` round grows a graph: the union graph and its
/// touched vertices.
fn one_percent_delta(g: &Csr) -> (Csr, Vec<VertexId>) {
    let n = g.n() as VertexId;
    let k = g.n() / 100;
    let mut delta = GraphDelta::new();
    delta.add_vertices(k);
    for i in 0..k as VertexId {
        for j in 0..8 {
            delta.add_edge(n + i, (i * 8 + j) % 250);
        }
    }
    (delta.apply(g), delta.touched(g))
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
    let g = bench_graph();
    let params = ShinglingParams::paper_default(7);
    let (s, run) = (params.s1, pass1_records(&g, &params, None));
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

    let (union, touched) = one_percent_delta(&g);
    let fresh = pass1_records(&union, &params, Some(&touched));
    let base = ShingleIndex::from_run(s, run);
    let scratch = ShingleIndex::from_run(s, pass1_records(&union, &params, None));
    println!(
        "spill: index of {} records, 1 % delta touches {} vertices with {} fresh records",
        base.len(),
        touched.len(),
        fresh.len()
    );
    let setup = || (base.clone(), vec![ExternalRun::Mem(fresh.clone())]);
    let update = |(mut index, runs): (ShingleIndex, Vec<ExternalRun>)| {
        index
            .update(&touched, runs, &mut SpillStats::default())
            .unwrap();
        index
    };
    assert!(
        update(setup()) == scratch,
        "the update must equal the from-scratch index"
    );
    time_with_setup("spill/index_update", 10, setup, update);

    // A flush's seal of that delta: one segment (run plus retracted ids)
    // beside the sealed base, with the union graph and its partition,
    // against `spill/seal_pass1_run`'s whole-run seal.
    let dir = std::env::temp_dir().join(format!("gpclust-bench-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let budget = MemoryBudget::default();
    let mut store = IndexStore::new(&dir);
    store
        .save(
            1,
            &base,
            &g,
            &Partition::singletons(g.n()),
            &params,
            budget,
            1,
        )
        .unwrap();
    let part = Partition::singletons(union.n());
    let delta = IndexDelta {
        retracted: &touched,
        fresh: &fresh,
    };
    let seal = |mut store: IndexStore| {
        let sealed = store.seal_records(2, Some(delta), &scratch).unwrap();
        store
            .commit(sealed, &union, &part, &params, budget, 1)
            .unwrap();
        store
    };
    let reloaded = seal(store.clone()).load(&params, budget, 1).unwrap();
    assert!(
        reloaded.index == scratch,
        "the base plus its segment must reload as the from-scratch index"
    );
    time_with_setup("spill/index_seal_segment", 10, || store.clone(), seal);
    std::fs::remove_dir_all(&dir).unwrap();
}
