//! Incremental-engine properties: ANY split of a random graph into a base
//! plus a sequence of deltas, streamed through [`IncrementalEngine`],
//! yields a partition (and index) identical to clustering the union graph
//! from scratch — across kernels × 1–4 devices × fault rates, under
//! bounded memory, with vertex growth mixed in, and through both refresh
//! paths (delta pass and full recluster). The serial pClust
//! implementation is the oracle, exactly as in `tests/plan_properties.rs`.

use gpclust::core::{
    IncrementalEngine, RefreshDecision, SerialShingling, ShingleKernel, ShinglingParams,
};
use gpclust::gpu::{DeviceConfig, FaultPlan, Gpu};
use gpclust::graph::{Csr, EdgeList, VertexId};
use gpclust_support::check::{check, Case};
use std::cell::Cell;

/// A random undirected graph of up to `max_n` vertices.
fn arb_graph(case: &mut Case, max_n: usize, max_m: usize) -> Csr {
    let n = case.size(2..max_n);
    let mut el: EdgeList = case
        .vec(0..max_m, |c| (c.range(0..n as u32), c.range(0..n as u32)))
        .into_iter()
        .collect();
    Csr::from_edges(n, &mut el)
}

/// Either kernel.
fn arb_kernel(case: &mut Case) -> ShingleKernel {
    if case.bool() {
        ShingleKernel::FusedSelect
    } else {
        ShingleKernel::SortCompact
    }
}

/// The canonical (v < u) edge list of `g`.
fn edges_of(g: &Csr) -> Vec<(VertexId, VertexId)> {
    g.iter()
        .flat_map(|(v, ns)| {
            ns.iter()
                .filter(move |&&u| v < u)
                .map(move |&u| (v, u))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A fleet of `n_devices` simulated GPUs with `plan` installed on each.
fn fleet(n_devices: usize, plan: &FaultPlan) -> Vec<Gpu> {
    (0..n_devices)
        .map(|d| {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
            gpu.set_fault_plan(plan.clone().with_device(d as u32));
            gpu
        })
        .collect()
}

/// A base cut of a graph with `n_edges` edges. Half the cases hold back
/// only the last few edges — a delta below the full-refresh share, so
/// the flush runs the delta pass — and the rest split anywhere, so large
/// deltas re-cluster from scratch.
fn arb_cut(case: &mut Case, n_edges: usize) -> usize {
    if case.bool() {
        n_edges.saturating_sub(case.range(1..=(n_edges / 20).max(1)))
    } else {
        n_edges * case.range(0usize..=100) / 100
    }
}

/// Stream `g` through the engine: first `cut` edges as the base, the rest
/// in `n_batches` flushed deltas. Returns the engine after the last flush
/// and each flush's decision.
fn stream_through_engine(
    g: &Csr,
    params: &ShinglingParams,
    gpus: Vec<Gpu>,
    cut: usize,
    n_batches: usize,
) -> (IncrementalEngine, Vec<RefreshDecision>) {
    let all = edges_of(g);
    let cut = cut.min(all.len());
    let mut base_edges: EdgeList = all[..cut].iter().copied().collect();
    let base = Csr::from_edges(g.n(), &mut base_edges);
    let mut engine = IncrementalEngine::bootstrap(params, gpus, base).unwrap();
    let rest = &all[cut..];
    let chunk = rest.len().div_ceil(n_batches).max(1);
    let mut decisions = Vec::new();
    for batch in rest.chunks(chunk) {
        for &(a, b) in batch {
            engine.add_edge(a, b);
        }
        decisions.push(engine.flush().unwrap());
    }
    (engine, decisions)
}

/// Flushes per refresh path across a property's cases.
#[derive(Default)]
struct PathTally {
    delta: Cell<usize>,
    full: Cell<usize>,
    /// Most vertices one delta-pass flush touched.
    widest_delta: Cell<usize>,
}

impl PathTally {
    fn record(&self, decisions: &[RefreshDecision]) {
        for d in decisions.iter().filter(|d| d.touched > 0) {
            if d.full {
                self.full.set(self.full.get() + 1);
            } else {
                self.delta.set(self.delta.get() + 1);
                self.widest_delta
                    .set(self.widest_delta.get().max(d.touched));
            }
        }
    }

    /// Panic unless both refresh paths ran.
    fn assert_both_paths(&self) {
        assert!(self.delta.get() > 0, "no flush took the delta path");
        assert!(self.full.get() > 0, "no flush re-clustered from scratch");
    }
}

/// Any base/delta split, streamed in any number of batches, lands on
/// the serial oracle's partition — over both kernels, fleet sizes,
/// and fault rates, and through both refresh paths.
#[test]
fn base_plus_delta_stream_matches_serial_oracle() {
    let tally = PathTally::default();
    check(12, |case| {
        let g = arb_graph(case, 40, 160);
        let kernel = arb_kernel(case);
        let seed = case.range(0u64..1000);
        let fault_seed = case.range(0u64..1000);
        let cut = arb_cut(case, edges_of(&g).len());
        let n_batches = case.range(1usize..4);
        let n_devices = case.range(1usize..=4);
        let faulty = case.bool();
        let rate = if faulty { 0.05 } else { 0.0 };
        let params = ShinglingParams::light(seed).with_kernel(kernel);
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        let (engine, decisions) = stream_through_engine(
            &g,
            &params,
            fleet(n_devices, &FaultPlan::random(fault_seed, rate)),
            cut,
            n_batches,
        );
        tally.record(&decisions);
        assert_eq!(
            engine.partition(),
            &oracle,
            "{:?} cut {} batches {} devices {} rate {}",
            kernel,
            cut,
            n_batches,
            n_devices,
            rate
        );
    });
    tally.assert_both_paths();
}

/// The maintained index is byte-identical to the one a from-scratch
/// bootstrap of the union graph builds, whichever refresh path each
/// flush takes. Both paths must occur across the cases, and some delta
/// pass must span more than one edge.
#[test]
fn streamed_index_is_bit_identical_to_from_scratch() {
    let tally = PathTally::default();
    check(12, |case| {
        let g = arb_graph(case, 40, 160);
        let seed = case.range(0u64..1000);
        let n_edges = edges_of(&g).len();
        let cut = arb_cut(case, n_edges);
        let n_batches = case.range(1usize..3);
        let params = ShinglingParams::light(seed);
        let (engine, decisions) = stream_through_engine(
            &g,
            &params,
            fleet(1, &FaultPlan::random(0, 0.0)),
            cut,
            n_batches,
        );
        tally.record(&decisions);
        let scratch =
            IncrementalEngine::bootstrap(&params, fleet(1, &FaultPlan::random(0, 0.0)), g.clone())
                .unwrap();
        assert_eq!(
            engine.index(),
            scratch.index(),
            "cut {cut} of {n_edges}, {decisions:?}"
        );
        assert_eq!(engine.partition(), scratch.partition());
    });
    tally.assert_both_paths();
    assert!(
        tally.widest_delta.get() > 2,
        "no delta pass touched more than one edge's endpoints"
    );
}

/// Sharded (out-of-core) refreshes spill and external-merge without
/// disturbing the partition, on either refresh path.
#[test]
fn bounded_budget_stream_matches_serial_oracle() {
    let tally = PathTally::default();
    let spilled = Cell::new(0u64);
    check(12, |case| {
        let g = arb_graph(case, 30, 120);
        let seed = case.range(0u64..500);
        let cut = arb_cut(case, edges_of(&g).len());
        let n_devices = case.range(1usize..=2);
        let shards = case.range(2u32..=4);
        let params = ShinglingParams::light(seed).with_shards(shards);
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        let (engine, decisions) = stream_through_engine(
            &g,
            &params,
            fleet(n_devices, &FaultPlan::random(0, 0.0)),
            cut,
            1,
        );
        tally.record(&decisions);
        spilled.set(spilled.get() + engine.spill_stats().bytes);
        assert_eq!(engine.partition(), &oracle, "cut {cut} shards {shards}");
    });
    tally.assert_both_paths();
    assert!(spilled.get() > 0, "no refresh spilled");
}

/// Growing the vertex range mid-stream (new sequences arriving) keeps
/// the engine on the oracle of the grown union graph.
#[test]
fn vertex_growth_stream_matches_serial_oracle() {
    check(12, |case| {
        let g = arb_graph(case, 30, 120);
        let seed = case.range(0u64..500);
        let extra = case.range(1usize..6);
        let n_devices = case.range(1usize..=2);
        let params = ShinglingParams::light(seed);
        let n = g.n();
        let mut engine = IncrementalEngine::bootstrap(
            &params,
            fleet(n_devices, &FaultPlan::random(0, 0.0)),
            g.clone(),
        )
        .unwrap();
        engine.add_vertices(extra);
        // Chain each new vertex to vertex 0 and to its predecessor.
        for i in 0..extra {
            let v = (n + i) as u32;
            engine.add_edge(v, 0);
            if i > 0 {
                engine.add_edge(v, v - 1);
            }
        }
        engine.flush().unwrap();
        let mut union_edges: EdgeList = edges_of(&g).into_iter().collect();
        for i in 0..extra {
            let v = (n + i) as u32;
            union_edges.push(v, 0);
            if i > 0 {
                union_edges.push(v, v - 1);
            }
        }
        let union = Csr::from_edges(n + extra, &mut union_edges);
        let oracle = SerialShingling::new(params).unwrap().cluster(&union);
        assert_eq!(engine.partition(), &oracle, "extra {}", extra);
    });
}
