//! Settling: Pass II runs only the member lists the owner closure has not
//! already settled.
//!
//! A distinct member list is *settled* when every member shares its
//! anchor's owner-closure root; `DistinctLists::new` drops it, because
//! every Phase-III union it could make is one the closure already holds.
//! These properties pin that the partition and |E″| do not move — over
//! random sparse, planted and noisy graphs, both kernels, with and without
//! faults — and cover the two extremes: an input whose every list settles
//! runs no Pass II batch at all, and a bipartite input, whose closure never
//! joins a list's members to its anchor, runs every list.

use gpclust::core::shingle::AdjacencyInput;
use gpclust::core::{
    DistinctLists, Executor, GpClust, PassInput, Plan, RecoveryReport, SerialShingling,
    ShingleKernel, ShinglingParams, Sink,
};
use gpclust::gpu::{DeviceConfig, FaultPlan, Gpu};
use gpclust::graph::generate::{planted_partition, PlantedConfig};
use gpclust::graph::{Csr, EdgeList, ShingleGraph, UnionFind};
use gpclust_support::check::{check, Case};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The distinct member lists of `first` with at least `s2` members, before
/// settling: their number and their total length.
fn distinct_lists(first: &ShingleGraph, s2: usize) -> (usize, usize) {
    let lists: HashSet<&[u32]> = (0..first.len())
        .map(|f| first.generators(f))
        .filter(|list| list.len() >= s2)
        .collect();
    (lists.len(), lists.iter().map(|list| list.len()).sum())
}

/// A random sparse graph, a planted-partition graph, or a planted graph
/// buried in noise vertices and inter-group edges.
fn arb_graph(case: &mut Case) -> Csr {
    match case.range(0u32..3) {
        0 => {
            let n = case.size(2..80);
            let mut el: EdgeList = case
                .vec(0..3 * n, |c| (c.range(0..n as u32), c.range(0..n as u32)))
                .into_iter()
                .collect();
            Csr::from_edges(n, &mut el)
        }
        kind => {
            let noisy = kind == 2;
            planted_partition(&PlantedConfig {
                group_sizes: case.vec(1..5, |c| c.range(4usize..40)),
                n_noise_vertices: case.range(0usize..if noisy { 60 } else { 10 }),
                p_intra: case.range(0.3f64..0.9),
                max_intra_degree: f64::MAX,
                inter_edges_per_vertex: if noisy { case.range(1.0f64..4.0) } else { 0.5 },
                seed: case.u64(),
            })
            .graph
        }
    }
}

/// Cluster `g` on a tiny device (so the larger inputs batch), optionally
/// with every device op failing half the time.
fn cluster(g: &Csr, params: ShinglingParams, faults: bool) -> gpclust::core::GpClustReport {
    let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
    if faults {
        gpu.set_fault_plan(FaultPlan::random(7, 0.5));
    }
    GpClust::new(params, gpu).unwrap().cluster(g).unwrap()
}

/// Dropping the settled lists changes neither the partition nor the
/// second-level record count: under both kernels, fault-free and with
/// `FaultPlan::random(7, 0.5)`, the device pipeline clusters like
/// `SerialShingling::cluster` and reports |E″| of the materialized G″.
#[test]
fn settling_keeps_the_partition_and_the_record_count() {
    // Distinct lists settled and kept over all cases: both must occur.
    let (settled, kept) = (AtomicUsize::new(0), AtomicUsize::new(0));
    check(16, |case| {
        let g = arb_graph(case);
        let seed = case.range(0u64..1000);
        for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
            let params = ShinglingParams::light(seed).with_kernel(kernel);
            let run = SerialShingling::new(params).unwrap().run(&g);
            let lists = DistinctLists::new(&run.first, params.s2, g.n()).len();
            let (distinct, _) = distinct_lists(&run.first, params.s2);
            settled.fetch_add(distinct - lists, Ordering::Relaxed);
            kept.fetch_add(lists, Ordering::Relaxed);
            let oracle = SerialShingling::new(params).unwrap().cluster(&g);
            for faults in [false, true] {
                let what = format!("{kernel:?}, faults {faults}");
                let report = cluster(&g, params, faults);
                assert_eq!(report.partition, oracle, "{what}");
                assert_eq!(
                    report.second_level_records as usize,
                    run.second.n_edges(),
                    "{what}"
                );
            }
        }
    });
    let (settled, kept) = (settled.into_inner(), kept.into_inner());
    assert!(settled > 0 && kept > 0, "settled {settled}, kept {kept}");
}

/// `k` disjoint cliques of `size` vertices each.
fn cliques(size: u32, k: u32) -> Csr {
    let mut el: EdgeList = (0..k)
        .flat_map(|c| {
            (0..size).flat_map(move |i| (i + 1..size).map(move |j| (c * size + i, c * size + j)))
        })
        .collect();
    Csr::from_edges((size * k) as usize, &mut el)
}

/// Six disjoint 8-cliques: at this seed the owner closure settles every
/// one of the 111 distinct lists, so Pass II has nothing to run. The
/// executor over the empty lists launches and copies nothing, the pipeline
/// plans no Pass II batch, and both still give the oracle's partition and
/// |E″|.
#[test]
fn an_all_settled_input_runs_no_pass_two() {
    let g = cliques(8, 6);
    let params = ShinglingParams::light(1);
    let run = SerialShingling::new(params).unwrap().run(&g);
    let oracle = SerialShingling::new(params).unwrap().cluster(&g);
    let (distinct, _) = distinct_lists(&run.first, params.s2);
    assert!(distinct > 100, "the input must have lists to settle");
    let lists = DistinctLists::new(&run.first, params.s2, g.n());
    assert!(lists.is_empty(), "{} unsettled lists", lists.len());

    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
    let plan = Plan::lower(&params, std::slice::from_ref(&gpu)).unwrap();
    let pass = plan.pass(params.s2, plan.aggregation, plan.capacity, lists.offsets());
    assert!(pass.batches.is_empty());
    let report = Executor::new(&gpu)
        .run(
            &pass,
            PassInput::of(&lists),
            &params.family_pass2(),
            &mut RecoveryReport::default(),
            Sink::Clusters(&lists),
        )
        .unwrap();
    let counters = gpu.counters();
    assert_eq!(
        (
            counters.kernel_launches,
            counters.h2d_transfers,
            counters.d2h_transfers
        ),
        (0, 0, 0)
    );
    let clusters = report.clusters.unwrap();
    assert_eq!(clusters.records, 0);
    let mut uf = UnionFind::new(g.n());
    gpclust::graph::components::absorb_labels(&mut uf, &clusters.labels);
    let (partition, settled_records) = lists.finish(uf, params.s2, params.c2, &Default::default());
    assert_eq!(partition, oracle);
    assert_eq!(settled_records as usize, run.second.n_edges());

    let report = cluster(&g, params, false);
    assert_eq!(report.batch_stats[1].n_batches, 0);
    assert_eq!(report.partition, oracle);
    assert_eq!(report.second_level_records as usize, run.second.n_edges());
}

/// In a bipartite graph every shingle's elements lie on one side and its
/// generators on the other, so the owner closure never joins a list's
/// members to its anchor: no list settles, and Pass II runs every
/// distinct list.
#[test]
fn a_bipartite_input_runs_every_list() {
    let ran = AtomicUsize::new(0);
    check(8, |case| {
        let left = case.range(8u32..40);
        let right = case.range(8u32..40);
        let mut el: EdgeList = case
            .vec(0..(6 * left) as usize, |c| {
                (c.range(0..left), left + c.range(0..right))
            })
            .into_iter()
            .collect();
        let g = Csr::from_edges((left + right) as usize, &mut el);
        let params = ShinglingParams::light(case.range(0u64..1000));
        let run = SerialShingling::new(params).unwrap().run(&g);
        let lists = DistinctLists::new(&run.first, params.s2, g.n());
        assert_eq!(
            (lists.len(), lists.flat().len()),
            distinct_lists(&run.first, params.s2)
        );
        ran.fetch_add(lists.len(), Ordering::Relaxed);
        let report = cluster(&g, params, false);
        assert_eq!(report.batch_stats[1].n_batches > 0, !lists.is_empty());
        assert_eq!(
            report.partition,
            SerialShingling::new(params).unwrap().cluster(&g)
        );
        assert_eq!(report.second_level_records as usize, run.second.n_edges());
    });
    assert!(ran.into_inner() > 0, "some case must have lists to run");
}
