//! Properties of the fused hash-transform + segmented top-s selection
//! kernel (`ShingleKernel::FusedSelect`) against the segmented sort +
//! compaction oracle (`ShingleKernel::SortCompact`).
//!
//! The contract: only the s smallest hashes per adjacency list survive a
//! shingling trial, so selecting them directly must be *bit-identical* to
//! fully sorting and compacting — for arbitrary graphs, forced small batch
//! capacities and worker counts. Everything
//! downstream (aggregation, MCL, Table I) may then treat the kernels as
//! interchangeable and pick the cheap one.
//!
//! End-to-end partition equivalence across the full plan matrix
//! (kernels × device counts × fault rates) lives in
//! `tests/plan_properties.rs`; this suite keeps the record-level and
//! device-cost cases unique to the kernel comparison.

use gpclust::core::minwise::HashFamily;
use gpclust::core::shingle::RawShingles;
use gpclust::core::{
    Executor, PassInput, Plan, RecoveryReport, ShingleKernel, ShinglingParams, Sink,
};
use gpclust::gpu::{DeviceConfig, Gpu};
use gpclust::graph::generate::{planted_partition, PlantedConfig};
use gpclust::graph::Csr;
use gpclust_support::check::check;

fn planted(sizes: Vec<usize>, noise: usize, seed: u64) -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: sizes,
        n_noise_vertices: noise,
        p_intra: 0.7,
        max_intra_degree: f64::MAX,
        inter_edges_per_vertex: 0.8,
        seed,
    })
    .graph
}

/// Materialize one device pass's records under an explicit batch capacity
/// (two runs sharing a capacity share a batch plan — the precondition for
/// record-level comparison across kernels): the plan's in-order pass
/// merges boundary fragments on the host, and its gather sink returns
/// every record, grouped, in emission order.
fn records_at_capacity(
    gpu: &Gpu,
    g: &Csr,
    s: usize,
    family: &HashFamily,
    kernel: ShingleKernel,
    capacity: usize,
) -> RawShingles {
    let params = ShinglingParams::light(0).with_kernel(kernel);
    let plan = Plan::lower(&params, std::slice::from_ref(gpu)).unwrap();
    let pass = plan.pass(s, plan.aggregation, capacity, g.offsets());
    let mut rec = RecoveryReport::default();
    let raw = Executor::new(gpu)
        .run(&pass, PassInput::of(g), family, &mut rec, Sink::Gather)
        .unwrap()
        .raw;
    assert!(raw.is_grouped());
    raw
}

/// Record-level bit-identity under a *shared forced capacity*: with the
/// batch plan pinned, the fused kernel emits exactly the sort path's
/// `(trial, node, top-s pairs)` stream — order included — across small
/// capacities (many splits + boundary carries) and worker counts.
#[test]
fn fused_select_records_bit_identical_at_forced_capacity() {
    check(12, |case| {
        let sizes = case.vec(1..4, |c| c.range(10usize..60));
        let graph_seed = case.range(0u64..500);
        let family_seed = case.range(0u64..500);
        let capacity = case.range(128usize..2048);
        let s = case.range(1usize..4);
        let workers = case.range(1usize..4);
        let g = planted(sizes, 10, graph_seed);
        let family = HashFamily::new(8, family_seed ^ 0xF00D);
        let sort_gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), workers);
        let sort = records_at_capacity(
            &sort_gpu,
            &g,
            s,
            &family,
            ShingleKernel::SortCompact,
            capacity,
        );
        let select_gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), workers);
        let select = records_at_capacity(
            &select_gpu,
            &g,
            s,
            &family,
            ShingleKernel::FusedSelect,
            capacity,
        );
        assert_eq!(sort, select);
        // Same records from strictly less device work: no sort, no gather,
        // no 8-byte packed workspace traffic; the same 4-byte element ids
        // cross the bus.
        let (sc, fc) = (sort_gpu.counters(), select_gpu.counters());
        assert!(fc.kernel_launches < sc.kernel_launches);
        assert!(fc.kernel_seconds < sc.kernel_seconds);
        assert_eq!(fc.d2h_bytes, sc.d2h_bytes);
    });
}
