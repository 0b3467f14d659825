//! Properties of the double-buffered stream schedule every pass runs on.
//!
//! The contract under test, from two sides:
//!
//! 1. **Bit-identical results** — the streamed passes reach the serial
//!    oracle's partition for arbitrary planted graphs, device sizes
//!    (single-batch K20 vs the tiny device that forces batching and
//!    prefetch), and worker counts.
//! 2. **Honest accounting** — every async transfer still lands in the
//!    `h2d/d2h` totals (Table I's "Data c→g"/"Data g→c" columns), and the
//!    pipelined makespan excludes the transfer time hidden behind compute.

use gpclust_core::minwise::HashFamily;
use gpclust_core::shingle::RawShingles;
use gpclust_core::{
    Executor, GpClust, PassInput, Plan, RecoveryReport, SerialShingling, ShingleKernel,
    ShinglingParams, Sink,
};
use gpclust_gpu::{DeviceConfig, Gpu};
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::Csr;
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

/// One device pass at the device's own capacity through the plan/executor
/// layer, gathering the raw record stream. Returns `(records, makespan)`;
/// the makespan is the two-stream pipeline's critical path.
fn gather_pass(
    gpu: &Gpu,
    g: &Csr,
    s: usize,
    family: &HashFamily,
    kernel: ShingleKernel,
) -> (RawShingles, f64) {
    let params = ShinglingParams::light(0).with_kernel(kernel);
    let plan = Plan::lower(&params, std::slice::from_ref(gpu)).unwrap();
    let pass = plan.pass(s, plan.aggregation, plan.capacity, g.offsets());
    let mut rec = RecoveryReport::default();
    let report = Executor::new(gpu)
        .run(&pass, PassInput::of(g), family, &mut rec, Sink::Gather)
        .unwrap();
    (report.raw, report.makespan)
}

/// Full-pipeline equivalence: the serial oracle's partition on
/// arbitrary planted-partition graphs, devices, and worker counts.
#[test]
fn streamed_partition_equals_serial_oracle() {
    check(12, |case| {
        let sizes = case.vec(1..5, |c| c.range(5usize..40));
        let noise = case.range(0usize..20);
        let graph_seed = case.range(0u64..1000);
        let param_seed = case.range(0u64..1000);
        let tiny = case.bool();
        let workers = case.range(1usize..4);
        let g = planted(sizes, noise, graph_seed);
        let config = if tiny {
            DeviceConfig::tiny_test_device()
        } else {
            DeviceConfig::tesla_k20()
        };
        let params = ShinglingParams::light(param_seed);
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        let report = GpClust::new(params, Gpu::with_workers(config, workers))
            .unwrap()
            .cluster(&g)
            .unwrap();
        assert_eq!(oracle, report.partition);
        // The makespan never exceeds — and on any multi-trial workload
        // undercuts — the serialized path.
        assert!(report.times.device_pipelined <= report.times.device_serialized() + 1e-9);
    });
}

/// Streamed D2H time is accounted in the totals (it still crosses the
/// bus) but excluded from the pipelined critical path (it hides behind
/// the next trial's kernels) — the bookkeeping the tentpole exists for.
#[test]
fn streamed_d2h_accounted_but_off_critical_path() {
    let g = planted(vec![60, 45, 30], 20, 99);
    let family = HashFamily::new(16, 0x5EED);
    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
    let (_, makespan) = gather_pass(&gpu, &g, 2, &family, ShingleKernel::SortCompact);
    let snap = gpu.counters();

    // Every transfer of the pass is in the totals.
    assert!(snap.d2h_seconds > 0.0);
    assert!(snap.h2d_seconds > 0.0);

    // The makespan still pays for the upload (the first kernel waits on
    // it) and all kernels …
    assert!(makespan >= snap.kernel_seconds + snap.h2d_seconds - 1e-6);
    // … but beats the serialized path, because all D2H except the final
    // trial's is hidden behind the next trial's compute: with 16 trials,
    // ≥ 15/16 of the D2H total leaves the critical path.
    assert!(makespan < snap.serialized_device_seconds());
    let hidden = snap.serialized_device_seconds() - makespan;
    assert!(
        hidden > 0.5 * snap.d2h_seconds,
        "hidden {hidden} vs d2h {}",
        snap.d2h_seconds
    );
}
