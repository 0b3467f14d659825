//! The simulated device clock, pinned.
//!
//! One fixed planted graph is clustered on the Tesla K20 preset with the
//! light parameters, once per shingling kernel, and every modeled figure
//! the Table I columns and the stream makespan come from is compared
//! against exact constants. Any change to how a kernel or a copy is
//! charged, or to what the passes launch, moves one of them; a refactor
//! of the simulator that claims to leave the clock alone must pass this
//! test unchanged.

use gpclust::core::autotune::{predict, PassShape, PlanAxes, Sharing, WorkloadShape};
use gpclust::core::shingle::AdjacencyInput;
use gpclust::core::{
    DistinctLists, GpClust, GpClustReport, SerialShingling, ShingleKernel, ShinglingParams,
};
use gpclust::gpu::{DeviceConfig, Gpu};
use gpclust::graph::generate::{planted_partition, PlantedConfig};
use gpclust::graph::Csr;

/// The modeled figures of one run, in the order they are pinned.
#[derive(Debug, PartialEq)]
struct Clock {
    kernel_seconds: f64,
    h2d_seconds: f64,
    d2h_seconds: f64,
    kernel_launches: u64,
    h2d_transfers: u64,
    d2h_transfers: u64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    device_pipelined: f64,
}

/// The fixed planted graph clustered under `params` on one K20.
fn cluster(params: ShinglingParams) -> GpClustReport {
    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
    GpClust::new(params, gpu)
        .unwrap()
        .cluster(&graph())
        .unwrap()
}

/// The fixed planted graph.
fn graph() -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: vec![40, 30, 25, 18, 12],
        n_noise_vertices: 20,
        p_intra: 0.75,
        max_intra_degree: f64::MAX,
        inter_edges_per_vertex: 0.6,
        seed: 2013,
    })
    .graph
}

fn clock(report: &GpClustReport) -> Clock {
    let c = report.counters;
    Clock {
        kernel_seconds: c.kernel_seconds,
        h2d_seconds: c.h2d_seconds,
        d2h_seconds: c.d2h_seconds,
        kernel_launches: c.kernel_launches,
        h2d_transfers: c.h2d_transfers,
        d2h_transfers: c.d2h_transfers,
        h2d_bytes: c.h2d_bytes,
        d2h_bytes: c.d2h_bytes,
        device_pipelined: report.times.device_pipelined,
    }
}

fn run(kernel: ShingleKernel) -> Clock {
    clock(&cluster(ShinglingParams::light(17).with_kernel(kernel)))
}

#[test]
fn modeled_device_seconds_are_pinned_for_both_kernels() {
    if std::env::var_os("GPCLUST_MEM_BUDGET").is_some() {
        // A resident-byte budget reshards Pass I, which changes the
        // launch and copy counts this test pins.
        return;
    }
    // Both kernels upload the same adjacency lists and download the same
    // bytes. Pass II runs only the unsettled member lists: the owner
    // closure already joins every member of 555 of the graph's 591
    // distinct lists to its anchor, so Pass II uploads, selects and marks
    // 36 lists of 477 elements (it ran all 3,880). Pass I uploads 2,664
    // elements and Pass II 477: 4 · 3,141 = 12,564 bytes (was 26,176) in
    // 2 copies, 2 latencies of 10 µs plus 12,564 B at 6 GB/s. Pass I
    // downloads one 4-byte element id per output slot, 258 slots per
    // trial; Pass II, a single fragment-free batch, reduces its 20 trials
    // on the device and downloads one mark byte per element:
    // 4 · 40 · 258 + 477 = 41,757 bytes (was 45,160). The sort kernel runs
    // transform + segmented sort + gather per trial, so 3 · (c1 + c2) =
    // 180 launches, unchanged, and its gather ORs Pass II's marks into one
    // buffer: one D2H per Pass-I trial and one for Pass II, 40 + 1 = 41
    // copies. Its kernel seconds fall by 55.64 µs, what the three
    // launches charge for 20 · 3,403 fewer element-trials; its D2H seconds
    // are 41 latencies plus 41,757 B at 6 GB/s (6.959 µs). The fused
    // kernel runs Pass I in trial groups of g = clamp(2 · elements /
    // outputs, 1, c) trials, one launch and one D2H each: 2,664 elements
    // against 258 outputs per trial give g = 20 and ⌈40/20⌉ = 2 groups.
    // Pass II runs all 20 trials in one launch with one D2H, so 2 + 1 = 3
    // launches and 3 copies. Its kernel seconds are 3 launch overheads of
    // 200 µs plus the memory-bound selection over 40 · 2,664 + 20 · 477 =
    // 116,100 element-trials (was 184,160) at 10 B each and 208 GB/s
    // (5.583 µs, rounded per launch to whole nanoseconds); its D2H seconds
    // are 3 copy latencies of 10 µs plus the same 6.959 µs.
    assert_eq!(
        run(ShingleKernel::SortCompact),
        Clock {
            kernel_seconds: 0.0360849,
            h2d_seconds: 2.2094e-5,
            d2h_seconds: 0.000416959,
            kernel_launches: 180,
            h2d_transfers: 2,
            d2h_transfers: 41,
            h2d_bytes: 12564,
            d2h_bytes: 41757,
            device_pipelined: 0.036127245500000016,
        }
    );
    assert_eq!(
        run(ShingleKernel::FusedSelect),
        Clock {
            kernel_seconds: 0.000605583,
            h2d_seconds: 2.2094e-5,
            d2h_seconds: 3.6959e-5,
            kernel_launches: 3,
            h2d_transfers: 2,
            d2h_transfers: 3,
            h2d_bytes: 12564,
            d2h_bytes: 41757,
            device_pipelined: 0.0006511952307692306,
        }
    );
}

/// Under a byte budget Pass I runs each list-aligned shard as one device
/// batch (the K20 holds every shard whole), so the pass pays the per-trial
/// launches once per shard. An explicit budget wins over
/// `GPCLUST_MEM_BUDGET`, so this case runs under it too.
#[test]
fn budgeted_pass_one_pays_one_batch_per_shard() {
    let params = ShinglingParams::light(17)
        .with_kernel(ShingleKernel::SortCompact)
        .with_mem_budget(96 * 1024);
    let report = cluster(params);
    let shards = report.times.shards;
    assert!(
        shards >= 3,
        "the budget must carve several shards: {shards}"
    );
    let [pass1, pass2] = report.batch_stats;
    assert_eq!(pass1.n_batches, shards, "one Pass-I batch per shard");
    // The sort kernel launches transform + segmented sort + gather per
    // trial of every batch.
    let trial_batches = shards * params.c1 as u64 + pass2.n_batches * params.c2 as u64;
    assert_eq!(report.counters.kernel_launches, 3 * trial_batches);
    assert_eq!(
        clock(&report),
        Clock {
            kernel_seconds: 0.1080849,
            h2d_seconds: 5.2093e-5,
            d2h_seconds: 0.001616919,
            kernel_launches: 540,
            h2d_transfers: 5,
            d2h_transfers: 161,
            h2d_bytes: 12564,
            d2h_bytes: 41757,
            device_pipelined: 0.10818724549999992,
        }
    );
}

/// The cost model prices each kernel's trial groups, and Pass II's one
/// launch and one mark copy per batch: given the run's
/// exact pass shapes, its predicted stream makespan stays within 0.1 % of
/// the measured one. (The predictor proper estimates Pass II's shape
/// before Pass I has run; that estimate is a separate error.)
#[test]
fn prediction_prices_the_trial_groups_of_the_measured_run() {
    if std::env::var_os("GPCLUST_MEM_BUDGET").is_some() {
        return;
    }
    let g = graph();
    let gpus = [Gpu::with_workers(DeviceConfig::tesla_k20(), 1)];
    for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
        let params = ShinglingParams::light(17).with_kernel(kernel);
        let measured = cluster(params).times.device_pipelined;
        let first = SerialShingling::new(params).unwrap().run(&g).first;
        let lists = DistinctLists::new(&first, params.s2, g.n());
        let shape = WorkloadShape {
            pass2: PassShape::from_offsets(lists.offsets(), params.c2, params.s2),
            ..WorkloadShape::from_input(g.n(), g.offsets(), &params)
        };
        let predicted = predict(PlanAxes::of(&params), &shape, &gpus, Sharing::Weighted)
            .unwrap()
            .device_seconds;
        let error = (predicted - measured) / measured;
        assert!(
            error.abs() < 0.001,
            "{kernel:?}: predicted {predicted} s vs measured {measured} s"
        );
    }
}
