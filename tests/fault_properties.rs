//! Fault-injection properties: under any injected fault schedule that
//! does not exhaust the recovery policy, the final clusters are
//! bit-identical to a fault-free run — across kernels and 1–4 devices.
//! Exhausted policies surface typed errors, never panics.
//!
//! Random-rate fault injection across the full schedule matrix lives in
//! `tests/plan_properties.rs`; this suite keeps the scheduled-fault,
//! device-loss, saturation, and policy-edge cases.

use gpclust::core::multi_gpu::MultiGpuClust;
use gpclust::core::{
    DistinctLists, FaultPolicy, GpClust, SerialShingling, ShingleKernel, ShinglingParams,
};
use gpclust::gpu::{DeviceConfig, DeviceError, FaultKind, FaultPlan, FaultSite, Gpu};
use gpclust::graph::generate::{planted_partition, PlantedConfig};
use gpclust::graph::{Csr, EdgeList, Partition};
use gpclust_support::check::{check, Case};

/// A random undirected graph of up to `max_n` vertices.
fn arb_graph(case: &mut Case, max_n: usize, max_m: usize) -> Csr {
    let n = case.size(2..max_n);
    let mut el: EdgeList = case
        .vec(0..max_m, |c| (c.range(0..n as u32), c.range(0..n as u32)))
        .into_iter()
        .collect();
    Csr::from_edges(n, &mut el)
}

/// A dense planted graph: its owner closure leaves many member lists
/// unsettled, so Pass II still runs and meets the faults.
fn arb_dense_graph(case: &mut Case) -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: case.vec(2..4, |c| c.range(60usize..120)),
        n_noise_vertices: case.range(0usize..20),
        p_intra: case.range(0.6f64..0.85),
        max_intra_degree: f64::MAX,
        inter_edges_per_vertex: 1.0,
        seed: case.u64(),
    })
    .graph
}

/// The unsettled member lists Pass II runs over on `g`.
fn unsettled_lists(g: &Csr, params: ShinglingParams) -> usize {
    let first = SerialShingling::new(params).unwrap().run(g).first;
    DistinctLists::new(&first, params.s2, g.n()).len()
}

/// Either kernel.
fn arb_kernel(case: &mut Case) -> ShingleKernel {
    if case.bool() {
        ShingleKernel::FusedSelect
    } else {
        ShingleKernel::SortCompact
    }
}

/// A handful of explicitly scheduled transient faults (random draws are
/// exercised separately via `FaultPlan::random`).
fn arb_schedule(case: &mut Case) -> Vec<(FaultSite, u64, FaultKind)> {
    const SITES: [FaultSite; 4] = [
        FaultSite::H2D,
        FaultSite::D2H,
        FaultSite::Alloc,
        FaultSite::Kernel,
    ];
    const KINDS: [FaultKind; 3] = [
        FaultKind::TransferFailed,
        FaultKind::LaunchFailed,
        FaultKind::Ecc,
    ];
    case.vec(0..6, |c| {
        (
            SITES[c.range(0usize..4)],
            c.range(1u64..30),
            KINDS[c.range(0usize..3)],
        )
    })
}

/// Cluster `g` on `n_devices` simulated GPUs, each with `plan` installed.
fn faulty_partition(
    g: &Csr,
    params: ShinglingParams,
    n_devices: usize,
    plan: &FaultPlan,
) -> Result<Partition, DeviceError> {
    let make = |d: u32| {
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
        gpu.set_fault_plan(plan.clone().with_device(d));
        gpu
    };
    if n_devices == 1 {
        Ok(GpClust::new(params, make(0)).unwrap().cluster(g)?.partition)
    } else {
        let gpus = (0..n_devices).map(|d| make(d as u32)).collect();
        Ok(MultiGpuClust::new(params, gpus)
            .unwrap()
            .cluster(g)?
            .partition)
    }
}

/// Explicit fault schedules (transient kinds at arbitrary operation
/// indices) are likewise invisible in the final clusters — on a random
/// graph and on a dense planted one whose Pass II keeps many lists.
#[test]
fn scheduled_faults_preserve_bit_identity() {
    check(16, |case| {
        let g = arb_graph(case, 50, 250);
        let kernel = arb_kernel(case);
        let seed = case.range(0u64..1000);
        let schedule = arb_schedule(case);
        let n_devices = case.range(1usize..=4);
        let dense = arb_dense_graph(case);
        let params = ShinglingParams::light(seed).with_kernel(kernel);
        let unsettled = unsettled_lists(&dense, params);
        assert!(unsettled >= 50, "{unsettled} unsettled lists");
        let mut plan = FaultPlan::scheduled();
        for (site, occurrence, kind) in schedule {
            plan = plan.with_fault(site, occurrence, kind);
        }
        for g in [&g, &dense] {
            let oracle = SerialShingling::new(params).unwrap().cluster(g);
            let faulty = faulty_partition(g, params, n_devices, &plan).unwrap();
            assert_eq!(faulty, oracle);
        }
    });
}

/// Losing one of two devices mid-run redistributes its remaining
/// batches to the survivor without changing the clusters — on a random
/// graph and on a dense planted one whose Pass II keeps many lists.
#[test]
fn device_loss_recovery_preserves_bit_identity() {
    check(16, |case| {
        let g = arb_graph(case, 50, 250);
        let kernel = arb_kernel(case);
        let seed = case.range(0u64..500);
        let occurrence = case.range(1u64..20);
        let dense = arb_dense_graph(case);
        let params = ShinglingParams::light(seed).with_kernel(kernel);
        let unsettled = unsettled_lists(&dense, params);
        assert!(unsettled >= 50, "{unsettled} unsettled lists");
        for g in [&g, &dense] {
            let oracle = SerialShingling::new(params).unwrap().cluster(g);
            let gpus: Vec<Gpu> = (0..2)
                .map(|d| {
                    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
                    if d == 0 {
                        gpu.set_fault_plan(
                            FaultPlan::scheduled()
                                .with_fault(FaultSite::Kernel, occurrence, FaultKind::DeviceLost)
                                .with_device(0),
                        );
                    }
                    gpu
                })
                .collect();
            let report = MultiGpuClust::new(params, gpus)
                .unwrap()
                .cluster(g)
                .unwrap();
            assert_eq!(report.partition, oracle);
        }
    });
}

/// A saturating fault rate degrades batches to the bit-identical host
/// path; the run still succeeds, and the report says what happened.
#[test]
fn saturated_faults_degrade_to_host_and_match() {
    let g = ring_graph(120);
    let params = ShinglingParams::light(5);
    let oracle = SerialShingling::new(params).unwrap().cluster(&g);
    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
    gpu.set_fault_plan(FaultPlan::random(7, 1.0));
    let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
    assert_eq!(report.partition, oracle);
    let rec = &report.times.recovery;
    assert!(rec.any());
    assert!(rec.degraded_batches > 0, "{rec}");
    assert!(rec.retries > 0, "{rec}");
    assert!(rec.faults_injected > 0, "{rec}");
}

/// Repeated injected `OutOfMemory` halves the batch capacity and
/// re-plans; the clusters do not change and the backoffs are counted.
#[test]
fn repeated_oom_backs_off_and_matches() {
    let g = ring_graph(150);
    let params = ShinglingParams::light(9);
    let oracle = SerialShingling::new(params).unwrap().cluster(&g);
    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
    gpu.set_fault_plan(
        FaultPlan::scheduled()
            .with_fault(FaultSite::Alloc, 1, FaultKind::OutOfMemory)
            .with_fault(FaultSite::Alloc, 2, FaultKind::OutOfMemory),
    );
    let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
    assert_eq!(report.partition, oracle);
    assert!(
        report.times.recovery.oom_backoffs >= 2,
        "{}",
        report.times.recovery
    );
}

/// A strict policy (no retries, no backoff, no degradation) surfaces the
/// injected fault as a typed error — never a panic.
#[test]
fn strict_policy_surfaces_typed_errors() {
    let g = ring_graph(80);
    let params = ShinglingParams::light(3).with_fault_policy(FaultPolicy::strict());

    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
    gpu.set_fault_plan(FaultPlan::random(11, 1.0));
    let err = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap_err();
    assert!(err.is_transient(), "expected a transient fault, got {err}");

    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
    gpu.set_fault_plan(FaultPlan::scheduled().with_fault(
        FaultSite::Alloc,
        1,
        FaultKind::OutOfMemory,
    ));
    let err = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap_err();
    assert!(matches!(err, DeviceError::OutOfMemory { .. }), "{err}");
}

/// `LaunchFailed` injected at every kernel-occurrence index in turn —
/// through both passes — always yields the bit-identical serial
/// partition under the permissive policy, and at least one index
/// exercises the recovery machinery.
#[test]
fn launch_faults_at_every_index_degrade_bit_identically() {
    let g = ring_graph(90);
    let params = ShinglingParams::light(13);
    let oracle = SerialShingling::new(params).unwrap().cluster(&g);
    let mut any_recovery = false;
    for occurrence in 1u64..=80 {
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
        gpu.set_fault_plan(FaultPlan::scheduled().with_fault(
            FaultSite::Kernel,
            occurrence,
            FaultKind::LaunchFailed,
        ));
        let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
        assert_eq!(report.partition, oracle, "kernel occurrence {occurrence}");
        any_recovery |= report.times.recovery.any();
    }
    assert!(any_recovery, "no occurrence index hit an injected fault");
}

/// Losing the only device is terminal: a typed `DeviceLost`, not a panic,
/// even under the default (fully permissive) policy.
#[test]
fn single_device_loss_is_typed_and_fatal() {
    let g = ring_graph(80);
    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
    gpu.set_fault_plan(FaultPlan::scheduled().with_fault(
        FaultSite::Kernel,
        1,
        FaultKind::DeviceLost,
    ));
    let err = GpClust::new(ShinglingParams::light(3), gpu)
        .unwrap()
        .cluster(&g)
        .unwrap_err();
    assert!(matches!(err, DeviceError::DeviceLost { .. }), "{err}");
}

/// `GPCLUST_INJECT_FAULTS=<seed>:<rate>` drives the same plan the
/// `--inject-faults` flag would, and a run under it stays bit-identical.
#[test]
fn env_var_drives_fault_plan() {
    assert_eq!(FaultPlan::parse("123:0.5").unwrap().seed, 123);
    assert!(FaultPlan::parse("123").is_err());
    assert!(FaultPlan::parse("a:b").is_err());
    assert!(FaultPlan::parse("1:1.5").is_err());

    std::env::set_var(gpclust::gpu::fault::FAULT_ENV, "42:0.25");
    let plan = FaultPlan::from_env().expect("env plan");
    std::env::remove_var(gpclust::gpu::fault::FAULT_ENV);
    assert_eq!(plan, FaultPlan::random(42, 0.25));
    assert_eq!(FaultPlan::from_env(), None);

    let g = ring_graph(100);
    let params = ShinglingParams::light(7);
    let oracle = SerialShingling::new(params).unwrap().cluster(&g);
    let faulty = faulty_partition(&g, params, 2, &plan).unwrap();
    assert_eq!(faulty, oracle);
}

/// A cycle with a few chords — connected, deterministic, cheap.
fn ring_graph(n: usize) -> Csr {
    let mut el: EdgeList = (0..n as u32)
        .map(|v| (v, (v + 1) % n as u32))
        .chain((0..n as u32 / 5).map(|v| (v, (v * 7 + 3) % n as u32)))
        .collect();
    Csr::from_edges(n, &mut el)
}
