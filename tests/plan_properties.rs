//! The executor's master oracle suite: one matrix property asserting that
//! every plan the [`gpclust::core::Plan`] can lower — {kernel} ×
//! {1–4 devices} × {fault rate 0 / 0.05} — clusters bit-identically to the
//! serial CPU oracle. The serial result is computed once per graph/seed; every
//! combination must reproduce it exactly, which simultaneously pins all
//! combinations to each other.
//!
//! This consolidates the end-to-end equivalence properties that previously
//! lived per-axis in `tests/select_properties.rs` (kernel axis) and
//! `tests/fault_properties.rs` (random-rate fault axis); those suites
//! keep their record-level, cost-model, and policy-edge cases.

use gpclust::core::multi_gpu::MultiGpuClust;
use gpclust::core::{DistinctLists, GpClust, SerialShingling, ShingleKernel, ShinglingParams};
use gpclust::gpu::{DeviceConfig, DeviceError, FaultPlan, Gpu};
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
/// unsettled, so Pass II still runs, splits across the tiny devices and
/// meets the faults.
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

/// Cluster `g` on `n_devices` simulated GPUs, each with `plan` installed.
/// Multi-device runs use the tiny device so passes split into several
/// batches and the round-robin shares actually cross devices.
fn device_partition(
    g: &Csr,
    params: ShinglingParams,
    n_devices: usize,
    plan: &FaultPlan,
) -> Result<Partition, DeviceError> {
    if n_devices == 1 {
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
        gpu.set_fault_plan(plan.clone().with_device(0));
        Ok(GpClust::new(params, gpu).unwrap().cluster(g)?.partition)
    } else {
        let gpus = (0..n_devices)
            .map(|d| {
                let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 1);
                gpu.set_fault_plan(plan.clone().with_device(d as u32));
                gpu
            })
            .collect();
        Ok(MultiGpuClust::new(params, gpus)
            .unwrap()
            .cluster(g)?
            .partition)
    }
}

/// Serial oracle ≡ Executor over the full plan matrix. Each
/// case draws one random graph, one dense planted graph whose Pass II
/// keeps many unsettled lists, and one parameter seed, then sweeps both
/// kernels, every fleet size and both fault rates.
#[test]
fn executor_matches_serial_oracle_across_the_plan_matrix() {
    check(4, |case| {
        let g = arb_graph(case, 40, 160);
        let seed = case.range(0u64..1000);
        let fault_seed = case.range(0u64..1000);
        let dense = arb_dense_graph(case);
        let base = ShinglingParams::light(seed);
        let unsettled = unsettled_lists(&dense, base);
        assert!(unsettled >= 50, "{unsettled} unsettled lists");
        for g in [&g, &dense] {
            let oracle = SerialShingling::new(base).unwrap().cluster(g);
            for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
                for n_devices in 1usize..=4 {
                    for rate in [0.0, 0.05] {
                        let params = base.with_kernel(kernel);
                        let plan = FaultPlan::random(fault_seed, rate);
                        let got = device_partition(g, params, n_devices, &plan).unwrap();
                        assert_eq!(
                            &got, &oracle,
                            "{:?} {} device(s) rate {}",
                            kernel, n_devices, rate
                        );
                    }
                }
            }
        }
    });
}
