//! Fleet Phase III. `MultiGpuClust` streams Pass II into every device's
//! `Sink::Clusters`, absorbs each device's vertex-id labels and then
//! unions the finalized boundary fragments; nothing builds G″. These
//! properties pin that finish to the serial oracle across fleet sizes,
//! device sizes and fault rates, and check that a device lost
//! in the middle of Pass II — whose half-finished batch a survivor
//! re-runs, repeating the unions of its complete records — leaves the
//! partition unchanged.

use gpclust_core::multi_gpu::MultiGpuClust;
use gpclust_core::{DistinctLists, SerialShingling, ShinglingParams};
use gpclust_gpu::{DeviceConfig, FaultKind, FaultPlan, FaultSite, Gpu};
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::Csr;
use gpclust_support::check::check;

/// A planted graph large enough that the tiny device splits both passes
/// into several batches, so lists split across devices.
fn planted(group_sizes: Vec<usize>, seed: u64) -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes,
        n_noise_vertices: 20,
        p_intra: 0.5,
        max_intra_degree: f64::MAX,
        inter_edges_per_vertex: 1.0,
        seed,
    })
    .graph
}

/// The unsettled member lists Pass II runs over on `g`: each test asserts
/// a floor on it, so settling cannot leave Pass II nothing to run.
fn unsettled_lists(g: &Csr, params: ShinglingParams) -> usize {
    let first = SerialShingling::new(params).unwrap().run(g).first;
    DistinctLists::new(&first, params.s2, g.n()).len()
}

/// `n` devices of `config`, each with `plan` installed under its own id.
fn fleet(n: usize, config: &DeviceConfig, plan: &FaultPlan) -> Vec<Gpu> {
    (0..n)
        .map(|d| {
            let gpu = Gpu::with_workers(config.clone(), 1);
            gpu.set_fault_plan(plan.clone().with_device(d as u32));
            gpu
        })
        .collect()
}

/// Serial oracle ≡ fleet Phase III across 1–3 devices × device sizes
/// × fault rates. The tiny device splits lists across devices.
#[test]
fn fleet_phase3_matches_serial_oracle() {
    check(4, |case| {
        let sizes = case.vec(2..4, |c| c.range(40usize..120));
        let graph_seed = case.range(0u64..1000);
        let seed = case.range(0u64..1000);
        let fault_seed = case.range(0u64..1000);
        let g = planted(sizes, graph_seed);
        let base = ShinglingParams::light(seed);
        assert!(unsettled_lists(&g, base) >= 100);
        let oracle = SerialShingling::new(base).unwrap().cluster(&g);
        for config in [DeviceConfig::tesla_k20(), DeviceConfig::tiny_test_device()] {
            for n_devices in 1usize..=3 {
                for rate in [0.0, 0.1] {
                    let plan = FaultPlan::random(fault_seed, rate);
                    let gpus = fleet(n_devices, &config, &plan);
                    let got = MultiGpuClust::new(base, gpus)
                        .unwrap()
                        .cluster(&g)
                        .unwrap()
                        .partition;
                    assert_eq!(
                        &got, &oracle,
                        "{} {} device(s) rate {}",
                        config.name, n_devices, rate
                    );
                }
            }
        }
    });
}

/// Device 1 of 2 drops off the bus at its second-to-last kernel launch:
/// inside the last trial of its last Pass II batch, whose earlier trials
/// already streamed their complete records into its Phase III sink. The
/// survivor re-runs that batch, so those records union twice, while the
/// lost batch's fragments never reach the pool — and the partition is
/// still the oracle's.
#[test]
fn device_lost_mid_pass_two_leaves_the_partition_unchanged() {
    let g = planted(vec![150, 120, 100], 71);
    let params = ShinglingParams::light(43);
    assert!(unsettled_lists(&g, params) >= 400);
    let oracle = SerialShingling::new(params).unwrap().cluster(&g);
    let tiny = DeviceConfig::tiny_test_device();
    // Fault-free, to find device 1's last kernel launches — all in
    // Pass II.
    let clean = fleet(2, &tiny, &FaultPlan::scheduled());
    let report = MultiGpuClust::new(params, clean.clone())
        .unwrap()
        .cluster(&g)
        .unwrap();
    assert_eq!(report.partition, oracle, "fault-free");
    assert!(report.batch_stats[1].n_batches > 2, "Pass II must batch");
    let launches = clean[1].counters().kernel_launches;

    let plan = FaultPlan::scheduled()
        .with_fault(FaultSite::Kernel, launches - 1, FaultKind::DeviceLost)
        .with_device(1);
    let gpus = vec![
        Gpu::with_workers(tiny.clone(), 1),
        Gpu::with_workers(tiny.clone(), 1),
    ];
    gpus[1].set_fault_plan(plan);
    let report = MultiGpuClust::new(params, gpus.clone())
        .unwrap()
        .cluster(&g)
        .unwrap();
    assert!(gpus[1].is_lost());
    let rec = &report.times.recovery;
    assert_eq!(rec.lost_devices, 1);
    assert!(rec.redistributed_batches >= 1, "{rec}");
    assert_eq!(report.partition, oracle);
}
