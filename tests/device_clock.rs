//! The simulated device clock, pinned.
//!
//! One fixed planted graph is clustered on the Tesla K20 preset with the
//! light parameters, once per shingling kernel, and every modeled figure
//! the Table I columns and the stream makespan come from is compared
//! against exact constants. Any change to how a kernel or a copy is
//! charged, or to what the passes launch, moves one of them; a refactor
//! of the simulator that claims to leave the clock alone must pass this
//! test unchanged.

use gpclust::core::{GpClust, ShingleKernel, ShinglingParams};
use gpclust::gpu::{DeviceConfig, Gpu};
use gpclust::graph::generate::{planted_partition, PlantedConfig};

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

fn run(kernel: ShingleKernel) -> Clock {
    let g = planted_partition(&PlantedConfig {
        group_sizes: vec![40, 30, 25, 18, 12],
        n_noise_vertices: 20,
        p_intra: 0.75,
        max_intra_degree: f64::MAX,
        inter_edges_per_vertex: 0.6,
        seed: 2013,
    })
    .graph;
    let params = ShinglingParams::light(17).with_kernel(kernel);
    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
    let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
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

#[test]
fn modeled_device_seconds_are_pinned_for_both_kernels() {
    if std::env::var_os("GPCLUST_MEM_BUDGET").is_some() {
        // A resident-byte budget reshards Pass I, which changes the
        // launch and copy counts this test pins.
        return;
    }
    // Both kernels upload the same adjacency lists and download the same
    // records; only the kernel chain (transform + segmented sort + gather
    // versus one fused select per trial) and so the makespan differ.
    assert_eq!(
        run(ShingleKernel::SortCompact),
        Clock {
            kernel_seconds: 0.03614054,
            h2d_seconds: 2.4363e-5,
            d2h_seconds: 0.00064528,
            kernel_launches: 180,
            h2d_transfers: 2,
            d2h_transfers: 60,
            h2d_bytes: 26176,
            d2h_bytes: 271680,
            device_pipelined: 0.03618683958974361,
        }
    );
    assert_eq!(
        run(ShingleKernel::FusedSelect),
        Clock {
            kernel_seconds: 0.01200886,
            h2d_seconds: 2.4363e-5,
            d2h_seconds: 0.00064528,
            kernel_launches: 60,
            h2d_transfers: 2,
            d2h_transfers: 60,
            h2d_bytes: 26176,
            d2h_bytes: 271680,
            device_pipelined: 0.012055136512820516,
        }
    );
}
