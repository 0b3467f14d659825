//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * trial count `c1` (quality/cost knob the paper credits for its
//!   sensitivity win: "higher sensitivity is contributed by the high
//!   configurable s and c parameters");
//! * shingle size `s1` (aggressive s=1 vs the paper's s=2 vs conservative);
//! * device batch capacity (how much splitting costs);
//! * reporting mode (union–find partition vs overlapping components).

use gpclust_bench::time;
use gpclust_core::{GpClust, SerialShingling, ShinglingParams};
use gpclust_gpu::{DeviceConfig, Gpu};
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::Csr;

fn graph() -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: PlantedConfig::zipf_groups(4_000, 4, 200, 1.4, 11),
        n_noise_vertices: 1_000,
        p_intra: 0.8,
        max_intra_degree: 50.0,
        inter_edges_per_vertex: 0.1,
        seed: 11,
    })
    .graph
}

fn bench_c1_sweep(g: &Csr) {
    for c1 in [25usize, 50, 100, 200] {
        let params = ShinglingParams {
            s1: 2,
            c1,
            s2: 2,
            c2: c1 / 2,
            seed: 7,
            ..ShinglingParams::light(7)
        };
        let alg = SerialShingling::new(params).unwrap();
        time(&format!("ablation_c1/serial_c1_{c1}"), 10, || {
            alg.cluster(g)
        });
    }
}

fn bench_s1_sweep(g: &Csr) {
    for s in [1usize, 2, 4] {
        let params = ShinglingParams {
            s1: s,
            c1: 50,
            s2: s.min(2),
            c2: 25,
            seed: 7,
            ..ShinglingParams::light(7)
        };
        let alg = SerialShingling::new(params).unwrap();
        time(&format!("ablation_s1/serial_s1_{s}"), 10, || alg.cluster(g));
    }
}

fn bench_batch_capacity(g: &Csr) {
    let params = ShinglingParams::light(7);
    for (name, config) in [
        ("k20_single_batch", DeviceConfig::tesla_k20()),
        ("tiny_many_batches", DeviceConfig::tiny_test_device()),
    ] {
        let pipeline = GpClust::new(params, Gpu::new(config)).unwrap();
        time(&format!("ablation_batch_capacity/{name}"), 10, || {
            pipeline.cluster(g).unwrap()
        });
    }
}

fn bench_method_comparison(g: &Csr) {
    // Clustering-method runtimes on the same graph: serial Shingling,
    // GOS k-neighbor (both variants), and MCL — the comparator the
    // metagenomics field later standardized on.
    let alg = SerialShingling::new(ShinglingParams::light(7)).unwrap();
    time("method_comparison/shingling_serial", 10, || alg.cluster(g));
    time("method_comparison/gos_snn_k10", 10, || {
        gpclust_core::kneighbor_clusters(g, 10)
    });
    time("method_comparison/mcl_inflation2", 10, || {
        gpclust_core::mcl::mcl_clusters(g, &gpclust_core::mcl::MclParams::default())
    });
}

fn bench_reporting_mode(g: &Csr) {
    let alg = SerialShingling::new(ShinglingParams::light(7)).unwrap();
    time("ablation_reporting/partition_union_find", 10, || {
        alg.cluster(g)
    });
    time("ablation_reporting/overlapping_components", 10, || {
        alg.cluster_overlapping(g)
    });
}

fn main() {
    let g = graph();
    bench_c1_sweep(&g);
    bench_s1_sweep(&g);
    bench_batch_capacity(&g);
    bench_method_comparison(&g);
    bench_reporting_mode(&g);
}
