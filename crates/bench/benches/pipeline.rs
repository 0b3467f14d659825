//! End-to-end pipeline benchmark: serial pClust vs gpClust under both
//! kernels on a homology-shaped graph, one incremental refresh cycle, and
//! the metagenome → graph construction stage.

use gpclust_bench::{time, time_with_setup};
use gpclust_core::{GpClust, IncrementalEngine, SerialShingling, ShingleKernel, ShinglingParams};
use gpclust_gpu::{DeviceConfig, Gpu};
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::{Csr, EdgeList};
use gpclust_homology::{graph_from_metagenome, HomologyConfig};
use gpclust_seqsim::metagenome::{Metagenome, MetagenomeConfig};

fn graph() -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: PlantedConfig::zipf_groups(6_000, 4, 250, 1.4, 13),
        n_noise_vertices: 1_500,
        p_intra: 0.8,
        max_intra_degree: 50.0,
        inter_edges_per_vertex: 0.1,
        seed: 13,
    })
    .graph
}

fn bench_clustering() {
    let g = graph();
    let params = ShinglingParams::paper_default(7);
    let alg = SerialShingling::new(params).unwrap();
    time("end_to_end_clustering/serial_pclust", 10, || {
        alg.cluster(&g)
    });
    let pipeline = GpClust::new(params, Gpu::new(DeviceConfig::tesla_k20())).unwrap();
    time("end_to_end_clustering/gpclust_k20", 10, || {
        pipeline.cluster(&g).unwrap()
    });
    let sort = params.with_kernel(ShingleKernel::SortCompact);
    let pipeline = GpClust::new(sort, Gpu::new(DeviceConfig::tesla_k20())).unwrap();
    time("end_to_end_clustering/gpclust_k20_sort", 10, || {
        pipeline.cluster(&g).unwrap()
    });
}

/// One `serve` refresh cycle: bootstrap on all but the last 1 % of the
/// graph's edges, stream that 1 % in, and flush (a delta pass).
fn bench_incremental() {
    let g = graph();
    let params = ShinglingParams::paper_default(7);
    let mut edges: Vec<(u32, u32)> = g
        .iter()
        .flat_map(|(v, ns)| ns.iter().filter(move |&&u| v < u).map(move |&u| (v, u)))
        .collect();
    let delta = edges.split_off(edges.len() - edges.len() / 100);
    let mut base_edges: EdgeList = edges.into_iter().collect();
    let base = Csr::from_edges(g.n(), &mut base_edges);
    time_with_setup(
        "incremental/bootstrap_flush_1pct",
        10,
        || base.clone(),
        |base| {
            let gpus = vec![Gpu::new(DeviceConfig::tesla_k20())];
            let mut engine = IncrementalEngine::bootstrap(&params, gpus, base).unwrap();
            for &(a, b) in &delta {
                engine.add_edge(a, b);
            }
            engine.flush().unwrap()
        },
    );
}

fn bench_graph_construction() {
    let mg = Metagenome::generate(&MetagenomeConfig::tiny(800, 17));
    time("graph_construction/align_800_seqs", 10, || {
        graph_from_metagenome(&mg, &HomologyConfig::default())
    });
}

fn main() {
    bench_clustering();
    bench_incremental();
    bench_graph_construction();
}
