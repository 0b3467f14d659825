//! Integration tests of the extension modules through the facade:
//! MCL triangulation, multi-GPU, profile expansion, and the DNA-read
//! generation path.

use gpclust::core::mcl::{mcl_clusters, MclParams};
use gpclust::core::multi_gpu::MultiGpuClust;
use gpclust::core::quality::ConfusionCounts;
use gpclust::core::{GpClust, ShinglingParams};
use gpclust::gpu::{DeviceConfig, Gpu};
use gpclust::graph::Partition;
use gpclust::homology::{graph_from_metagenome, HomologyConfig};
use gpclust::seqsim::metagenome::{Metagenome, MetagenomeConfig};

fn dataset(n: usize, seed: u64) -> (Metagenome, gpclust::graph::Csr) {
    let mg = Metagenome::generate(&MetagenomeConfig::tiny(n, seed));
    let (g, _) = graph_from_metagenome(&mg, &HomologyConfig::default());
    (mg, g)
}

#[test]
fn three_methods_triangulate_on_real_graph() {
    let (mg, g) = dataset(500, 201);
    let benchmark = Partition::from_membership(mg.truth.clone());

    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let shingling = GpClust::new(ShinglingParams::light(201), gpu)
        .unwrap()
        .cluster(&g)
        .unwrap()
        .partition
        .filter_min_size(4);
    let mcl = mcl_clusters(&g, &MclParams::default()).filter_min_size(4);
    let gos = gpclust::core::kneighbor_clusters(&g, 5).filter_min_size(4);

    for (name, p) in [("shingling", &shingling), ("mcl", &mcl), ("gos", &gos)] {
        let s = ConfusionCounts::count(p, &benchmark).scores();
        assert!(s.ppv > 0.85, "{name} PPV {:.3}", s.ppv);
        assert!(p.n_groups() > 0, "{name} found nothing");
    }
}

#[test]
fn multi_gpu_matches_single_on_real_graph() {
    let (_, g) = dataset(300, 203);
    let params = ShinglingParams::light(7);
    let single = GpClust::new(params, Gpu::new(DeviceConfig::tesla_k20()))
        .unwrap()
        .cluster(&g)
        .unwrap()
        .partition;
    let gpus = (0..2)
        .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
        .collect();
    let multi = MultiGpuClust::new(params, gpus)
        .unwrap()
        .cluster(&g)
        .unwrap();
    assert_eq!(multi.partition, single);
}

#[test]
fn dna_generated_dataset_clusters_like_direct() {
    let cfg = MetagenomeConfig::tiny(300, 205);
    let via = Metagenome::generate_via_dna(&cfg, 45);
    let (g, _) = graph_from_metagenome(&via, &HomologyConfig::default());
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let p = GpClust::new(ShinglingParams::light(3), gpu)
        .unwrap()
        .cluster(&g)
        .unwrap()
        .partition
        .filter_min_size(4);
    let benchmark = Partition::from_membership(via.truth.clone());
    let s = ConfusionCounts::count(&p, &benchmark).scores();
    assert!(s.ppv > 0.8, "DNA-path PPV {:.3}", s.ppv);
    assert!(p.n_groups() > 0);
}

#[test]
fn timeline_model_consistency_on_real_pipeline() {
    // The stream pair's timeline against the clock's per-category totals:
    // the serialized device path is their sum, and the pipelined makespan
    // lies between the busier engine's own work and that sum.
    let (_, g) = dataset(250, 206);
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let report = GpClust::new(ShinglingParams::light(11), gpu)
        .unwrap()
        .cluster(&g)
        .unwrap();
    let t = report.times;
    let serial = t.device_serialized();
    assert_eq!(serial, report.counters.serialized_device_seconds());
    let pipe = t.device_pipelined;
    assert!(pipe < serial, "{pipe} vs {serial}");
    assert!(pipe >= t.gpu.max(t.h2d + t.d2h) - 1e-6, "{pipe} vs {t:?}");
}
