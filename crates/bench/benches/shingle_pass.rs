//! Benchmarks of one shingling pass — serial vs device — of the CPU
//! aggregation stage, and of Pass II reduced to marks into Phase III, on
//! a homology-shaped planted graph.

use gpclust_bench::time;
use gpclust_core::aggregate::{aggregate, SortedRun, StreamAggregator};
use gpclust_core::minwise::{unpack_element, HashFamily};
use gpclust_core::serial::{shingle_pass, shingle_pass_foreach};
use gpclust_core::shingle::AdjacencyInput;
use gpclust_core::{
    DistinctLists, Executor, PassInput, Plan, RecoveryReport, SerialShingling, ShingleKernel,
    ShinglingParams, Sink,
};
use gpclust_gpu::{DeviceConfig, Gpu};
use gpclust_graph::components::absorb_labels;
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::{Csr, Partition, UnionFind};
use std::collections::HashSet;

/// One gathered device pass through the plan/executor layer.
fn device_pass(gpu: &Gpu, g: &Csr, family: &HashFamily, kernel: ShingleKernel) {
    let params = ShinglingParams::light(0).with_kernel(kernel);
    let plan = Plan::lower(&params, std::slice::from_ref(gpu)).unwrap();
    let pass = plan.pass(2, plan.aggregation, plan.capacity, g.offsets());
    let mut rec = RecoveryReport::default();
    Executor::new(gpu)
        .run(&pass, PassInput::of(g), family, &mut rec, Sink::Gather)
        .unwrap();
}

fn graph() -> Csr {
    let sizes = PlantedConfig::zipf_groups(8_000, 4, 400, 1.4, 3);
    planted_partition(&PlantedConfig {
        group_sizes: sizes,
        n_noise_vertices: 2_000,
        p_intra: 0.8,
        max_intra_degree: 60.0,
        inter_edges_per_vertex: 0.1,
        seed: 3,
    })
    .graph
}

fn bench_pass(g: &Csr, family: &HashFamily) {
    time("shingle_pass_c20_s2/serial", 10, || {
        shingle_pass(g, 2, family)
    });
    time("shingle_pass_c20_s2/serial_streaming", 10, || {
        let mut sink = 0u64;
        shingle_pass_foreach(g, 2, family, |_, _, p| sink ^= p[0]);
        sink
    });
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    time("shingle_pass_c20_s2/device", 10, || {
        device_pass(&gpu, g, family, ShingleKernel::SortCompact)
    });
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    time("shingle_pass_c20_s2/device_fused_select", 10, || {
        device_pass(&gpu, g, family, ShingleKernel::FusedSelect)
    });
}

fn bench_aggregation(g: &Csr, family: &HashFamily) {
    let raw = shingle_pass(g, 2, family);
    time("aggregation/grouped_fast_path", 10, || aggregate(&raw));
    // Ungrouped (generic) path for comparison: same records, merge sort on.
    let mut ungrouped = gpclust_core::shingle::RawShingles::new(2);
    ungrouped.append(&raw);
    time("aggregation/generic_path", 10, || aggregate(&ungrouped));
    time("aggregation/stream_aggregator", 10, || {
        let mut agg = StreamAggregator::new(2);
        shingle_pass_foreach(g, 2, family, |t, n, p| {
            agg.push(t, n, p.iter().map(|&p| unpack_element(p)))
        });
        agg.finish()
    });
}

/// Pass II over the unsettled distinct member lists of the serial Pass I,
/// into Phase III: the device reduces each batch's trials to
/// selected-member marks and the host unions them. Prints how many
/// distinct lists (and members) the owner closure leaves unsettled, times
/// their construction, settling included, and asserts the partition equals
/// the serial oracle's.
fn bench_pass2_marks(g: &Csr) {
    let params = ShinglingParams::light(7);
    let mut agg = StreamAggregator::new(params.s1);
    shingle_pass_foreach(g, params.s1, &params.family_pass1(), |t, n, p| {
        agg.push(t, n, p.iter().map(|&p| unpack_element(p)))
    });
    let first = agg.finish();
    let distinct: HashSet<&[u32]> = (0..first.len())
        .map(|f| first.generators(f))
        .filter(|list| list.len() >= params.s2)
        .collect();
    time("pass2/distinct_lists", 10, || {
        DistinctLists::new(&first, params.s2, g.n())
    });
    let lists = DistinctLists::new(&first, params.s2, g.n());
    println!(
        "pass2/distinct_lists: {} distinct lists of {} members, {} unsettled of {}",
        distinct.len(),
        distinct.iter().map(|list| list.len()).sum::<usize>(),
        lists.len(),
        lists.flat().len()
    );
    let gpu = Gpu::new(DeviceConfig::tesla_k20());
    let plan = Plan::lower(&params, std::slice::from_ref(&gpu)).unwrap();
    let pass = plan.pass(params.s2, plan.aggregation, plan.capacity, lists.offsets());
    let family = params.family_pass2();
    let partition = || -> Partition {
        let report = Executor::new(&gpu)
            .run(
                &pass,
                PassInput::of(&lists),
                &family,
                &mut RecoveryReport::default(),
                Sink::Clusters(&lists),
            )
            .unwrap();
        let mut uf = UnionFind::new(g.n());
        absorb_labels(&mut uf, &report.clusters.unwrap().labels);
        lists
            .finish(uf, params.s2, params.c2, &SortedRun::default())
            .0
    };
    assert_eq!(
        partition(),
        SerialShingling::new(params).unwrap().cluster(g),
        "pass2/marks must cluster like the serial oracle"
    );
    time("pass2/marks", 10, partition);
}

fn main() {
    let g = graph();
    let family = HashFamily::new(20, 7);
    bench_pass(&g, &family);
    bench_aggregation(&g, &family);
    bench_pass2_marks(&g);
}
