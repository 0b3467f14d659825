//! Properties of the fused hash-transform + segmented top-s selection
//! kernel (`ShingleKernel::FusedSelect`) against the segmented sort +
//! compaction oracle (`ShingleKernel::SortCompact`).
//!
//! The contract: only the s smallest hashes per adjacency list survive a
//! shingling trial, so selecting them directly must be *bit-identical* to
//! fully sorting and compacting — for arbitrary graphs, forced small batch
//! capacities and worker counts. Everything
//! downstream (aggregation, MCL, Table I) may then treat the kernels as
//! interchangeable and pick the cheap one.
//!
//! Pass II reduces on the device: the mark kernel
//! (`thrust::transform_select_mark_on`) must mark exactly the positions
//! the fused kernel selects, and a Pass II cut into batches with boundary
//! fragments must still cluster like the serial oracle.
//!
//! End-to-end partition equivalence across the full plan matrix
//! (kernels × device counts × fault rates) lives in
//! `tests/plan_properties.rs`; this suite keeps the record-level and
//! device-cost cases unique to the kernel comparison.

use gpclust::core::batch::plan_batches;
use gpclust::core::minwise::HashFamily;
use gpclust::core::shingle::{AdjacencyInput, RawShingles};
use gpclust::core::{
    DistinctLists, Executor, GpClust, PassInput, Plan, RecoveryReport, SerialShingling,
    ShingleKernel, ShinglingParams, Sink,
};
use gpclust::gpu::thrust::{transform_select_mark_on, transform_select_on};
use gpclust::gpu::{DeviceConfig, FaultPlan, Gpu, KernelCost};
use gpclust::graph::generate::{planted_partition, PlantedConfig};
use gpclust::graph::Csr;
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

/// Materialize one device pass's records under an explicit batch capacity
/// (two runs sharing a capacity share a batch plan — the precondition for
/// record-level comparison across kernels): the plan's in-order pass
/// merges boundary fragments on the host, and its gather sink returns
/// every record, grouped, in emission order.
fn records_at_capacity(
    gpu: &Gpu,
    g: &Csr,
    s: usize,
    family: &HashFamily,
    kernel: ShingleKernel,
    capacity: usize,
) -> RawShingles {
    let params = ShinglingParams::light(0).with_kernel(kernel);
    let plan = Plan::lower(&params, std::slice::from_ref(gpu)).unwrap();
    let pass = plan.pass(s, plan.aggregation, capacity, g.offsets());
    let mut rec = RecoveryReport::default();
    let raw = Executor::new(gpu)
        .run(&pass, PassInput::of(g), family, &mut rec, Sink::Gather)
        .unwrap()
        .raw;
    assert!(raw.is_grouped());
    raw
}

/// Record-level bit-identity under a *shared forced capacity*: with the
/// batch plan pinned, the fused kernel emits exactly the sort path's
/// `(trial, node, top-s pairs)` stream — order included — across small
/// capacities (many splits + boundary carries) and worker counts.
#[test]
fn fused_select_records_bit_identical_at_forced_capacity() {
    check(12, |case| {
        let sizes = case.vec(1..4, |c| c.range(10usize..60));
        let graph_seed = case.range(0u64..500);
        let family_seed = case.range(0u64..500);
        let capacity = case.range(128usize..2048);
        let s = case.range(1usize..4);
        let workers = case.range(1usize..4);
        let g = planted(sizes, 10, graph_seed);
        let family = HashFamily::new(8, family_seed ^ 0xF00D);
        let sort_gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), workers);
        let sort = records_at_capacity(
            &sort_gpu,
            &g,
            s,
            &family,
            ShingleKernel::SortCompact,
            capacity,
        );
        let select_gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), workers);
        let select = records_at_capacity(
            &select_gpu,
            &g,
            s,
            &family,
            ShingleKernel::FusedSelect,
            capacity,
        );
        assert_eq!(sort, select);
        // Same records from strictly less device work: no sort, no gather,
        // no 8-byte packed workspace traffic; the same 4-byte element ids
        // cross the bus.
        let (sc, fc) = (sort_gpu.counters(), select_gpu.counters());
        assert!(fc.kernel_launches < sc.kernel_launches);
        assert!(fc.kernel_seconds < sc.kernel_seconds);
        assert_eq!(fc.d2h_bytes, sc.d2h_bytes);
    });
}

/// The mark kernel against the fused select kernel on strictly ascending
/// segments: a marked segment's marks are the union over trials of the
/// positions `transform_select_on` selects by the packed `(hash,
/// element)` key, every other mark reads 0, and an unmarked segment
/// writes that kernel's bytes. Segments run shorter than s, exactly s,
/// and one runs longer than a task's `64 Ki / trials` elements; the
/// hashes tie often on distinct ids. All trials take one launch, charged
/// at `trials × elements`.
#[test]
fn mark_kernel_marks_the_union_of_the_selected_positions() {
    check(40, |case| {
        let trials = case.range(1usize..24);
        let s = case.range(1usize..5);
        let task_elems = 64 * 1024 / trials;
        let n_segs = case.range(1usize..10);
        let long = case.range(0..n_segs);
        let mut offsets = vec![0u64];
        let mut sel = vec![0usize];
        let mut data: Vec<u32> = Vec::new();
        for i in 0..n_segs {
            let len = match case.range(0..3u32) {
                _ if i == long => task_elems + case.range(1usize..50),
                0 => case.range(0..s),
                1 => s,
                _ => case.range(s..40),
            };
            let mut v = case.range(0..1000u32);
            for _ in 0..len {
                v += case.range(1..4u32);
                data.push(v);
            }
            offsets.push(data.len() as u64);
            let k = match len >= s {
                true => s,
                false if case.bool() => len,
                false => 0,
            };
            sel.push(sel[i] + k);
        }
        let lo = case.range(0..=n_segs);
        let marked = lo..case.range(lo..=n_segs);
        // Few hash values, so distinct ids tie on the hash.
        let hash = |t: usize, v: u32| (v / 3).wrapping_mul(2 * t as u32 + 1) % 7;
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), case.range(1usize..4));
        let stream = gpu.stream("compute");
        let input = stream.htod_async(&data).unwrap();

        // The fused kernel's selections, every segment, every trial.
        let per_trial = sel[n_segs];
        let mut selected = gpu.alloc::<u32>(trials * per_trial).unwrap();
        transform_select_on(
            &stream,
            &input,
            &offsets,
            &sel,
            trials,
            &mut selected,
            |t, v: u32| (hash(t, v) as u64) << 32 | v as u64,
            |key| key as u32,
        );
        let selected = stream.dtoh_async(&selected);
        let mut expect_marks = vec![0u8; data.len()];
        let mut expect_out = Vec::new();
        for t in 0..trials {
            for i in 0..n_segs {
                let chosen = &selected[t * per_trial + sel[i]..t * per_trial + sel[i + 1]];
                if marked.contains(&i) {
                    let seg = &data[offsets[i] as usize..offsets[i + 1] as usize];
                    for v in chosen {
                        let pos = seg.binary_search(v).unwrap();
                        expect_marks[offsets[i] as usize + pos] = 1;
                    }
                } else {
                    expect_out.extend_from_slice(chosen);
                }
            }
        }

        let mut out = gpu.alloc::<u32>(expect_out.len()).unwrap();
        // Every mark byte is written, whatever the buffer held.
        let mut marks = stream.htod_async(&vec![0xAAu8; data.len()]).unwrap();
        gpu.reset_counters();
        transform_select_mark_on(
            &stream,
            &input,
            &offsets,
            &sel,
            marked.clone(),
            trials,
            &mut out,
            &mut marks,
            hash,
        );
        let snap = gpu.counters();
        assert_eq!(stream.dtoh_async(&marks), expect_marks, "marked {marked:?}");
        assert_eq!(stream.dtoh_async(&out), expect_out, "marked {marked:?}");
        assert_eq!(snap.kernel_launches, 1);
        let charged =
            gpu.model_kernel_seconds(trials * data.len(), &KernelCost::segmented_select());
        assert!((snap.kernel_seconds - charged).abs() < 1e-9);
    });
}

/// A tiny device cuts Pass II into several batches whose cuts split
/// member lists, so boundary fragments download per trial beside the
/// marks. Under both kernels, fault-free and with every device op
/// failing half the time, the partition is the serial oracle's and the
/// second-level record count is |E″|.
#[test]
fn pass_two_in_fragmented_batches_matches_the_serial_oracle() {
    let g = planted(vec![120, 90, 75, 54, 36], 40, 2013);
    for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
        let params = ShinglingParams::light(17).with_kernel(kernel);
        let run = SerialShingling::new(params).unwrap().run(&g);
        let oracle = gpclust::core::report::partition_clusters(g.n(), &run.first, &run.second);
        let lists = DistinctLists::new(&run.first, params.s2, g.n());
        assert!(
            lists.len() >= 400,
            "settling must leave Pass II lists to run"
        );
        for faults in [None, Some(FaultPlan::random(7, 0.5))] {
            let what = format!("{kernel:?}, faults {faults:?}");
            let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
            if let Some(plan) = faults.clone() {
                gpu.set_fault_plan(plan);
            }
            let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
            let pass2 = report.batch_stats[1];
            assert!(pass2.n_batches >= 3, "{what}: {pass2:?}");
            let batches = plan_batches(lists.offsets(), pass2.capacity_elems as usize);
            assert!(
                batches.iter().any(|b| b.first_is_fragment(lists.offsets())),
                "{what}: a cut must split a list"
            );
            assert_eq!(report.partition, oracle, "{what}");
            assert_eq!(
                report.second_level_records as usize,
                run.second.n_edges(),
                "{what}"
            );
            if faults.is_some() {
                assert!(report.times.recovery.retries > 0, "{what}");
            }
        }
    }
}
