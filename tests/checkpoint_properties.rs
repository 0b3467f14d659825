//! Crash-recovery properties of the checkpointed executor: a run killed
//! at any crash site resumes to a partition bit-identical to the serial
//! oracle, completed shards are replayed from their sealed runs rather
//! than re-executed, any corrupted or truncated sealed file is *detected*
//! (never silently merged), and a resume against the wrong input or plan
//! refuses with a typed error.

use gpclust::core::multi_gpu::MultiGpuClust;
use gpclust::core::{
    CheckpointConfig, CrashPlan, CrashSite, GpClust, GpClustReport, Plan, SerialShingling,
    ShingleKernel, ShinglingParams, StageTimes, KILL_MARKER,
};
use gpclust::gpu::{DeviceConfig, DeviceError, Gpu};
use gpclust::graph::{Csr, EdgeList, Partition};
use gpclust_support::check::{check, Case};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh checkpoint directory unique to this test invocation.
fn checkpoint_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gpclust-ckpt-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One checkpointed run on a single K20.
fn checkpointed_run(
    g: &Csr,
    params: ShinglingParams,
    cfg: CheckpointConfig,
) -> Result<(Partition, StageTimes), DeviceError> {
    let r = checkpointed_fleet_run(g, params, cfg, &DeviceConfig::tesla_k20(), 1)?;
    Ok((r.partition, r.times))
}

/// One checkpointed run on a fleet of `devices` copies of `device`.
fn checkpointed_fleet_run(
    g: &Csr,
    params: ShinglingParams,
    cfg: CheckpointConfig,
    device: &DeviceConfig,
    devices: usize,
) -> Result<GpClustReport, DeviceError> {
    let gpus = (0..devices)
        .map(|_| Gpu::with_workers(device.clone(), 1))
        .collect();
    MultiGpuClust::new(params, gpus)
        .unwrap()
        .with_checkpoint(cfg)
        .cluster(g)
}

/// The distinct first-level shingles of an unsharded run: a resumed run
/// that lost records (say, the fragments of a split list) can still land
/// on the oracle's partition, but not on this count.
fn resident_first_level_shingles(g: &Csr, params: ShinglingParams) -> usize {
    let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
    let r = GpClust::new(params, gpu).unwrap().cluster(g).unwrap();
    r.first_level_shingles
}

fn assert_killed(err: &DeviceError) {
    let msg = format!("{err}");
    assert!(
        msg.contains(KILL_MARKER),
        "expected injected kill, got {msg}"
    );
}

/// The sealed files currently in a journal dir (runs, and the `.pool`
/// segments of the previous journal format), sorted by name.
fn sealed_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.extension()
                        .is_some_and(|ext| ext == "run" || ext == "pool")
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// A random undirected graph: vertex and edge counts drawn from `n` and
/// `m` (shrinking toward their lower ends).
fn arb_graph(case: &mut Case, n: Range<usize>, m: Range<usize>) -> Csr {
    let n = case.size(n);
    let mut el: EdgeList = case
        .vec(m, |c| (c.range(0..n as u32), c.range(0..n as u32)))
        .into_iter()
        .collect();
    Csr::from_edges(n, &mut el)
}

/// A graph of about 10,000 adjacency elements: each of two shards of it
/// overflows the tiny device's batch capacity (about 3,300 elements), so
/// capacity cuts split lists inside each shard.
fn arb_graph_over_tiny_capacity(case: &mut Case) -> Csr {
    arb_graph(case, 300..400, 5_400..6_000)
}

/// The fleets every crash property runs on: random graphs on one to
/// three K20s (each shard one batch), and a larger graph on one and two
/// tiny devices, whose shards each cut into batches that split lists.
fn crash_rows(case: &mut Case) -> Vec<(Csr, DeviceConfig, usize)> {
    let small = arb_graph(case, 8..40, 80..160);
    let devices = case.range(1usize..4);
    let big = arb_graph_over_tiny_capacity(case);
    let tiny = DeviceConfig::tiny_test_device();
    vec![
        (small, DeviceConfig::tesla_k20(), devices),
        (big.clone(), tiny.clone(), 1),
        (big, tiny, 2),
    ]
}

/// The tentpole acceptance: kill the run at every crash site in turn,
/// on fleets of one to three devices; each resume completes to the
/// serial oracle's partition, and a resume after a manifest commit
/// replays exactly the committed shards from disk (the RecoveryReport
/// counters prove no completed shard re-executed) — every fleet
/// commits per shard, also when capacity cuts split lists inside a
/// shard.
#[test]
fn kill_at_any_site_then_resume_matches_the_serial_oracle() {
    check(3, |case| {
        let rows = crash_rows(case);
        let seed = case.range(0u64..1000);
        let base = ShinglingParams::light(seed);
        let params = base.with_shards(2);
        for (g, device, devices) in &rows {
            let oracle = SerialShingling::new(base).unwrap().cluster(g);
            let shingles = resident_first_level_shingles(g, base);
            let split_lists = device.name != DeviceConfig::tesla_k20().name;
            for (site, occurrence) in [
                (CrashSite::ShardSeal, 1),
                (CrashSite::ManifestCommit, 1),
                (CrashSite::Merge, 1),
            ] {
                let row = format!("kill at {site:?} on {} x{devices}", device.name);
                let dir = checkpoint_dir("kill");
                let cfg = CheckpointConfig::new(&dir)
                    .with_crash(CrashPlan::scheduled().with_kill(site, occurrence));
                let err = checkpointed_fleet_run(g, params, cfg, device, *devices).unwrap_err();
                assert_killed(&err);
                let resume = CheckpointConfig::new(&dir).resuming();
                let r = checkpointed_fleet_run(g, params, resume, device, *devices).unwrap();
                assert_eq!(r.partition, oracle, "{row}");
                assert_eq!(r.first_level_shingles, shingles, "{row}");
                let times = r.times;
                if split_lists {
                    assert!(
                        times.pass_batches[0] > times.shards,
                        "{row}: {} pass-I batches in {} shards",
                        times.pass_batches[0],
                        times.shards
                    );
                }
                let rec = &times.recovery;
                assert_eq!(rec.checksum_failures, 0, "{row}");
                match site {
                    // Sealed but never committed: nothing to replay.
                    CrashSite::ShardSeal => assert_eq!(rec.resumed_shards, 0, "{row}"),
                    // Exactly the one committed shard replays from disk.
                    CrashSite::ManifestCommit => assert_eq!(rec.resumed_shards, 1, "{row}"),
                    // Every pass-I shard committed before the merge died.
                    CrashSite::Merge => assert!(rec.resumed_shards >= 1, "{row}"),
                }
                // finalize retired the journal on success.
                assert!(sealed_files(&dir).is_empty(), "{row}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    });
}

/// Any single corrupted *or* truncated sealed file is caught by
/// checksum verification on resume — the damaged shard re-executes and
/// the partition still matches the oracle — across kernels × shard
/// counts, on a K20 (each shard one batch) and on a tiny device whose
/// capacity cuts split lists inside each shard.
#[test]
fn corrupted_or_truncated_sealed_runs_are_detected_not_merged() {
    check(3, |case| {
        let small = arb_graph(case, 8..40, 80..160);
        let seed = case.range(0u64..1000);
        let truncate = case.bool();
        let big = arb_graph_over_tiny_capacity(case);
        let base = ShinglingParams::light(seed);
        let rows = [
            (small, DeviceConfig::tesla_k20()),
            (big, DeviceConfig::tiny_test_device()),
        ];
        for (g, device) in &rows {
            let oracle = SerialShingling::new(base).unwrap().cluster(g);
            let shingles = resident_first_level_shingles(g, base);
            for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
                for shards in [2u32, 3] {
                    let row = format!(
                        "{kernel:?} {shards} shard(s) on {} truncate={truncate}",
                        device.name
                    );
                    let params = base.with_kernel(kernel).with_shards(shards);
                    let dir = checkpoint_dir("corrupt");
                    // Die at the pass-I merge: every shard is committed
                    // and its sealed files survive on disk.
                    let cfg = CheckpointConfig::new(&dir)
                        .with_crash(CrashPlan::scheduled().with_kill(CrashSite::Merge, 1));
                    let err = checkpointed_fleet_run(g, params, cfg, device, 1).unwrap_err();
                    assert_killed(&err);
                    let files = sealed_files(&dir);
                    let damaged = if let Some(f) = files.first() {
                        let bytes = std::fs::read(f).unwrap();
                        if truncate {
                            std::fs::write(f, &bytes[..bytes.len() - 5]).unwrap();
                        } else {
                            let mut bytes = bytes;
                            let at = bytes.len() - 5;
                            bytes[at] ^= 0x40;
                            std::fs::write(f, &bytes).unwrap();
                        }
                        true
                    } else {
                        false
                    };
                    let resume = CheckpointConfig::new(&dir).resuming();
                    let r = checkpointed_fleet_run(g, params, resume, device, 1).unwrap();
                    assert_eq!(r.partition, oracle, "{row}");
                    assert_eq!(r.first_level_shingles, shingles, "{row}");
                    if damaged {
                        assert_eq!(r.times.recovery.checksum_failures, 1, "{row}");
                    }
                    std::fs::remove_dir_all(&dir).ok();
                }
            }
        }
    });
}

/// Resuming against a different input graph or different plan axes is a
/// typed refusal naming what disagrees — never a silent merge of
/// incompatible state. A different kernel is not a different plan axis.
#[test]
fn resume_refuses_wrong_input_and_wrong_axes() {
    let g = {
        let mut el: EdgeList = (0..30u32).map(|v| (v, (v + 1) % 30)).collect();
        Csr::from_edges(30, &mut el)
    };
    let other = {
        let mut el: EdgeList = (0..30u32).map(|v| (v, (v + 2) % 30)).collect();
        Csr::from_edges(30, &mut el)
    };
    let params = ShinglingParams::light(5).with_shards(2);
    let dir = checkpoint_dir("refuse");
    let cfg = CheckpointConfig::new(&dir)
        .with_crash(CrashPlan::scheduled().with_kill(CrashSite::ManifestCommit, 1));
    let err = checkpointed_run(&g, params, cfg).unwrap_err();
    assert_killed(&err);

    // Same plan, different graph: fingerprint mismatch.
    let err = checkpointed_run(&other, params, CheckpointConfig::new(&dir).resuming()).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("input fingerprint mismatch"), "{msg}");

    // Same graph, different seed axis: axes mismatch naming it.
    let err = checkpointed_run(
        &g,
        ShinglingParams::light(6).with_shards(2),
        CheckpointConfig::new(&dir).resuming(),
    )
    .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("plan axes mismatch on \"seed\""), "{msg}");

    // Resume with nothing there at all.
    let empty = checkpoint_dir("refuse-empty");
    let err = checkpointed_run(&g, params, CheckpointConfig::new(&empty).resuming()).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("nothing to resume"), "{msg}");

    // A journal of the previous format (version 1, entry groups keyed by
    // plan signature) is refused as a corrupt manifest, never read.
    std::fs::create_dir_all(&empty).unwrap();
    let v1 = "{\"version\": 1, \"fingerprint\": 0, \"axes\": {}, \"groups\": []}";
    std::fs::write(empty.join("manifest.json"), v1).unwrap();
    let err = checkpointed_run(&g, params, CheckpointConfig::new(&empty).resuming()).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("corrupt manifest"), "{msg}");
    assert!(msg.contains("unsupported manifest version 1"), "{msg}");

    // The kernel is no axis: the journal written under the default fused
    // kernel resumes under the sort kernel to the oracle's partition, and
    // the resume retires the journal.
    let other = params.with_kernel(ShingleKernel::SortCompact);
    let (got, _) = checkpointed_run(&g, other, CheckpointConfig::new(&dir).resuming()).unwrap();
    assert_eq!(got, SerialShingling::new(params).unwrap().cluster(&g));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// Manifests in older formats record axes this build no longer has:
/// the pipeline-mode, aggregation, components and kernel axes, and the
/// host-sort threshold `par_sort_min`. Resume compares only the axes this
/// build records, and the sealed runs are the same bytes under every
/// value of the removed ones, so the journal replays its committed shards
/// to the oracle's partition under either kernel; a seed mismatch still
/// refuses, naming the axis.
#[test]
fn manifest_recording_removed_axes_still_resumes() {
    let g = gos_shaped_graph(400, 8, 17);
    let params = ShinglingParams::light(5).with_shards(2);
    let oracle = SerialShingling::new(params).unwrap().cluster(&g);
    let (c1, c2, s1, s2, seed) = (params.c1, params.c2, params.s1, params.s2, params.seed);
    // The axes object exactly as each older format wrote it for these
    // parameters: with `--overlap --aggregate device --components
    // device`, and with only the host-sort threshold removed since.
    let with_schedule_axes = format!(
        "\"axes\": {{\"aggregation\": \"Device\",\"budget_bytes\": \"none\",\
         \"budget_shards\": \"2\",\"c1\": \"{c1}\",\"c2\": \"{c2}\",\
         \"components\": \"Device\",\"kernel\": \"SortCompact\",\
         \"mode\": \"Overlapped\",\"n_devices\": \"1\",\"par_sort_min\": \"32768\",\
         \"s1\": \"{s1}\",\"s2\": \"{s2}\",\"seed\": \"{seed}\"}}"
    );
    let with_par_sort_min = format!(
        "\"axes\": {{\"budget_bytes\": \"none\",\"budget_shards\": \"2\",\
         \"c1\": \"{c1}\",\"c2\": \"{c2}\",\"kernel\": \"SortCompact\",\
         \"n_devices\": \"1\",\"par_sort_min\": \"32768\",\
         \"s1\": \"{s1}\",\"s2\": \"{s2}\",\"seed\": \"{seed}\"}}"
    );
    for legacy in [with_schedule_axes, with_par_sort_min] {
        let dir = checkpoint_dir("removed-axes");
        let cfg = CheckpointConfig::new(&dir)
            .with_crash(CrashPlan::scheduled().with_kill(CrashSite::Merge, 1));
        assert_killed(&checkpointed_run(&g, params, cfg).unwrap_err());

        let manifest = dir.join("manifest.json");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let start = text.find("\"axes\": {").expect("manifest records axes");
        let end = start + text[start..].find('}').unwrap() + 1;
        let text = format!("{}{legacy}{}", &text[..start], &text[end..]);
        std::fs::write(&manifest, text).unwrap();

        let other_seed = ShinglingParams::light(6).with_shards(2);
        let err =
            checkpointed_run(&g, other_seed, CheckpointConfig::new(&dir).resuming()).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("plan axes mismatch on \"seed\""), "{msg}");
        // The journal was sealed under the default fused kernel; it
        // resumes under the sort kernel and replays both shards.
        let other_kernel = params.with_kernel(ShingleKernel::SortCompact);
        let (got, times) =
            checkpointed_run(&g, other_kernel, CheckpointConfig::new(&dir).resuming()).unwrap();
        assert_eq!(got, oracle, "{legacy}");
        assert_eq!(times.recovery.resumed_shards, 2, "{}", times.recovery);
        assert_eq!(times.recovery.checksum_failures, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A manifest entry recording another element range than its shard now
/// covers — which is how an entry journaled under an older shard carving
/// looks — is a miss, not damage: the resume re-executes exactly that
/// shard, replays the others from disk to the oracle's partition, and
/// finalize leaves none of the stale entry's sealed files behind.
#[test]
fn stale_shard_range_reexecutes_and_retires_its_files() {
    let g = gos_shaped_graph(400, 8, 17);
    let base = ShinglingParams::light(5);
    let oracle = SerialShingling::new(base).unwrap().cluster(&g);
    let est = Plan::estimate_pass_resident_bytes(g.offsets(), base.s1, base.c1);
    let params = base.with_mem_budget(est / 3);
    let dir = checkpoint_dir("stale-range");
    let cfg = CheckpointConfig::new(&dir)
        .with_crash(CrashPlan::scheduled().with_kill(CrashSite::Merge, 1));
    assert_killed(&checkpointed_run(&g, params, cfg).unwrap_err());
    assert!(
        !sealed_files(&dir).is_empty(),
        "every shard sealed before the kill"
    );

    // Stretch the first entry's range by one element.
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let start = text.find("\"hi\": ").expect("manifest records a range") + 6;
    let end = start + text[start..].find(',').unwrap();
    let hi: u64 = text[start..end].parse().unwrap();
    let text = format!("{}{}{}", &text[..start], hi + 1, &text[end..]);
    std::fs::write(&manifest, text).unwrap();

    let (got, times) =
        checkpointed_run(&g, params, CheckpointConfig::new(&dir).resuming()).unwrap();
    assert_eq!(got, oracle);
    assert!(times.shards >= 2, "the budget must shard: {}", times.shards);
    let rec = &times.recovery;
    assert_eq!(rec.resumed_shards, times.shards - 1, "{rec}");
    assert_eq!(rec.checksum_failures, 0, "{rec}");
    let left = sealed_files(&dir);
    assert!(left.is_empty(), "sealed files survived finalize: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A deterministic GOS-shaped graph (copy of the oocore helper): a few
/// high-degree family hubs, a long tail of small lists.
fn gos_shaped_graph(n: usize, avg_deg: usize, seed: u64) -> Csr {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let m = n * avg_deg / 2;
    let mut el: EdgeList = (0..m)
        .map(|_| {
            let a = next() as usize % n;
            let b = ((next() as usize % n) * (next() as usize % n)) / n.max(1);
            (a as u32, (b % n) as u32)
        })
        .collect();
    Csr::from_edges(n, &mut el)
}

/// The CI crash-recovery soak: on a GOS-shaped input, kill the run with
/// a different random crash seed on every attempt, resuming each time,
/// until a run survives — then diff against the resident oracle.
/// Committed shards accumulate monotonically across attempts, so the
/// soak converges long before the attempt cap.
#[test]
fn kill_resume_soak_on_gos_shaped_input_matches_resident_oracle() {
    let g = gos_shaped_graph(2_000, 6, 17);
    let base = ShinglingParams::light(21);
    let oracle = {
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
        GpClust::new(base, gpu).unwrap().cluster(&g).unwrap()
    };
    let params = base.with_shards(3);
    let dir = checkpoint_dir("soak");
    let mut attempt = 0u64;
    let mut resumed_total = 0u64;
    let outcome = loop {
        let mut cfg =
            CheckpointConfig::new(&dir).with_crash(CrashPlan::random(1000 + attempt, 0.5));
        if attempt > 0 {
            cfg = cfg.resuming();
        }
        match checkpointed_run(&g, params, cfg) {
            Ok(out) => break out,
            Err(err) => assert_killed(&err),
        }
        attempt += 1;
        assert!(attempt < 60, "soak failed to converge in 60 attempts");
        // Count what the next resume can reuse before it runs.
        resumed_total += 1;
    };
    let (got, times) = outcome;
    assert_eq!(got, oracle.partition);
    assert!(resumed_total >= 1, "the soak never actually crashed");
    assert_eq!(times.recovery.checksum_failures, 0);
    assert!(sealed_files(&dir).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
