//! Multi-GPU gpClust — the scale-out direction the paper's conclusions
//! point toward ("further performance could be achieved ...").
//!
//! There is one driver, [`GpClust`]: a single device is a fleet of one,
//! and [`MultiGpuClust::new`] builds a fleet of N. What makes every pass a
//! fleet pass is `deal`: it hands a pass's batch ids to the surviving
//! devices in capability-weighted shares and runs one [`Executor`] per
//! device on its **own host thread** (devices run concurrently on real
//! hardware, so the host drives them concurrently too) over a
//! [`crate::plan::PassPlan::subplan`] of the shared batch list. Because a
//! list can be split across *devices* (not just batches), the sub-plans
//! run with deferred fragment handling
//! ([`crate::plan::FragmentMode::Defer`]): boundary fragments come back
//! flagged and pool on the host, where [`crate::aggregate::fragment_run`]
//! merges them. That merge is insensitive to record order and to
//! duplicates (fragments are re-sorted and deduped), which is what makes
//! the device-order merge sound.
//!
//! * Pass I gathers ([`Sink::Gather`]): every device packs its complete
//!   records into sorted runs as they stream.
//! * Pass II streams into Phase III on every device ([`Sink::Clusters`]):
//!   each device unions its own complete records in a host union–find,
//!   and `deal` absorbs each device's vertex-id labels
//!   ([`absorb_labels`]).
//!
//! Device time is modeled as the **maximum** over devices; transfer time
//! likewise. Each device runs its share on a compute/copy stream pair;
//! its stream makespans add up over a pass's shards, and the fleet's is
//! the busiest device's.

use crate::aggregate::SortedRun;
use crate::autotune::{apportion, capability_shares, device_weights};
use crate::batch::plan_batches_range;
use crate::exec::{Executor, PassInput, PassReport, Sink};
use crate::minwise::HashFamily;
use crate::params::ShinglingParams;
use crate::pipeline::{GpClust, GpClustReport};
use crate::plan::{PassPlan, Plan};
use crate::shingle::RawShingles;
use crate::timing::RecoveryReport;
use gpclust_gpu::{DeviceError, Gpu};
use gpclust_graph::components::absorb_labels;
use gpclust_graph::UnionFind;
use std::time::Instant;

/// The N-device constructor of [`GpClust`].
pub struct MultiGpuClust;

impl MultiGpuClust {
    /// A [`GpClust`] driver over `gpus` (at least one).
    #[allow(clippy::new_ret_no_self)] // constructs the one driver type
    pub fn new(params: ShinglingParams, gpus: Vec<Gpu>) -> Result<GpClust, String> {
        params.validate()?;
        if gpus.is_empty() {
            return Err("at least one device required".into());
        }
        Ok(GpClust::over(params, gpus))
    }
}

/// A fleet run's report — the one report type.
pub type MultiGpuReport = GpClustReport;

/// What a dealt pass handed back, pooled over every device and round.
pub(crate) struct Dealt {
    /// Complete-record runs ([`Sink::Gather`]), device order per round.
    pub(crate) runs: Vec<SortedRun>,
    /// Boundary fragments, still to reconcile.
    pub(crate) raw: RawShingles,
    /// Every device's Phase-III labels absorbed ([`Sink::Clusters`]).
    pub(crate) labels: Option<UnionFind>,
    /// Phase-III complete records streamed, counted once per owner.
    pub(crate) records: u64,
    /// Pipelined makespan per device.
    pub(crate) makespan: Vec<f64>,
}

/// The slowest device's figure: devices run concurrently, so a fleet
/// takes as long as its busiest card.
pub(crate) fn slowest(per_device: &[f64]) -> f64 {
    per_device.iter().fold(0.0f64, |a, &b| a.max(b))
}

/// Add one dealt pass's per-device figures to running totals.
pub(crate) fn accumulate(total: &mut [f64], per_device: &[f64]) {
    for (t, x) in total.iter_mut().zip(per_device) {
        *t += x;
    }
}

/// Run batches `ids` of `pass` across the surviving devices, each
/// device's executor feeding the sink `sink` builds.
///
/// Rounds of capability-weighted dealing over the survivors; a device
/// lost mid-round reports its unfinished batches, which re-queue for the
/// next round (a failed batch left nothing behind, so a re-run never
/// duplicates — bar Phase III's repeated unions of exact complete
/// records). When the fleet's capacity changed (e.g. the smallest card
/// died) the remaining element ranges re-cut into batches sized for the
/// survivors ([`plan_batches_range`]; sound because fragment
/// reconciliation is insensitive to batch boundaries), keeping the
/// pass's backoff scaling. Any other error is fatal, typed.
#[allow(clippy::too_many_arguments)] // one call per pass or shard
pub(crate) fn deal<'s>(
    gpus: &[Gpu],
    params: &ShinglingParams,
    plan: &Plan,
    pass: &PassPlan,
    ids: std::ops::Range<usize>,
    input: PassInput<'_>,
    family: &HashFamily,
    sink: &(dyn Fn() -> Sink<'s> + Sync),
    recovery: &mut RecoveryReport,
) -> Result<Dealt, DeviceError> {
    let mut pass = pass.clone();
    let turn = ids.start;
    let mut pending: Vec<usize> = ids.collect();
    let mut out = Dealt {
        runs: Vec::new(),
        raw: RawShingles::new(pass.s),
        labels: None,
        records: 0,
        makespan: vec![0.0; gpus.len()],
    };
    while !pending.is_empty() {
        let mut alive: Vec<(usize, &Gpu)> = gpus
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_lost())
            .collect();
        if alive.is_empty() {
            return Err(DeviceError::DeviceLost {
                device: gpus.iter().position(|g| g.is_lost()).unwrap_or(0) as u32,
            });
        }
        // Pick the deal up where the previous shard's left off, so a pass
        // carved into short shards does not pile onto the first devices.
        let first = turn % alive.len();
        alive.rotate_left(first);
        // Capability-proportional dealing, recomputed per round so a
        // device lost in an earlier round holds weight 0 and a fleet
        // reduced to its slower members re-normalizes.
        let fleet_shares = capability_shares(&device_weights(gpus, plan.kernel, family.len()));
        let alive_shares: Vec<f64> = alive.iter().map(|&(d, _)| fleet_shares[d]).collect();
        let mut shares = weighted_shares(&pending, &alive_shares);
        pending.clear();
        let run = |gpu: &Gpu, share: Vec<usize>| {
            let mut dev_rec = RecoveryReport::default();
            Executor::new(gpu)
                .run(&pass.subplan(share), input, family, &mut dev_rec, sink())
                .map(|report| (report, dev_rec))
        };
        // A fleet runs one host thread per device. A lone survivor runs on
        // the calling thread: its record buffers then share the caller's
        // allocator arena instead of pinning a second one, which kept a
        // fleet of one's peak RSS above a direct call's.
        let outcomes: Vec<Result<(PassReport, RecoveryReport), DeviceError>> = match alive[..] {
            [(_, gpu)] => vec![run(gpu, shares.pop().expect("one share per device"))],
            _ => std::thread::scope(|scope| {
                let handles: Vec<_> = alive
                    .iter()
                    .zip(shares)
                    .map(|(&(_, gpu), share)| scope.spawn(move || run(gpu, share)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("device worker panicked"))
                    .collect()
            }),
        };
        let mut fatal: Option<DeviceError> = None;
        let mut lost_this_round = false;
        for ((d, _), outcome) in alive.iter().zip(outcomes) {
            let (report, dev_rec) = match outcome {
                Ok(o) => o,
                Err(e) => {
                    // Finish errors are not redistributable (only possible
                    // under a policy that forbids degradation) — the typed
                    // error surfaces.
                    fatal.get_or_insert(e);
                    continue;
                }
            };
            // Keep the device's finished batches even if it was lost
            // mid-round: a finished batch stays finished. The first
            // report's fragments become the pool by move.
            if out.raw.is_empty() {
                out.raw = report.raw;
            } else {
                out.raw.append(&report.raw);
            }
            out.runs.extend(report.runs);
            if let Some(c) = &report.clusters {
                let uf = out
                    .labels
                    .get_or_insert_with(|| UnionFind::new(c.labels.len()));
                absorb_labels(uf, &c.labels);
                out.records += c.records;
            }
            out.makespan[*d] += report.makespan;
            recovery.merge(&dev_rec);
            match report.unfinished {
                Some((remaining, DeviceError::DeviceLost { .. })) => {
                    recovery.lost_devices += 1;
                    recovery.redistributed_batches += remaining.len() as u64;
                    pending.extend(remaining);
                    lost_this_round = true;
                }
                Some((_, e)) => {
                    fatal.get_or_insert(e);
                }
                None => {}
            }
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        pending.sort_unstable();
        if lost_this_round && !pending.is_empty() {
            let t0 = Instant::now();
            pending = recut(gpus, params, plan, &mut pass, pending, input.offsets);
            recovery.recovery_seconds += t0.elapsed().as_secs_f64();
        }
    }
    Ok(out)
}

/// Re-lower the plan over the survivors: if the fleet's capacity
/// changed (the lost card was the one bounding batch size), re-cut the
/// `pending` (sorted) batches' element ranges into batches sized for who
/// is left, preserving the pass's backoff scaling, and return their ids.
fn recut(
    gpus: &[Gpu],
    params: &ShinglingParams,
    plan: &Plan,
    pass: &mut PassPlan,
    pending: Vec<usize>,
    offsets: &[u64],
) -> Vec<usize> {
    let Ok(replan) = Plan::lower(params, gpus) else {
        return pending;
    };
    let scale = pass.capacity as f64 / plan.capacity as f64;
    let new_cap = ((replan.capacity as f64 * scale) as usize).max(1);
    if new_cap == pass.capacity {
        return pending;
    }
    // Maximal runs of consecutive pending ids cover contiguous element
    // ranges; re-batch each range.
    let mut recut = Vec::new();
    let mut i = 0;
    while i < pending.len() {
        let mut j = i;
        while j + 1 < pending.len() && pending[j + 1] == pending[j] + 1 {
            j += 1;
        }
        let lo = pass.batches[pending[i]].elem_lo;
        let hi = pass.batches[pending[j]].elem_hi;
        for b in plan_batches_range(offsets, lo, hi, new_cap) {
            recut.push(pass.batches.len());
            pass.batches.push(b);
        }
        i = j + 1;
    }
    pass.capacity = new_cap;
    recut
}

/// Deal the pending batch ids round-robin across the `n_alive` surviving
/// devices (device index order — deterministic for a given survivor set).
/// Shares are disjoint, cover every pending batch, and differ in size by
/// at most one.
fn round_robin_shares(pending: &[usize], n_alive: usize) -> Vec<Vec<usize>> {
    (0..n_alive)
        .map(|i| pending.iter().copied().skip(i).step_by(n_alive).collect())
        .collect()
}

/// Deal the pending batch ids across devices in proportion to their
/// capability shares. Target counts come from largest-remainder
/// apportionment; ids are then dealt in order by a deficit stride (each
/// id goes to the device furthest behind its proportional quota, ties to
/// the lowest index), so every device's share is an interleaved
/// subsequence rather than a contiguous block — a lost device's work
/// redistributes evenly. Uniform weights reproduce
/// [`round_robin_shares`] exactly.
fn weighted_shares(pending: &[usize], weights: &[f64]) -> Vec<Vec<usize>> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || weights.iter().all(|&w| (w - weights[0]).abs() < 1e-12) {
        return round_robin_shares(pending, n);
    }
    let counts = apportion(pending.len(), weights);
    let total = pending.len() as f64;
    let mut shares: Vec<Vec<usize>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (k, &id) in pending.iter().enumerate() {
        let mut best = 0;
        let mut best_deficit = f64::NEG_INFINITY;
        for d in 0..n {
            if shares[d].len() >= counts[d] {
                continue;
            }
            let deficit = counts[d] as f64 * (k + 1) as f64 / total - shares[d].len() as f64;
            if deficit > best_deficit {
                best_deficit = deficit;
                best = d;
            }
        }
        shares[best].push(id);
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ShingleKernel;
    use crate::spill::SpillStats;
    use gpclust_gpu::DeviceConfig;
    use gpclust_graph::generate::{planted_partition, PlantedConfig};
    use gpclust_graph::Csr;

    fn graph(seed: u64) -> Csr {
        planted_partition(&PlantedConfig {
            group_sizes: vec![40, 25, 30, 15],
            n_noise_vertices: 20,
            p_intra: 0.7,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed,
        })
        .graph
    }

    #[test]
    fn multi_gpu_matches_single_device() {
        let g = graph(31);
        let params = ShinglingParams::light(9);
        let single = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        for n_dev in [1usize, 2, 3] {
            let gpus = (0..n_dev)
                .map(|_| Gpu::with_workers(DeviceConfig::tesla_k20(), 1))
                .collect();
            let multi = MultiGpuClust::new(params, gpus).unwrap();
            let report = multi.cluster(&g).unwrap();
            assert_eq!(report.partition, single.partition, "{n_dev} devices");
        }
    }

    #[test]
    fn multi_gpu_matches_under_tiny_devices_with_cross_device_splits() {
        let g = planted_partition(&PlantedConfig {
            group_sizes: vec![150, 120, 100],
            n_noise_vertices: 30,
            p_intra: 0.5,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed: 33,
        })
        .graph;
        let params = ShinglingParams::light(11);
        let single = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        let gpus = (0..3)
            .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
            .collect();
        let multi = MultiGpuClust::new(params, gpus).unwrap();
        let report = multi.cluster(&g).unwrap();
        assert_eq!(report.partition, single.partition);
    }

    /// Tiny devices split Pass II lists across devices, so each device's
    /// Phase III sink holds only part of the records and the boundary
    /// fragments pool on the host; the absorbed labels plus the finalized
    /// fragments must still give the single-device partition.
    #[test]
    fn phase3_on_tiny_devices_matches_the_single_device_partition() {
        let g = planted_partition(&PlantedConfig {
            group_sizes: vec![150, 120, 100],
            n_noise_vertices: 30,
            p_intra: 0.5,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed: 73,
        })
        .graph;
        let params = ShinglingParams::light(45);
        let single = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        let gpus = (0..3)
            .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
            .collect();
        let report = MultiGpuClust::new(params, gpus)
            .unwrap()
            .cluster(&g)
            .unwrap();
        assert!(report.batch_stats[1].n_batches > 3);
        assert_eq!(report.partition, single.partition);
    }

    #[test]
    fn multi_gpu_bit_identical_and_pipelined() {
        let g = graph(37);
        let base = ShinglingParams::light(15);
        let single = GpClust::new(base, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();

        // Two big devices: same clusters, and the stream makespan beats
        // the serialized device path.
        let gpus = (0..2)
            .map(|_| Gpu::with_workers(DeviceConfig::tesla_k20(), 1))
            .collect();
        let multi = MultiGpuClust::new(base, gpus).unwrap();
        let ovl = multi.cluster(&g).unwrap();
        assert_eq!(ovl.partition, single.partition);
        assert!(ovl.times.device_pipelined > 0.0);
        assert!(ovl.times.device_pipelined < ovl.times.device_serialized());
        assert!(ovl.times.device_pipelined >= ovl.times.gpu - 1e-9);

        // And across tiny devices, where lists split across devices.
        let gpus = (0..3)
            .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
            .collect();
        let multi = MultiGpuClust::new(base, gpus).unwrap();
        let ovl = multi.cluster(&g).unwrap();
        assert_eq!(ovl.partition, single.partition);
    }

    #[test]
    fn fused_select_matches_across_devices() {
        let g = graph(43);
        let params = ShinglingParams::light(19);
        let single = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        let gpus = (0..3)
            .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
            .collect();
        let multi =
            MultiGpuClust::new(params.with_kernel(ShingleKernel::FusedSelect), gpus).unwrap();
        let report = multi.cluster(&g).unwrap();
        assert_eq!(report.partition, single.partition);
        assert_eq!(report.batch_stats[0].elem_footprint_bytes, 16);
        assert!(report.times.n_batches > 0);
    }

    /// Both kernels plan the fleet's batches at one footprint; the fused
    /// kernel's trial groups launch less and finish sooner.
    #[test]
    fn fused_select_launches_less_across_the_fleet() {
        let g = graph(45);
        let params = ShinglingParams::light(21);
        let run = |kernel| {
            let gpus = (0..2)
                .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
                .collect();
            MultiGpuClust::new(params.with_kernel(kernel), gpus)
                .unwrap()
                .cluster(&g)
                .unwrap()
        };
        let sort = run(ShingleKernel::SortCompact);
        let sel = run(ShingleKernel::FusedSelect);
        assert_eq!(sort.partition, sel.partition);
        assert_eq!(sel.times.n_batches, sort.times.n_batches);
        assert!(sel.counters.kernel_launches < sort.counters.kernel_launches);
        assert!(sel.times.gpu < sort.times.gpu);
    }

    #[test]
    fn device_time_shrinks_with_more_devices() {
        // Large enough that both passes span several tiny-device batches;
        // otherwise a single-batch pass bounds the achievable reduction.
        let g = planted_partition(&PlantedConfig {
            group_sizes: vec![200, 160, 140, 120],
            n_noise_vertices: 40,
            p_intra: 0.5,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed: 35,
        })
        .graph;
        let params = ShinglingParams::light(13);
        let mut gpu_times = Vec::new();
        for n_dev in [1usize, 4] {
            // Tiny devices force many batches so round-robin matters.
            let gpus = (0..n_dev)
                .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
                .collect();
            let multi = MultiGpuClust::new(params, gpus).unwrap();
            let report = multi.cluster(&g).unwrap();
            gpu_times.push(report.times.gpu);
            assert_eq!(report.per_device_gpu_seconds.len(), n_dev);
        }
        assert!(
            gpu_times[1] < gpu_times[0] * 0.7,
            "4 devices {} !<< 1 device {}",
            gpu_times[1],
            gpu_times[0]
        );
    }

    /// A bounded memory budget across the fleet — per-report runs spilled
    /// to disk, fragments pooled, one external merge — must reproduce the
    /// unbounded single-device partition and report the spill traffic.
    #[test]
    fn bounded_budget_spills_and_matches_across_devices() {
        let g = graph(63);
        let params = ShinglingParams::light(39);
        let single = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        for n_dev in [1usize, 3] {
            let gpus = (0..n_dev)
                .map(|_| Gpu::with_workers(DeviceConfig::tesla_k20(), 1))
                .collect();
            let multi = MultiGpuClust::new(params.with_shards(2), gpus).unwrap();
            let report = multi.cluster(&g).unwrap();
            assert_eq!(report.partition, single.partition, "{n_dev}");
            assert!(report.times.spilled_bytes > 0, "{n_dev}");
            assert!(report.times.disk_io > 0.0, "{n_dev}");
        }
    }

    /// A fleet run killed at the pass-I merge leaves every shard committed
    /// in the journal; `--resume` replays each from its sealed runs (no
    /// re-execution), re-runs the O(n) Pass II and lands on the oracle
    /// partition.
    #[test]
    fn checkpointed_fleet_resumes_after_a_merge_crash() {
        use crate::checkpoint::{CheckpointConfig, CrashPlan, CrashSite, KILL_MARKER};
        let g = graph(67);
        let params = ShinglingParams::light(41).with_shards(2);
        let oracle = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("gpclust-mgckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = || -> Vec<Gpu> {
            (0..2)
                .map(|_| Gpu::with_workers(DeviceConfig::tesla_k20(), 1))
                .collect()
        };
        // Only Pass I spills and strikes the merge site; the kill lands
        // after both shards committed.
        let cfg = CheckpointConfig::new(&dir)
            .with_crash(CrashPlan::scheduled().with_kill(CrashSite::Merge, 1));
        let err = MultiGpuClust::new(params, fleet())
            .unwrap()
            .with_checkpoint(cfg)
            .cluster(&g)
            .unwrap_err();
        assert!(format!("{err}").contains(KILL_MARKER), "{err}");
        let report = MultiGpuClust::new(params, fleet())
            .unwrap()
            .with_checkpoint(CheckpointConfig::new(&dir).resuming())
            .cluster(&g)
            .unwrap();
        assert_eq!(report.partition, oracle.partition);
        assert_eq!(
            report.times.recovery.resumed_shards, 2,
            "every pass-I shard must replay from the journal"
        );
        assert_eq!(report.times.recovery.checksum_failures, 0);
        // finalize retired the journal: the directory is empty again.
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{left:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_empty_device_list() {
        assert!(MultiGpuClust::new(ShinglingParams::light(0), vec![]).is_err());
    }

    #[test]
    fn round_robin_shares_are_disjoint_balanced_and_complete() {
        for n_pending in [0usize, 1, 2, 7, 16] {
            for n_alive in [1usize, 2, 3, 4] {
                let pending: Vec<usize> = (0..n_pending).collect();
                let shares = round_robin_shares(&pending, n_alive);
                assert_eq!(shares.len(), n_alive);
                let mut all: Vec<usize> = shares.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(all, pending, "shares must cover exactly the pending set");
                let sizes: Vec<usize> = shares.iter().map(Vec::len).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "unbalanced shares: {sizes:?}");
            }
        }
    }

    #[test]
    fn lost_device_redistributes_remaining_batches() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let g = graph(41);
        let params = ShinglingParams::light(19);
        let oracle = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();

        // Tiny devices force many batches; device 0 drops off the bus at
        // its first kernel launch, so nearly its whole share re-queues.
        let gpus: Vec<Gpu> = (0..2)
            .map(|d| {
                let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 1);
                if d == 0 {
                    gpu.set_fault_plan(
                        FaultPlan::scheduled()
                            .with_fault(FaultSite::Kernel, 1, FaultKind::DeviceLost)
                            .with_device(0),
                    );
                }
                gpu
            })
            .collect();
        let report = MultiGpuClust::new(params, gpus)
            .unwrap()
            .cluster(&g)
            .unwrap();
        assert_eq!(report.partition, oracle.partition);
        let rec = &report.times.recovery;
        assert_eq!(rec.lost_devices, 1);
        assert!(rec.redistributed_batches > 0, "{rec}");
        let total_batches = report.batch_stats[0].n_batches + report.batch_stats[1].n_batches;
        assert!(
            rec.redistributed_batches <= total_batches,
            "redistributed {} > planned {}",
            rec.redistributed_batches,
            total_batches
        );
    }

    #[test]
    fn losing_every_device_surfaces_a_typed_error() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let g = graph(43);
        let gpus: Vec<Gpu> = (0..2)
            .map(|d| {
                let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 1);
                gpu.set_fault_plan(
                    FaultPlan::scheduled()
                        .with_fault(FaultSite::Kernel, 1, FaultKind::DeviceLost)
                        .with_device(d),
                );
                gpu
            })
            .collect();
        let err = MultiGpuClust::new(ShinglingParams::light(19), gpus)
            .unwrap()
            .cluster(&g)
            .unwrap_err();
        assert!(matches!(err, DeviceError::DeviceLost { .. }), "{err}");
    }

    #[test]
    fn weighted_shares_are_disjoint_complete_and_proportional() {
        for n_pending in [0usize, 1, 5, 16, 33] {
            let pending: Vec<usize> = (0..n_pending).collect();
            let weights = [2.0, 1.0, 1.0];
            let shares = weighted_shares(&pending, &weights);
            assert_eq!(shares.len(), weights.len());
            let mut all: Vec<usize> = shares.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, pending, "shares must cover exactly the pending set");
            let counts = apportion(n_pending, &weights);
            let sizes: Vec<usize> = shares.iter().map(Vec::len).collect();
            assert_eq!(sizes, counts, "sizes must hit the apportioned targets");
            // The double-weight device never ends up behind an equal one.
            assert!(sizes[0] >= sizes[1] && sizes[0] >= sizes[2], "{sizes:?}");
        }
    }

    /// Uniform (and degenerate) weights must reproduce the round-robin
    /// deal bit for bit — the weighted scheduler is a strict superset.
    #[test]
    fn weighted_shares_degrade_to_round_robin() {
        let pending: Vec<usize> = (0..17).collect();
        for weights in [vec![1.0; 3], vec![0.25; 4], vec![0.0; 3]] {
            assert_eq!(
                weighted_shares(&pending, &weights),
                round_robin_shares(&pending, weights.len()),
                "{weights:?}"
            );
        }
        assert!(weighted_shares(&pending, &[]).is_empty());
    }

    /// A heterogeneous fleet (full-bandwidth + half-bandwidth K20) must
    /// reproduce the single-device partition — proportional dealing only
    /// reshuffles which card runs which batch.
    #[test]
    fn heterogeneous_fleet_matches_single_device() {
        let g = graph(57);
        let params = ShinglingParams::light(33);
        let single = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        let gpus = vec![
            Gpu::with_workers(DeviceConfig::tesla_k20(), 1),
            Gpu::with_workers(DeviceConfig::tesla_k20_half_bandwidth(), 1),
        ];
        let report = MultiGpuClust::new(params, gpus)
            .unwrap()
            .cluster(&g)
            .unwrap();
        assert_eq!(report.partition, single.partition);
    }

    /// When the capacity-bounding card dies mid-pass, the survivors
    /// re-cut the remaining element range into their own (larger) batch
    /// size — and the partition is still bit-identical.
    #[test]
    fn lost_capacity_bound_device_recuts_remaining_batches() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let g = graph(59);
        let params = ShinglingParams::light(35);
        let oracle = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        // Device 0 is a K20 whose memory is capped to 32 KiB — full
        // bandwidth (so it still draws an equal share of batches), but it
        // bounds the fleet capacity. It dies on its first kernel; the
        // surviving K20 re-plans at its own 5 GB capacity, collapsing the
        // small batches into large ones.
        let gpus: Vec<Gpu> = vec![
            {
                let gpu = Gpu::with_workers(
                    DeviceConfig {
                        global_mem_bytes: 32 << 10,
                        ..DeviceConfig::tesla_k20()
                    },
                    1,
                );
                gpu.set_fault_plan(
                    FaultPlan::scheduled()
                        .with_fault(FaultSite::Kernel, 1, FaultKind::DeviceLost)
                        .with_device(0),
                );
                gpu
            },
            Gpu::with_workers(DeviceConfig::tesla_k20(), 1),
        ];
        let report = MultiGpuClust::new(params, gpus)
            .unwrap()
            .cluster(&g)
            .unwrap();
        assert_eq!(report.partition, oracle.partition);
        assert_eq!(report.times.recovery.lost_devices, 1);
        // The re-cut is visible: the K20's capacity admits the whole
        // remaining range in far fewer batches than were redistributed.
        assert!(report.times.recovery.redistributed_batches > 0);
    }

    /// The capacity-bounding card dies inside a Pass II batch, at launches
    /// sampled across its Pass II. It holds runs of consecutive batches,
    /// so the survivor's re-cut can erase the boundary a half-finished
    /// batch's fragments straddled; those fragments must die with the
    /// batch (`exec`'s `deferred_clusters_lost_batch_commits_no_fragments`
    /// pins that exactly). The partition stays the oracle's.
    #[test]
    fn lost_capacity_bound_device_mid_pass_two_recuts_cleanly() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let g = graph(59);
        let params = ShinglingParams::light(35);
        let oracle = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        // A full-bandwidth K20 capped to 12 KiB bounds the fleet capacity
        // and, against a half-bandwidth K20, draws about two batches in
        // three.
        let fleet = |plan: FaultPlan| {
            let small = DeviceConfig {
                global_mem_bytes: 12 << 10,
                ..DeviceConfig::tesla_k20()
            };
            let gpus = vec![
                Gpu::with_workers(small, 1),
                Gpu::with_workers(DeviceConfig::tesla_k20_half_bandwidth(), 1),
            ];
            gpus[0].set_fault_plan(plan.with_device(0));
            gpus
        };
        // Device 0's kernel launches in Pass I, then in the whole run.
        let clean = MultiGpuClust::new(params, fleet(FaultPlan::scheduled())).unwrap();
        clean
            .gather_pass1_records(&params, &g, &mut SpillStats::default())
            .unwrap();
        let pass1 = clean.gpu().counters().kernel_launches;
        let clean = MultiGpuClust::new(params, fleet(FaultPlan::scheduled())).unwrap();
        assert_eq!(clean.cluster(&g).unwrap().partition, oracle.partition);
        let total = clean.gpu().counters().kernel_launches;
        assert!(total > pass1 + 8, "Pass II must batch");
        let stride = ((total - pass1) / 32).max(1) as usize;
        for at in (pass1 + 1..=total).step_by(stride) {
            let plan =
                FaultPlan::scheduled().with_fault(FaultSite::Kernel, at, FaultKind::DeviceLost);
            let fleet = MultiGpuClust::new(params, fleet(plan)).unwrap();
            let report = fleet.cluster(&g).unwrap();
            assert!(fleet.gpu().is_lost(), "at {at}");
            assert_eq!(report.partition, oracle.partition, "at {at}");
        }
    }
}
