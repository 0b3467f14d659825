//! Algorithm 2 — the gpClust driver, on one device or a fleet.
//!
//! The division of labor the paper prescribes: "CPU is used to aggregate
//! the data for the GPU, and GPU is responsible of the compute-intensive
//! work." There is one driver, [`GpClust`], and a single device is a
//! fleet of one ([`crate::multi_gpu::MultiGpuClust::new`] builds a fleet
//! of N). Concretely:
//!
//! 1. CPU loads the input graph (disk I/O, optional here) — under a
//!    bounded [`crate::params::MemoryBudget`] only the offsets, with each
//!    shard's target window read on demand;
//! 2. first-level shingling on the GPUs: the pass is carved on list
//!    boundaries into vertex-range shards (one shard when memory is
//!    unbounded), each shard's element range is cut at the device
//!    capacity — one batch per shard whenever the shard fits the device —
//!    and its batches are dealt across the surviving devices
//!    (`multi_gpu::deal`). Every device packs its complete records into
//!    sorted runs; the fragments of lists a capacity cut splits all come
//!    back in the same shard and finalize on the host into one more
//!    sorted run of that shard. A bounded shard spills its runs and, when
//!    checkpointed, seals and commits one manifest entry — whatever the
//!    fleet size;
//! 3. CPU merges every shard's runs into the shingle graph;
//! 4. CPU groups the shingle graph's member lists into
//!    [`crate::report::DistinctLists`], folds their owner closure, drops
//!    the lists it settles and then the graph; second-level shingling
//!    runs on the GPUs over each unsettled list once, dealt the same way;
//!    each batch's trials reduce on the device to one selected-member
//!    mark per element, and every device streams the marks into Phase
//!    III;
//! 5. CPU absorbs each device's component labels and the lists' owner
//!    closure, and unions the finalized fragments into the reported dense
//!    subgraphs.
//!
//! Every stage is timed into [`StageTimes`]; device-side times come from
//! the simulator's cost model (the maximum over devices), host-side times
//! from wall-clock stopwatches (with the wall time spent *executing
//! kernels on the pool* subtracted from the CPU column — that time stands
//! in for the device, not the host).

use crate::aggregate::{merge_fragments, SortedRun};
use crate::batch::{plan_batches_range, Batch, BatchStats};
use crate::checkpoint::{
    self, CheckpointConfig, Checkpointer, CrashInjector, CrashSite, Reuse, RunMeta,
};
use crate::exec::{PassInput, Sink};
use crate::minwise::HashFamily;
use crate::multi_gpu::{accumulate, deal, slowest, Dealt, MultiGpuClust};
use crate::params::ShinglingParams;
use crate::plan::{PassPlan, Plan};
use crate::report::DistinctLists;
use crate::resilience::with_oom_backoff;
use crate::shingle::AdjacencyInput;
use crate::spill::{self, io_to_device, merge_external_runs, ExternalRun, SpillStats, SpilledRun};
use crate::timing::{RecoveryReport, ResidentGauge, StageTimes};
use gpclust_gpu::{CountersSnapshot, DeviceError, Gpu};
use gpclust_graph::{io as graph_io, Csr, Partition, ShingleGraph, UnionFind};
use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Where a shard's flat adjacency elements come from: the resident input
/// (borrowed windows, no copies) or the opened graph file (each window
/// read on demand, so the target array is never fully resident).
enum ShardSource<'a> {
    Resident(&'a [u32]),
    File(&'a graph_io::CsrFile),
}

impl ShardSource<'_> {
    /// The element window `[lo, hi)` in global positions.
    fn window(&self, lo: u64, hi: u64) -> Result<Cow<'_, [u32]>, DeviceError> {
        match self {
            ShardSource::Resident(flat) => Ok(Cow::Borrowed(&flat[lo as usize..hi as usize])),
            // A read error names the graph file's byte offset itself.
            ShardSource::File(f) => {
                f.read_targets(lo, hi)
                    .map(Cow::Owned)
                    .map_err(|e| DeviceError::HostIo {
                        detail: e.to_string(),
                    })
            }
        }
    }
}

/// Pass-I shards cut at `cuts` (ascending element positions, each a list
/// start), dropping empty ranges.
fn shard_ranges(cuts: &[u64]) -> Vec<Range<u64>> {
    cuts.windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| w[0]..w[1])
        .collect()
}

/// `k` vertex-range shards of near-equal element count: cut `i` falls on
/// the first list starting at or past `i/k` of the elements.
fn even_shards(offsets: &[u64], k: usize) -> Vec<Range<u64>> {
    let total = *offsets.last().unwrap_or(&0);
    let cuts: Vec<u64> = (0..=k)
        .map(|i| {
            let at = (total as u128 * i as u128 / k as u128) as u64;
            offsets[offsets.partition_point(|&o| o < at)]
        })
        .collect();
    shard_ranges(&cuts)
}

/// Vertex-range shards packed greedily by estimated working-set bytes:
/// each vertex costs its [`Plan::vertex_resident_bytes`], and a shard
/// closes before the vertex that would push it past `budget`. Record
/// density varies across the vertex range (many short emitting lists cost
/// far more than the same elements in one long list), so equal-count
/// shards can blow the budget where equal-cost ones keep the observed
/// peak under it. A vertex priced over the budget on its own still forms
/// a (best-effort) shard.
fn budget_shards(offsets: &[u64], s: usize, trials: usize, budget: u64) -> Vec<Range<u64>> {
    let mut cuts = vec![0];
    let mut acc = 0u64;
    for w in offsets.windows(2) {
        let cost = Plan::vertex_resident_bytes(w[1] - w[0], s, trials);
        if acc > 0 && acc + cost > budget {
            cuts.push(w[0]);
            acc = 0;
        }
        acc += cost;
    }
    cuts.extend(offsets.last());
    shard_ranges(&cuts)
}

/// Each shard's element range cut at the device capacity `cap` — one
/// batch per shard whenever the shard fits the device — and the batch-id
/// range every shard owns in the concatenated list.
fn shard_batches(
    offsets: &[u64],
    shards: &[Range<u64>],
    cap: usize,
) -> (Vec<Batch>, Vec<Range<usize>>) {
    let mut batches = Vec::new();
    let mut chunks = Vec::with_capacity(shards.len());
    for r in shards {
        let start = batches.len();
        batches.extend(plan_batches_range(offsets, r.start, r.end, cap));
        chunks.push(start..batches.len());
    }
    (batches, chunks)
}

/// The gpClust pipeline over one device or a fleet.
#[derive(Debug, Clone)]
pub struct GpClust {
    params: ShinglingParams,
    gpus: Vec<Gpu>,
    checkpoint: Option<CheckpointConfig>,
}

/// Everything a gpClust run produces.
#[derive(Debug, Clone)]
pub struct GpClustReport {
    /// The reported clusters (union–find partition mode).
    pub partition: Partition,
    /// Per-component times (Table I row); device and transfer columns are
    /// the maximum over devices.
    pub times: StageTimes,
    /// Device telemetry summed over the fleet (peak memory: the largest
    /// device's).
    pub counters: CountersSnapshot,
    /// Per-device simulated kernel seconds (load-balance diagnostics).
    pub per_device_gpu_seconds: Vec<f64>,
    /// Distinct first-level shingles (|S1|).
    pub first_level_shingles: usize,
    /// Second-level `<shingle, generator>` records Phase III accounted
    /// for (|E″|): Pass II computes each distinct member list's records
    /// once, and they count once per owner. A batch a lost device left
    /// unfinished counts only when a survivor re-runs it. The
    /// distinct-|S2| count is not tracked: G″ is never materialized.
    pub second_level_records: u64,
    /// How the capacity model split each device pass into batches
    /// (`[pass I, pass II]`) at the fleet-wide capacity (smallest device,
    /// configured kernel).
    pub batch_stats: [BatchStats; 2],
}

/// Pass I's records before the merge, every shard's runs in shard order
/// (its complete records, then its finalized fragments): resident when
/// the pass is one unspilled shard, spilled otherwise — and, per device,
/// the pipelined makespan summed over the shards.
struct Pass1 {
    runs: Vec<ExternalRun>,
    stats: BatchStats,
    shards: u64,
    makespan: Vec<f64>,
}

/// Passes II + III: the partition and what the passes cost.
struct SecondPass {
    partition: Partition,
    stats: BatchStats,
    makespan: f64,
    records: u64,
}

/// The durable side of a run: spill traffic, the resident-byte gauge,
/// and the optional checkpoint journal with its crash injector.
#[derive(Default)]
struct Durability {
    spill: SpillStats,
    gauge: ResidentGauge,
    ckpt: Option<Checkpointer>,
    crash: Option<CrashInjector>,
}

impl Durability {
    /// Open the checkpoint journal (fresh or resuming) before any work: a
    /// resume refuses here, with a typed error, if the manifest was
    /// written for a different input or under different axes. The
    /// fingerprint folds in a bounded head/tail sample of the target
    /// array — offsets alone cannot separate graphs that share a degree
    /// sequence — read through the shard source, so file-backed inputs
    /// pay at most two small windows.
    fn open(
        cfg: Option<&CheckpointConfig>,
        axes: std::collections::BTreeMap<String, String>,
        offsets: &[u64],
        source: &ShardSource<'_>,
    ) -> Result<Durability, DeviceError> {
        let mut d = Durability::default();
        if let Some(cfg) = cfg {
            let m2 = *offsets.last().unwrap_or(&0);
            let k = checkpoint::FINGERPRINT_SAMPLE.min(m2);
            let head = source.window(0, k)?;
            let tail = source.window(m2 - k, m2)?;
            let fp = checkpoint::fingerprint_csr(offsets, &head, &tail);
            d.ckpt = Some(Checkpointer::open(cfg, fp, &axes).map_err(checkpoint::to_device)?);
            d.crash = Some(CrashInjector::new(cfg.crash.clone()));
        }
        Ok(d)
    }

    fn strike(&self, site: CrashSite) -> Result<(), DeviceError> {
        match &self.crash {
            Some(cr) => cr.strike(site),
            None => Ok(()),
        }
    }

    /// Spill the runs of shard `key` (over the elements `range`) and seal
    /// the shard. Checkpointed runs seal into the journal directory
    /// (durable, manifest-owned); the seal crash site fires with
    /// everything synced but nothing committed (resume re-runs the shard),
    /// then the entry commits and the commit crash site fires (resume
    /// replays it). Without a journal the runs spill to the drop-cleaned
    /// scratch directory.
    fn seal(
        &mut self,
        key: u64,
        range: &Range<u64>,
        s: usize,
        runs: &[SortedRun],
    ) -> Result<Vec<SpilledRun>, DeviceError> {
        let Some(ck) = self.ckpt.as_mut() else {
            let spill = &mut self.spill;
            let written = runs.iter().map(|run| SpilledRun::write(s, run, spill));
            return written
                .collect::<std::io::Result<_>>()
                .map_err(io_to_device);
        };
        let mut spilled = Vec::with_capacity(runs.len());
        let mut metas = Vec::with_capacity(runs.len());
        for (k, run) in runs.iter().enumerate() {
            let sp = SpilledRun::write_at(ck.run_path(key, k), s, run, &mut self.spill, true)
                .map_err(io_to_device)?;
            metas.push(RunMeta::of(ck.run_file(key, k), &sp));
            spilled.push(sp);
        }
        self.strike(CrashSite::ShardSeal)?;
        let ck = self.ckpt.as_mut().expect("checked above");
        ck.commit_entry(key, range, metas).map_err(io_to_device)?;
        self.strike(CrashSite::ManifestCommit)?;
        Ok(spilled)
    }
}

impl GpClust {
    /// Create a pipeline on `gpu` with validated `params` — a fleet of
    /// one.
    pub fn new(params: ShinglingParams, gpu: Gpu) -> Result<Self, String> {
        MultiGpuClust::new(params, vec![gpu])
    }

    /// The driver over validated `params` and a non-empty fleet.
    pub(crate) fn over(params: ShinglingParams, gpus: Vec<Gpu>) -> Self {
        GpClust {
            params,
            gpus,
            checkpoint: None,
        }
    }

    /// Checkpoint the run per `cfg`: each spilled Pass-I shard commits to
    /// a durable manifest journal as its runs seal, and a resuming config
    /// re-executes only the incomplete tail (see [`crate::checkpoint`]).
    /// Pass II streams into Phase III, holds nothing to commit, and
    /// simply re-runs.
    pub fn with_checkpoint(mut self, cfg: CheckpointConfig) -> Self {
        self.checkpoint = Some(cfg);
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &ShinglingParams {
        &self.params
    }

    /// The first device (for a fleet of one, the only one).
    pub fn gpu(&self) -> &Gpu {
        &self.gpus[0]
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.gpus.len()
    }

    /// Cluster an in-memory graph (no disk stage).
    pub fn cluster(&self, g: &Csr) -> Result<GpClustReport, DeviceError> {
        self.run(g.offsets(), ShardSource::Resident(g.flat()), 0.0)
    }

    /// Load a binary graph from `path` (timed as Disk I/O) and cluster it.
    ///
    /// Under a bounded [`crate::params::MemoryBudget`] only the offset
    /// array is materialized up front; each Pass-I shard's target window
    /// is read from the file on demand ([`graph_io::CsrFile`]), so the
    /// input graph is never fully resident. A device or host failure keeps
    /// its message (an injected kill, a spill error, a lost device).
    pub fn cluster_from_file<P: AsRef<Path>>(
        &self,
        path: P,
    ) -> Result<GpClustReport, std::io::Error> {
        let start = Instant::now();
        let budget = self
            .params
            .mem_budget
            .or_env()
            .map_err(std::io::Error::other)?;
        let res = if budget.is_unbounded() {
            let g = graph_io::read_file(path)?;
            let disk = start.elapsed().as_secs_f64();
            self.run(g.offsets(), ShardSource::Resident(g.flat()), disk)
        } else {
            let f = graph_io::CsrFile::open(path)?;
            let disk = start.elapsed().as_secs_f64();
            self.run(f.offsets(), ShardSource::File(&f), disk)
        };
        res.map_err(std::io::Error::other)
    }

    fn run(
        &self,
        offsets: &[u64],
        source: ShardSource<'_>,
        disk_io: f64,
    ) -> Result<GpClustReport, DeviceError> {
        for gpu in &self.gpus {
            gpu.reset_counters();
        }
        let n = offsets.len() - 1;
        let wall_start = Instant::now();
        let (plan, params) = Plan::lower_auto(&self.params, &self.gpus, offsets, n)?;
        let axes = checkpoint::axes_record(&params, plan.mem_budget, self.gpus.len());
        let mut d = Durability::open(self.checkpoint.as_ref(), axes, offsets, &source)?;
        let mut recovery = RecoveryReport::default();

        let pass1 = self.pass1(&plan, &params, offsets, &source, &mut d, &mut recovery)?;
        let (stats1, shards, pipe1) = (pass1.stats, pass1.shards, slowest(&pass1.makespan));
        let first =
            merge_external_runs(params.s1, pass1.runs, &mut d.spill).map_err(io_to_device)?;
        let first_level_shingles = first.len();
        let second = self.second_pass(&params, first, n, &mut recovery)?;

        // The run completed: retire the journal and its sealed files. A
        // crash anywhere above leaves the manifest in place for --resume.
        if let Some(ck) = d.ckpt.take() {
            ck.finalize().map_err(checkpoint::to_device)?;
        }

        let wall = wall_start.elapsed().as_secs_f64();
        let snaps: Vec<CountersSnapshot> = self.gpus.iter().map(Gpu::counters).collect();
        let counters = CountersSnapshot::fleet_total(&snaps);
        recovery.faults_injected = counters.faults_injected;
        let per_device_gpu_seconds: Vec<f64> = snaps.iter().map(|c| c.kernel_seconds).collect();
        let max = |f: fn(&CountersSnapshot) -> f64| snaps.iter().map(f).fold(0.0, f64::max);
        // Host time net of the wall time spent standing in for the device
        // — and of the spill traffic, which reports as Disk I/O instead.
        let spill_seconds = d.spill.write_seconds + d.spill.read_seconds;
        let mut times = StageTimes {
            cpu: (wall - counters.kernel_wall_seconds - spill_seconds).max(0.0),
            emulation: counters.kernel_wall_seconds,
            gpu: max(|s| s.kernel_seconds),
            h2d: max(|s| s.h2d_seconds),
            d2h: max(|s| s.d2h_seconds),
            disk_io: disk_io + spill_seconds,
            device_pipelined: pipe1 + second.makespan,
            recovery,
            peak_resident_bytes: d.gauge.peak(),
            spilled_bytes: d.spill.bytes,
            shards,
            ..Default::default()
        };
        times.record_batch_stats(&[stats1, second.stats]);
        Ok(GpClustReport {
            partition: second.partition,
            times,
            counters,
            per_device_gpu_seconds,
            first_level_shingles,
            second_level_records: second.records,
            batch_stats: [stats1, second.stats],
        })
    }

    /// Pass I under the fault policy: an `OutOfMemory` halves the planned
    /// batch capacity and re-plans the whole pass. The pass is carved once
    /// into vertex-range shards on list boundaries — by estimated bytes
    /// under a byte budget, into near-equal element counts under
    /// `--shards`, one shard when memory is unbounded — and each attempt
    /// cuts each shard's element range at its device capacity, so a shard
    /// that fits the device runs as one batch. More than one shard spills
    /// its runs to disk; a checkpointed re-plan reuses the shards an
    /// earlier attempt committed.
    fn pass1(
        &self,
        plan: &Plan,
        params: &ShinglingParams,
        offsets: &[u64],
        source: &ShardSource<'_>,
        d: &mut Durability,
        recovery: &mut RecoveryReport,
    ) -> Result<Pass1, DeviceError> {
        let (s, trials) = (params.s1, params.c1);
        let family = params.family_pass1();
        let mut pass_rec = RecoveryReport::default();
        let mut backoff_rec = RecoveryReport::default();
        let shards = match (plan.mem_budget.shards, plan.mem_budget.bytes) {
            (Some(k), _) => even_shards(offsets, k.max(1) as usize),
            (None, Some(b)) if b > 0 => budget_shards(offsets, s, trials, b),
            _ => even_shards(offsets, 1),
        };
        let spill = shards.len() > 1;
        let out = with_oom_backoff(&plan.policy, &mut backoff_rec, plan.capacity, |cap| {
            let (batches, chunks) = shard_batches(offsets, &shards, cap);
            let pass = plan.pass_of(s, cap, batches);
            self.shards(
                plan,
                params,
                &pass,
                chunks,
                spill,
                offsets,
                source,
                &family,
                d,
                &mut pass_rec,
            )
        })?;
        recovery.merge(&pass_rec);
        recovery.merge(&backoff_rec);
        Ok(out)
    }

    /// The Pass-I shard loop: each shard's target window is read and its
    /// batches dealt across the fleet, and the fragments of the lists its
    /// capacity cuts split — all of which come back in this one deal —
    /// finalize into the shard's last run. When the pass `spill`s, the
    /// shard's runs spill and it commits one manifest entry. At no point
    /// is more than one shard's element window and its runs resident; the
    /// [`ResidentGauge`] records the observed peak. A resuming journal
    /// answers for completed shards: their sealed runs re-verify and
    /// rejoin in shard order (a verification failure counts as detected
    /// corruption and the shard simply re-executes).
    ///
    /// Bit-identity with one resident pass: a complete `(node, trial)`
    /// record lives wholly in one batch and so in exactly one run, and the
    /// fragments of lists split across batches (or the devices those
    /// batches went to) finalize once, in their shard's last run. Shards
    /// end on list boundaries, so no list spans two and two shards never
    /// share a `(key, node)`; within a shard the fragments still merge
    /// after its complete records, and the one record merge pops in
    /// `((key, node), run)` order wherever the runs reside.
    #[allow(clippy::too_many_arguments)] // the unit with_oom_backoff re-plans
    fn shards(
        &self,
        plan: &Plan,
        params: &ShinglingParams,
        pass: &PassPlan,
        chunks: Vec<Range<usize>>,
        spill: bool,
        offsets: &[u64],
        source: &ShardSource<'_>,
        family: &HashFamily,
        d: &mut Durability,
        recovery: &mut RecoveryReport,
    ) -> Result<Pass1, DeviceError> {
        let s = pass.s;
        let mut out = Pass1 {
            runs: Vec::new(),
            stats: pass.stats,
            shards: chunks.len() as u64,
            makespan: vec![0.0; self.gpus.len()],
        };
        for (key, chunk) in chunks.into_iter().enumerate() {
            let key = key as u64;
            let range = pass.batches[chunk.start].elem_lo..pass.batches[chunk.end - 1].elem_hi;
            let reuse = match d.ckpt.as_ref().filter(|_| spill) {
                Some(ck) => ck.take_entry(key, &range, s),
                None => Reuse::Miss,
            };
            match reuse {
                Reuse::Hit(runs) => {
                    recovery.resumed_shards += 1;
                    out.runs.extend(runs.into_iter().map(ExternalRun::Disk));
                    continue;
                }
                Reuse::Invalid => recovery.checksum_failures += 1,
                Reuse::Miss => {}
            }
            let window = source.window(range.start, range.end)?;
            let input = PassInput::window(offsets, &window, range.start);
            let gather = || Sink::Gather;
            let Dealt {
                mut runs,
                raw,
                makespan,
                ..
            } = deal(
                &self.gpus, params, plan, pass, chunk, input, family, &gather, recovery,
            )?;
            accumulate(&mut out.makespan, &makespan);
            if !raw.is_empty() {
                runs.push(merge_fragments(&raw));
            }
            drop(raw);
            if spill {
                let held =
                    4 * (range.end - range.start) + runs.iter().map(spill::run_bytes).sum::<u64>();
                d.gauge.charge(held);
                let sealed = d.seal(key, &range, s, &runs)?;
                out.runs.extend(sealed.into_iter().map(ExternalRun::Disk));
                d.gauge.discharge(held);
            } else {
                out.runs.extend(runs.into_iter().map(ExternalRun::Mem));
            }
        }
        if spill {
            d.strike(CrashSite::Merge)?;
        }
        Ok(out)
    }

    /// Passes II + III from a first-level shingle graph, which is grouped
    /// into its [`DistinctLists`] and dropped: Pass II shingles each
    /// distinct member list the owner closure has not settled once, dealt
    /// across the fleet and streamed into Phase III on every device (a
    /// backed-off re-plan replays the whole pass into fresh sinks). The
    /// host absorbs each device's labels and the owner closure, unions the
    /// finalized fragments and counts the settled lists' records; G″ is
    /// never built.
    fn second_pass(
        &self,
        params: &ShinglingParams,
        first: ShingleGraph,
        n: usize,
        recovery: &mut RecoveryReport,
    ) -> Result<SecondPass, DeviceError> {
        let lists = DistinctLists::new(&first, params.s2, n);
        drop(first);
        // Lowered afresh: capacity follows the smallest *surviving*
        // device, so every batch fits anywhere it may be (re)scheduled.
        let plan = Plan::lower(params, &self.gpus)?;
        let family = params.family_pass2();
        let sink = || Sink::Clusters(&lists);
        let mut pass_rec = RecoveryReport::default();
        let mut backoff_rec = RecoveryReport::default();
        let (stats, dealt) =
            with_oom_backoff(&plan.policy, &mut backoff_rec, plan.capacity, |cap| {
                let pass = plan.pass(params.s2, plan.aggregation, cap, lists.offsets());
                let all = 0..pass.batches.len();
                let input = PassInput::of(&lists);
                let dealt = deal(
                    &self.gpus,
                    params,
                    &plan,
                    &pass,
                    all,
                    input,
                    &family,
                    &sink,
                    &mut pass_rec,
                )?;
                Ok((pass.stats, dealt))
            })?;
        recovery.merge(&pass_rec);
        recovery.merge(&backoff_rec);
        let fragments = merge_fragments(&dealt.raw);
        let labels = dealt.labels.unwrap_or_else(|| UnionFind::new(n));
        let (partition, host_records) = lists.finish(labels, params.s2, params.c2, &fragments);
        Ok(SecondPass {
            partition,
            stats,
            makespan: slowest(&dealt.makespan),
            records: dealt.records + host_records,
        })
    }

    /// Pass-I shingle records for `input` as its runs in shard order —
    /// the incremental engine's bootstrap and delta pass, which merge
    /// them into the index. The batch pipeline's Pass I (shards, fleet
    /// dealing, transient retries, OOM re-plans, lost-device
    /// redistribution) without a run checkpoint: the engine's durability
    /// lives in the index store, and a delta pass is idempotent until its
    /// records are merged into the index. The runs merge to exactly the
    /// graph the batch pipeline builds. Returns the runs, the pipelined
    /// makespan, and the recovery report.
    pub(crate) fn gather_pass1_records(
        &self,
        params: &ShinglingParams,
        input: &impl AdjacencyInput,
        spill: &mut SpillStats,
    ) -> Result<(Vec<ExternalRun>, f64, RecoveryReport), DeviceError> {
        let plan = Plan::lower(params, &self.gpus)?;
        let mut d = Durability::default();
        let mut recovery = RecoveryReport::default();
        let source = ShardSource::Resident(input.flat());
        let pass1 = self.pass1(
            &plan,
            params,
            input.offsets(),
            &source,
            &mut d,
            &mut recovery,
        )?;
        spill.merge(&d.spill);
        Ok((pass1.runs, slowest(&pass1.makespan), recovery))
    }

    /// Passes II + III from a first-level shingle graph: the cheap passes
    /// the incremental engine re-runs after merging a delta into its
    /// index. The partition is bit-identical to the batch pipeline's given
    /// the same `first`.
    pub(crate) fn partition_from_first(
        &self,
        params: &ShinglingParams,
        n: usize,
        first: ShingleGraph,
    ) -> Result<(Partition, f64, RecoveryReport), DeviceError> {
        let mut recovery = RecoveryReport::default();
        let second = self.second_pass(params, first, n, &mut recovery)?;
        Ok((second.partition, second.makespan, recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{pass_two_graph, unsettled_lists};
    use crate::serial::SerialShingling;
    use gpclust_gpu::DeviceConfig;
    use gpclust_graph::generate::{planted_partition, PlantedConfig};

    fn graph(seed: u64) -> Csr {
        planted_partition(&PlantedConfig {
            group_sizes: vec![25, 18, 30, 12],
            n_noise_vertices: 15,
            p_intra: 0.8,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 0.5,
            seed,
        })
        .graph
    }

    #[test]
    fn shards_end_on_list_boundaries() {
        // Degrees 3, 0, 5, 2, 6; at s = 2 and one trial the vertices cost
        // 76, 0, 84, 72 and 88 bytes.
        let offsets = [0u64, 3, 3, 8, 10, 16];
        assert_eq!(even_shards(&offsets, 1), vec![0..16]);
        assert_eq!(even_shards(&offsets, 3), vec![0..8, 8..10, 10..16]);
        assert_eq!(even_shards(&offsets, 9).len(), 4, "one list per shard");
        assert_eq!(budget_shards(&offsets, 2, 1, 170), vec![0..8, 8..16]);
        assert_eq!(budget_shards(&offsets, 2, 1, 1000), vec![0..16]);
        // A vertex over the budget on its own is a best-effort shard.
        assert_eq!(budget_shards(&offsets, 2, 1, 50).len(), 4);
        assert!(even_shards(&[0, 0, 0], 2).is_empty());
        // Capacity cuts inside a shard are the only split lists: the cuts
        // at 4 and 12 split two lists, one in each shard.
        let (batches, chunks) = shard_batches(&offsets, &[0..8, 8..16], 4);
        assert_eq!(chunks, vec![0..2, 2..4]);
        let split: Vec<bool> = batches
            .iter()
            .map(|b| b.last_is_fragment(&offsets))
            .collect();
        assert_eq!(split, [true, false, true, false]);
        let (whole, _) = shard_batches(&offsets, &[0..8, 8..16], 8);
        assert!(whole.iter().all(|b| !b.last_is_fragment(&offsets)));
    }

    #[test]
    fn gpu_pipeline_matches_serial_exactly() {
        let g = pass_two_graph(21);
        let params = ShinglingParams::light(77);
        assert!(unsettled_lists(&g, params) >= 100);
        let serial = SerialShingling::new(params).unwrap().cluster(&g);
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 4);
        let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
        assert_eq!(report.partition, serial);
    }

    #[test]
    fn gpu_pipeline_matches_serial_under_tiny_memory() {
        // More unsettled lists than one tiny-device batch holds.
        let g = pass_two_graph(22);
        let params = ShinglingParams::light(78);
        assert!(unsettled_lists(&g, params) >= 100);
        let serial = SerialShingling::new(params).unwrap().cluster(&g);
        let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
        let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
        assert_eq!(report.partition, serial);
        assert!(report.batch_stats[1].n_batches >= 2, "Pass II must batch");
    }

    #[test]
    fn stream_makespan_beats_the_serialized_device_path() {
        let g = graph(25);
        let params = ShinglingParams::light(81);
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
        let t = report.times;
        // The double-buffered critical path is strictly shorter than the
        // blocking-copy total, and never beats the kernels alone.
        assert!(t.device_pipelined < t.device_serialized());
        assert!(t.device_pipelined >= t.gpu - 1e-9);
        assert!(t.total_pipelined() < t.total());
        // The copies are still all accounted in the transfer totals.
        assert!(report.counters.h2d_seconds > 0.0);
        assert!(report.counters.d2h_seconds > 0.0);
    }

    #[test]
    fn fused_select_kernel_matches_sort_compact_end_to_end() {
        use crate::params::ShingleKernel;
        let g = graph(26);
        let params = ShinglingParams::light(82);
        let sort_report = GpClust::new(
            params.with_kernel(ShingleKernel::SortCompact),
            Gpu::with_workers(DeviceConfig::tiny_test_device(), 2),
        )
        .unwrap()
        .cluster(&g)
        .unwrap();
        let sel_report = GpClust::new(
            params.with_kernel(ShingleKernel::FusedSelect),
            Gpu::with_workers(DeviceConfig::tiny_test_device(), 2),
        )
        .unwrap()
        .cluster(&g)
        .unwrap();
        assert_eq!(sort_report.partition, sel_report.partition);
        // One footprint → the same batches, and less modeled kernel time
        // on the O(d) selection run in trial groups.
        assert_eq!(sel_report.times.elem_footprint_bytes, 16);
        assert_eq!(sort_report.times.elem_footprint_bytes, 16);
        assert_eq!(sel_report.times.n_batches, sort_report.times.n_batches);
        assert!(sel_report.times.gpu < sort_report.times.gpu);
    }

    #[test]
    fn report_carries_batch_stats() {
        // Several times the tiny device's batch capacity, so pass I must
        // split.
        let g = planted_partition(&PlantedConfig {
            group_sizes: vec![120, 100, 80],
            n_noise_vertices: 20,
            p_intra: 0.5,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed: 27,
        })
        .graph;
        let params = ShinglingParams::light(83);
        let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
        let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
        assert!(
            report.batch_stats[0].n_batches > 1,
            "tiny device must split"
        );
        assert!(report.batch_stats[1].n_batches >= 1);
        assert_eq!(
            report.times.n_batches,
            report.batch_stats[0].n_batches + report.batch_stats[1].n_batches
        );
        assert!(report.times.max_batch_elems > 0);
    }

    #[test]
    fn report_carries_times_and_counts() {
        let g = graph(23);
        let params = ShinglingParams::light(79);
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let report = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap();
        assert!(report.times.gpu > 0.0);
        assert!(report.times.h2d > 0.0);
        assert!(report.times.d2h > 0.0);
        assert!(report.times.total() > 0.0);
        assert!(report.first_level_shingles > 0);
        assert!(report.counters.kernel_launches > 0);
        // One D2H per trial group of each pass's one batch: at least one
        // per pass, at most one per trial.
        let c_total = (params.c1 + params.c2) as u64;
        assert!((2..=c_total).contains(&report.counters.d2h_transfers));
    }

    #[test]
    fn cluster_from_file_roundtrip() {
        let g = graph(24);
        let dir = std::env::temp_dir().join("gpclust_pipeline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        gpclust_graph::io::write_file(&path, &g).unwrap();

        let params = ShinglingParams::light(80);
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let pipeline = GpClust::new(params, gpu).unwrap();
        let from_file = pipeline.cluster_from_file(&path).unwrap();
        assert!(from_file.times.disk_io > 0.0);

        let in_memory = pipeline.cluster(&g).unwrap();
        assert_eq!(from_file.partition, in_memory.partition);
        std::fs::remove_file(&path).ok();
    }

    /// The three host clocks of a one-device run — CPU, kernel emulation
    /// and disk — add up to the wall time the caller measures around
    /// `cluster_from_file`, to within 10 ms + 5 % (the few statements
    /// outside the run's own stopwatch).
    #[test]
    fn host_clocks_add_up_to_the_wall_time() {
        let g = graph(25);
        let dir = std::env::temp_dir().join("gpclust_pipeline_clocks_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        gpclust_graph::io::write_file(&path, &g).unwrap();
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let pipeline = GpClust::new(ShinglingParams::light(81), gpu).unwrap();
        let start = Instant::now();
        let t = pipeline.cluster_from_file(&path).unwrap().times;
        let wall = start.elapsed().as_secs_f64();
        std::fs::remove_file(&path).ok();
        assert!(t.emulation > 0.0, "{t}");
        let host = t.cpu + t.emulation + t.disk_io;
        assert!(
            host <= wall + 1e-9,
            "host clocks {host} exceed wall {wall}: {t}"
        );
        assert!(
            wall - host <= 0.010 + 0.05 * wall,
            "host clocks {host} vs wall {wall}: {t}"
        );
    }

    /// The out-of-core sharded path must be bit-identical to the resident
    /// oracle across shard counts × kernels, while actually spilling and
    /// measuring residency.
    #[test]
    fn sharded_spilled_run_matches_resident_oracle() {
        use crate::params::ShingleKernel;
        let g = pass_two_graph(30);
        let params = ShinglingParams::light(86);
        assert!(unsettled_lists(&g, params) >= 100);
        let oracle = GpClust::new(
            params,
            Gpu::with_workers(DeviceConfig::tiny_test_device(), 2),
        )
        .unwrap()
        .cluster(&g)
        .unwrap();
        for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
            for shards in [2u32, 3, 8] {
                let p = params.with_kernel(kernel).with_shards(shards);
                let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 2);
                let r = GpClust::new(p, gpu).unwrap().cluster(&g).unwrap();
                assert_eq!(r.partition, oracle.partition, "{kernel:?}/{shards}");
                assert_eq!(
                    r.first_level_shingles, oracle.first_level_shingles,
                    "{kernel:?}/{shards}"
                );
                assert!(r.times.spilled_bytes > 0, "{kernel:?}/{shards}");
                assert!(r.times.peak_resident_bytes > 0, "{kernel:?}/{shards}");
                assert!(r.times.disk_io > 0.0, "spill traffic reports as disk I/O");
            }
        }
    }

    /// A byte budget (not an explicit shard count) derives the shard count
    /// and the recorded peak respects it, on one device and a fleet. On
    /// the K20 every list-aligned shard runs as one batch; the tiny
    /// device is smaller than a shard, so its capacity cuts split lists
    /// inside shards and their fragments finalize into each shard's last
    /// run.
    #[test]
    fn byte_budget_derives_shards_and_bounds_residency() {
        let g = planted_partition(&PlantedConfig {
            group_sizes: vec![120, 100, 80],
            n_noise_vertices: 20,
            p_intra: 0.6,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed: 31,
        })
        .graph;
        let params = ShinglingParams::light(87);
        let oracle = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        // The CI out-of-core job exports GPCLUST_MEM_BUDGET, which bounds
        // this oracle too; only a genuinely env-free run is spill-free.
        if std::env::var_os("GPCLUST_MEM_BUDGET").is_none() {
            assert_eq!(oracle.times.spilled_bytes, 0, "unbounded runs never spill");
            assert_eq!(oracle.times.peak_resident_bytes, 0);
        }
        let est = Plan::estimate_pass_resident_bytes(g.offsets(), params.s1, params.c1);
        let budget = est / 4;
        let rows = [
            (DeviceConfig::tesla_k20(), false),
            (DeviceConfig::tiny_test_device(), true),
        ];
        for (device, cuts_lists) in rows {
            for n_dev in [1usize, 2] {
                let gpus = (0..n_dev)
                    .map(|_| Gpu::with_workers(device.clone(), 2))
                    .collect();
                let r = MultiGpuClust::new(params.with_mem_budget(budget), gpus)
                    .unwrap()
                    .cluster(&g)
                    .unwrap();
                let row = format!("{} x{n_dev}", device.name);
                assert_eq!(r.partition, oracle.partition, "{row}");
                assert!(r.times.spilled_bytes > 0, "{row}");
                assert!(r.times.shards > 1, "{row}");
                assert!(
                    r.times.peak_resident_bytes <= budget,
                    "{row}: peak {} exceeds budget {budget}",
                    r.times.peak_resident_bytes
                );
                let cut_inside = r.batch_stats[0].n_batches > r.times.shards;
                assert_eq!(cut_inside, cuts_lists, "{row}");
            }
        }
    }

    /// File-backed out-of-core: under a bounded budget the loader keeps
    /// only the offsets resident and shards stream their target windows
    /// from disk — same partition as the fully resident run.
    #[test]
    fn out_of_core_from_file_matches_resident() {
        let g = pass_two_graph(32);
        let dir = std::env::temp_dir().join("gpclust_oocore_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        gpclust_graph::io::write_file(&path, &g).unwrap();
        let params = ShinglingParams::light(88);
        assert!(unsettled_lists(&g, params) >= 100);
        let resident = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 2))
            .unwrap()
            .cluster(&g)
            .unwrap();
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let oocore = GpClust::new(params.with_shards(3), gpu)
            .unwrap()
            .cluster_from_file(&path)
            .unwrap();
        assert_eq!(oocore.partition, resident.partition);
        assert!(oocore.times.spilled_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    /// A failure through `cluster_from_file` keeps its own message and is
    /// not dressed up as an out-of-memory error: an injected kill reads as
    /// the kill it is.
    #[test]
    fn cluster_from_file_keeps_the_failure_kind() {
        use crate::checkpoint::{CrashPlan, KILL_MARKER};
        let g = graph(33);
        let dir = std::env::temp_dir().join(format!("gpclust-kill-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        gpclust_graph::io::write_file(&path, &g).unwrap();
        let cfg = CheckpointConfig::new(dir.join("ckpt"))
            .with_crash(CrashPlan::scheduled().with_kill(CrashSite::Merge, 1));
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 2);
        let err = GpClust::new(ShinglingParams::light(89).with_shards(2), gpu)
            .unwrap()
            .with_checkpoint(cfg)
            .cluster_from_file(&path)
            .unwrap_err();
        assert_ne!(err.kind(), std::io::ErrorKind::OutOfMemory, "{err}");
        assert!(err.to_string().contains(KILL_MARKER), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An `OutOfMemory` in a later shard re-plans Pass I at half the
    /// capacity; under a checkpoint the re-plan replays the shards that
    /// committed before the fault instead of re-running them.
    #[test]
    fn oom_replan_reuses_committed_shards() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let g = graph(34);
        let params = ShinglingParams::light(90).with_shards(3);
        let oracle = GpClust::new(params, Gpu::with_workers(DeviceConfig::tesla_k20(), 1))
            .unwrap()
            .cluster(&g)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("gpclust-oom-replan-{}", std::process::id()));
        let mut replayed = 0;
        for occurrence in 1..=12 {
            let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
            gpu.set_fault_plan(FaultPlan::scheduled().with_fault(
                FaultSite::Alloc,
                occurrence,
                FaultKind::OutOfMemory,
            ));
            let r = GpClust::new(params, gpu)
                .unwrap()
                .with_checkpoint(CheckpointConfig::new(&dir))
                .cluster(&g)
                .unwrap();
            let rec = r.times.recovery;
            assert_eq!(r.partition, oracle.partition, "alloc {occurrence}: {rec}");
            assert_eq!(rec.oom_backoffs, 1, "alloc {occurrence}: {rec}");
            assert_eq!(rec.checksum_failures, 0, "alloc {occurrence}: {rec}");
            replayed = replayed.max(rec.resumed_shards);
        }
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            replayed, 2,
            "a fault in the last shard replays the first two"
        );
    }

    #[test]
    fn rejects_invalid_params() {
        let mut p = ShinglingParams::light(0);
        p.s2 = 0;
        let gpu = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
        assert!(GpClust::new(p, gpu).is_err());
    }

    #[test]
    fn surfaces_device_oom_as_error() {
        // A device so small that even a single batch's working buffers
        // cannot fit: the pipeline must return OutOfMemory, not panic.
        use crate::params::ShingleKernel;
        let g = graph(40);
        for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
            let mut cfg = DeviceConfig::tiny_test_device();
            cfg.global_mem_bytes = 8; // one u64 only
            let gpu = Gpu::with_workers(cfg, 1);
            let params = ShinglingParams::light(1).with_kernel(kernel);
            let err = GpClust::new(params, gpu).unwrap().cluster(&g).unwrap_err();
            assert!(
                matches!(err, gpclust_gpu::DeviceError::OutOfMemory { .. }),
                "{kernel:?}: {err:?}"
            );
        }
    }

    #[test]
    fn device_survives_oom_and_recovers() {
        // After an OOM the same device must still run real workloads.
        let mut cfg = DeviceConfig::tiny_test_device();
        cfg.global_mem_bytes = 4 * 1024;
        let gpu = Gpu::with_workers(cfg, 1);
        assert!(gpu.alloc::<u64>(10_000).is_err());
        let g = pass_two_graph(41);
        let params = ShinglingParams::light(2);
        assert!(unsettled_lists(&g, params) >= 100);
        let pipeline = GpClust::new(params, gpu).unwrap();
        let report = pipeline.cluster(&g).unwrap();
        assert!(report.partition.n_groups() > 0);
    }
}
