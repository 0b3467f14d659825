//! Durable checkpoint/restore for the out-of-core passes — the process-
//! and storage-fault half of the fault model ([`crate::params::FaultPolicy`]
//! recovers from *device* faults inside a live process; this module makes
//! the work survive the process itself).
//!
//! ## Manifest journal
//!
//! A checkpointed run keeps a `manifest.json` in its checkpoint directory:
//! the input fingerprint (FNV-1a over the offset array — the structure a
//! spilled run is only valid against), the plan axes the run was lowered
//! with, and one *entry group* per sharded pass invocation (keyed by a
//! plan signature over the device capacity and the shard ranges), each
//! entry recording a completed shard's sealed run files, their checksums,
//! and its fragment-pool segment. Every rewrite is atomic and durable:
//! temp file → `fsync` → `rename` → directory `fsync`, so the manifest on
//! disk is always a complete, parseable journal of *committed* shards.
//!
//! ## Commit points and resume
//!
//! The drivers seal a shard (write + `fsync` its runs and pool segment),
//! then commit its manifest entry — in that order, so a crash between the
//! two leaves orphan files that the re-run simply overwrites. `--resume`
//! re-lowers the same plan, refuses on fingerprint or axes mismatch with
//! a typed [`CheckpointError`], re-verifies every surviving run's framing
//! checksums, and re-executes only shards whose entries are absent or
//! fail verification — bit-identical to an uninterrupted run because the
//! reused runs and pool segments are byte-faithful replicas of what the
//! uninterrupted run would have produced at the same point.
//!
//! ## Crash injection
//!
//! [`CrashPlan`] mirrors the device-fault [`gpclust_gpu::FaultPlan`]:
//! named crash sites (shard-seal / manifest-commit / merge), scheduled or
//! seeded-random kills, driven in-process by an early-return "kill" (a
//! typed host-I/O error carrying [`KILL_MARKER`]) so property tests can
//! restart deterministically where a real `kill -9` cannot be replayed.

use crate::params::{MemoryBudget, ShinglingParams};
use crate::shingle::RawShingles;
use crate::spill::{SpillStats, SpilledRun};
use gpclust_gpu::DeviceError;
use gpclust_support::json::{self, esc, Json};
use gpclust_support::rng::StdRng;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// File name of the manifest journal inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Manifest format version (bumped on incompatible schema changes).
const MANIFEST_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Checksums and fingerprints (hand-rolled: the workspace takes no new deps).
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Incremental IEEE CRC-32 — the per-frame checksum of spilled runs and
/// pool segments. Table-driven, byte-at-a-time; plenty for detecting the
/// truncation and bit-flip corruption this layer guards against.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The finished checksum (the digest stays usable for further updates).
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a over a word sequence (length-prefixed so `[a]` and
/// `[a, 0]` differ) — the manifest's signature primitive.
pub fn signature(parts: &[u64]) -> u64 {
    let mut h = fnv_u64(FNV_OFFSET, parts.len() as u64);
    for &p in parts {
        h = fnv_u64(h, p);
    }
    h
}

/// How many targets from each end of the edge array the whole-input
/// fingerprint samples. Bounded so the print stays cheap to recompute
/// even when the target array lives on disk.
pub const FINGERPRINT_SAMPLE: u64 = 1024;

/// Fingerprint of a whole CSR input: FNV-1a over the offset array (vertex
/// count, every list boundary, the element total) plus a bounded head/tail
/// sample of the target array. Offsets alone pin only the degree
/// structure — two different graphs with the same degree sequence collide
/// — so the print also folds in edge identity without ever reading more
/// than `2 × FINGERPRINT_SAMPLE` targets.
pub fn fingerprint_csr(offsets: &[u64], head: &[u32], tail: &[u32]) -> u64 {
    let mut h = fnv_u64(signature(offsets), head.len() as u64);
    for &t in head.iter().chain(tail) {
        h = fnv_u64(h, t as u64);
    }
    h
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// Environment hook installing a crash plan on every checkpointed run
/// (the in-process analogue of `GPCLUST_INJECT_FAULTS`).
pub const CRASH_ENV: &str = "GPCLUST_INJECT_CRASH";

/// Marker substring carried by every injected kill's error detail — how
/// tests (and operators) tell an injected crash from a real I/O failure.
pub const KILL_MARKER: &str = "crash-injected kill";

/// The named boundaries a checkpointed run can be killed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After a shard's runs and pool segment are sealed (written + synced)
    /// but before its manifest entry commits — resume re-runs the shard,
    /// overwriting the orphan files.
    ShardSeal,
    /// After the shard's manifest entry commits — resume skips the shard.
    ManifestCommit,
    /// After every shard committed, before the external merge — resume
    /// skips all shards and only re-merges.
    Merge,
}

impl CrashSite {
    /// Dense index (occurrence-counter slot).
    pub fn index(self) -> usize {
        match self {
            CrashSite::ShardSeal => 0,
            CrashSite::ManifestCommit => 1,
            CrashSite::Merge => 2,
        }
    }

    /// Stable spec/display name.
    pub fn name(self) -> &'static str {
        match self {
            CrashSite::ShardSeal => "shard-seal",
            CrashSite::ManifestCommit => "manifest-commit",
            CrashSite::Merge => "merge",
        }
    }

    fn parse(tok: &str) -> Option<CrashSite> {
        match tok {
            "shard-seal" | "seal" => Some(CrashSite::ShardSeal),
            "manifest-commit" | "commit" => Some(CrashSite::ManifestCommit),
            "merge" => Some(CrashSite::Merge),
            _ => None,
        }
    }
}

/// A reproducible crash-injection plan — [`gpclust_gpu::FaultPlan`]'s
/// shape applied to process deaths: scheduled kills name a site and the
/// 1-based occurrence to die at; random mode draws a Bernoulli kill per
/// site visit from a seeded SplitMix64 stream. A plan kills at most
/// once per run (a process only dies once); the injector re-arms on the
/// next run because each run builds a fresh [`CrashInjector`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashPlan {
    seed: u64,
    rate: f64,
    schedule: Vec<(CrashSite, u64)>,
}

impl CrashPlan {
    /// A plan that never kills.
    pub fn none() -> CrashPlan {
        CrashPlan::default()
    }

    /// An empty scheduled plan; add kills with [`CrashPlan::with_kill`].
    pub fn scheduled() -> CrashPlan {
        CrashPlan::default()
    }

    /// Seeded random kills at `rate` per site visit.
    pub fn random(seed: u64, rate: f64) -> CrashPlan {
        CrashPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            schedule: Vec::new(),
        }
    }

    /// Also kill at the `occurrence`-th (1-based) visit of `site`.
    pub fn with_kill(mut self, site: CrashSite, occurrence: u64) -> CrashPlan {
        self.schedule.push((site, occurrence.max(1)));
        self
    }

    /// True when the plan can never fire.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty() && self.rate <= 0.0
    }

    /// Parse `"<site>:<occurrence>[,...]"` (site names or the short forms
    /// `seal`/`commit`/`merge`) or the random form `"<seed>:<rate>"`.
    pub fn parse(spec: &str) -> Result<CrashPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(CrashPlan::none());
        }
        if spec.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            let (seed, rate) = spec
                .split_once(':')
                .ok_or_else(|| format!("bad crash spec {spec:?}: want <seed>:<rate>"))?;
            let seed = seed
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("bad crash seed: {e}"))?;
            let rate = rate
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("bad crash rate: {e}"))?;
            return Ok(CrashPlan::random(seed, rate));
        }
        let mut plan = CrashPlan::scheduled();
        for part in spec.split(',') {
            let (site, occ) = part
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("bad crash kill {part:?}: want <site>:<occurrence>"))?;
            let site = CrashSite::parse(site.trim())
                .ok_or_else(|| format!("unknown crash site {site:?}"))?;
            let occ = occ
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("bad crash occurrence: {e}"))?;
            plan = plan.with_kill(site, occ);
        }
        Ok(plan)
    }

    /// The plan [`CRASH_ENV`] requests, if any (malformed specs warn and
    /// are ignored, matching the fault injector's env behavior).
    pub fn from_env() -> Option<CrashPlan> {
        let spec = std::env::var(CRASH_ENV).ok()?;
        match CrashPlan::parse(&spec) {
            Ok(p) if !p.is_empty() => Some(p),
            Ok(_) => None,
            Err(e) => {
                eprintln!("ignoring {CRASH_ENV}: {e}");
                None
            }
        }
    }
}

/// Per-run crash state: site visit counters plus the fired-once latch.
#[derive(Debug)]
pub struct CrashInjector {
    plan: CrashPlan,
    hits: [AtomicU64; 3],
    fired: AtomicBool,
}

impl CrashInjector {
    /// Arm `plan` for one run.
    pub fn new(plan: CrashPlan) -> CrashInjector {
        CrashInjector {
            plan,
            hits: Default::default(),
            fired: AtomicBool::new(false),
        }
    }

    /// Visit `site`: returns the injected kill (a typed host-I/O error
    /// carrying [`KILL_MARKER`]) when the plan says this process dies
    /// here, `Ok` otherwise. The early return unwinds the driver exactly
    /// like a power cut after the last completed `fsync` — everything
    /// sealed is durable, everything else is lost.
    pub fn strike(&self, site: CrashSite) -> Result<(), DeviceError> {
        let hit = self.hits[site.index()].fetch_add(1, Ordering::SeqCst) + 1;
        let scheduled = self
            .plan
            .schedule
            .iter()
            .any(|&(s, occ)| s == site && occ == hit);
        let random = self.plan.rate > 0.0 && {
            let seed = self
                .plan
                .seed
                .wrapping_add(((site.index() as u64) << 32) | hit);
            StdRng::seed_from_u64(seed).gen::<f64>() < self.plan.rate
        };
        if (scheduled || random) && !self.fired.swap(true, Ordering::SeqCst) {
            return Err(DeviceError::HostIo {
                detail: format!("{KILL_MARKER} at {} (occurrence {hit})", site.name()),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of the checkpoint layer — what `--resume` refuses with.
#[derive(Debug)]
pub enum CheckpointError {
    /// `--resume` was asked for but no manifest exists.
    Missing {
        /// The manifest path that was not found.
        path: PathBuf,
    },
    /// The manifest exists but does not parse as a valid journal.
    Corrupt {
        /// The offending manifest path.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// The manifest was written for a different input graph.
    FingerprintMismatch {
        /// Fingerprint recorded in the manifest.
        manifest: u64,
        /// Fingerprint of the input now being clustered.
        current: u64,
    },
    /// The manifest was written under different plan axes.
    AxesMismatch {
        /// Which axis disagrees.
        axis: String,
        /// The manifest's recorded value.
        manifest: String,
        /// The current run's value.
        current: String,
    },
    /// An underlying filesystem failure.
    Io(io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing { path } => {
                write!(f, "nothing to resume: no manifest at {}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt manifest {}: {detail}", path.display())
            }
            CheckpointError::FingerprintMismatch { manifest, current } => write!(
                f,
                "input fingerprint mismatch: manifest was written for input \
                 {manifest:#018x}, current input is {current:#018x} — refusing to resume"
            ),
            CheckpointError::AxesMismatch {
                axis,
                manifest,
                current,
            } => write!(
                f,
                "plan axes mismatch on {axis:?}: manifest recorded {manifest}, \
                 current run uses {current} — refusing to resume"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Surface a checkpoint failure through the drivers' device-error channel.
pub(crate) fn to_device(e: impl fmt::Display) -> DeviceError {
    DeviceError::HostIo {
        detail: format!("checkpoint: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Configuration and manifest model
// ---------------------------------------------------------------------------

/// How a driver checkpoints: where the manifest and sealed runs live,
/// whether to resume from an existing manifest, and the crash plan to arm
/// (tests; [`CrashPlan::none`] in production).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding `manifest.json` and the sealed run/pool files.
    pub dir: PathBuf,
    /// Resume from the existing manifest (refusing on fingerprint/axes
    /// mismatch) instead of starting a fresh journal.
    pub resume: bool,
    /// Crash-injection plan for this run.
    pub crash: CrashPlan,
}

impl CheckpointConfig {
    /// Checkpoint into `dir`, fresh journal, no crash injection.
    pub fn new<P: Into<PathBuf>>(dir: P) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            resume: false,
            crash: CrashPlan::none(),
        }
    }

    /// Same directory, resuming.
    pub fn resuming(mut self) -> CheckpointConfig {
        self.resume = true;
        self
    }

    /// Arm `plan` for this run.
    pub fn with_crash(mut self, plan: CrashPlan) -> CheckpointConfig {
        self.crash = plan;
        self
    }
}

/// Manifest record of one sealed spilled run.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// File name inside the checkpoint directory.
    pub file: String,
    /// Record count.
    pub records: u64,
    /// Shingle size the records carry.
    pub s: u64,
    /// CRC-32 over the run's payload bytes.
    pub crc: u32,
}

impl RunMeta {
    /// Meta of a just-sealed `run` stored as `file`.
    pub fn of(file: String, run: &SpilledRun) -> RunMeta {
        RunMeta {
            file,
            records: run.len() as u64,
            s: run.s() as u64,
            crc: run.crc(),
        }
    }
}

/// Manifest record of one shard's fragment-pool segment.
#[derive(Debug, Clone)]
pub struct PoolMeta {
    /// File name inside the checkpoint directory.
    pub file: String,
    /// Record count.
    pub records: u64,
    /// CRC-32 over the segment's payload bytes.
    pub crc: u32,
}

#[derive(Debug, Clone)]
struct ManifestEntry {
    key: u64,
    input_fp: u64,
    runs: Vec<RunMeta>,
    pool: Option<PoolMeta>,
}

#[derive(Debug, Clone)]
struct ManifestGroup {
    sig: u64,
    entries: Vec<ManifestEntry>,
}

/// A verified, reusable shard reloaded from the checkpoint directory.
#[derive(Debug)]
pub struct ReusedEntry {
    /// The shard's sealed runs, reopened and checksum-verified.
    pub runs: Vec<SpilledRun>,
    /// The shard's fragment-pool contribution, in original record order.
    pub pool: RawShingles,
}

/// Outcome of asking the journal for a completed shard.
#[derive(Debug)]
pub enum Reuse {
    /// The entry exists and every file verified clean.
    Hit(ReusedEntry),
    /// The entry exists but a file is corrupt, truncated, or mismatched —
    /// detected, dropped, and the shard re-executes.
    Invalid,
    /// No entry: the shard never committed.
    Miss,
}

/// The plan axes a manifest pins — compared key-by-key on `--resume`,
/// walking only this record's keys, so a manifest that also records axes
/// this build no longer has still resumes. The kernel is not an axis:
/// both kernels seal bit-identical records, so a journal written under
/// one resumes under the other. Capacity-derived quantities are
/// deliberately *not* here either: they live in
/// the per-invocation group signature, where a mismatch means "no
/// reusable entries", not "refuse the resume" (an OOM backoff mid-run
/// must not strand an otherwise valid checkpoint).
pub fn axes_record(
    p: &ShinglingParams,
    budget: MemoryBudget,
    n_devices: usize,
) -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    m.insert("s1".into(), p.s1.to_string());
    m.insert("c1".into(), p.c1.to_string());
    m.insert("s2".into(), p.s2.to_string());
    m.insert("c2".into(), p.c2.to_string());
    m.insert("seed".into(), p.seed.to_string());
    m.insert(
        "budget_bytes".into(),
        budget.bytes.map_or("none".into(), |b| b.to_string()),
    );
    m.insert(
        "budget_shards".into(),
        budget.shards.map_or("none".into(), |s| s.to_string()),
    );
    m.insert("n_devices".into(), n_devices.to_string());
    m
}

// ---------------------------------------------------------------------------
// The checkpointer
// ---------------------------------------------------------------------------

/// The durable run journal: owns the manifest, names the sealed files,
/// verifies and hands back completed shards on resume, and commits new
/// entries atomically.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    fingerprint: u64,
    axes: BTreeMap<String, String>,
    /// Groups begun this process — what [`Checkpointer::persist`] writes.
    groups: Vec<ManifestGroup>,
    /// Groups loaded from a resumed manifest, awaiting [`begin_group`].
    ///
    /// [`begin_group`]: Checkpointer::begin_group
    loaded: Vec<ManifestGroup>,
    /// Reusable entries of the active group, keyed by shard key.
    reusable: HashMap<u64, ManifestEntry>,
    active: Option<usize>,
}

impl Checkpointer {
    /// Open (or create) the journal in `cfg.dir` for an input with
    /// `fingerprint` under `axes`. Fresh mode wipes any stale manifest
    /// and sealed files and writes an empty journal (so a crash before
    /// the first commit still resumes cleanly); resume mode loads the
    /// manifest and refuses on fingerprint or axes mismatch.
    pub fn open(
        cfg: &CheckpointConfig,
        fingerprint: u64,
        axes: &BTreeMap<String, String>,
    ) -> Result<Checkpointer, CheckpointError> {
        fs::create_dir_all(&cfg.dir)?;
        let path = cfg.dir.join(MANIFEST_FILE);
        if cfg.resume {
            let text = fs::read_to_string(&path).map_err(|e| {
                if e.kind() == io::ErrorKind::NotFound {
                    CheckpointError::Missing { path: path.clone() }
                } else {
                    CheckpointError::Io(e)
                }
            })?;
            let loaded = parse_manifest(&text).map_err(|detail| CheckpointError::Corrupt {
                path: path.clone(),
                detail,
            })?;
            if loaded.fingerprint != fingerprint {
                return Err(CheckpointError::FingerprintMismatch {
                    manifest: loaded.fingerprint,
                    current: fingerprint,
                });
            }
            for (axis, current) in axes {
                match loaded.axes.get(axis) {
                    Some(recorded) if recorded == current => {}
                    recorded => {
                        return Err(CheckpointError::AxesMismatch {
                            axis: axis.clone(),
                            manifest: recorded.cloned().unwrap_or_else(|| "<absent>".into()),
                            current: current.clone(),
                        })
                    }
                }
            }
            Ok(Checkpointer {
                dir: cfg.dir.clone(),
                fingerprint,
                axes: axes.clone(),
                groups: Vec::new(),
                loaded: loaded.groups,
                reusable: HashMap::new(),
                active: None,
            })
        } else {
            sweep_sealed_files(&cfg.dir)?;
            let ck = Checkpointer {
                dir: cfg.dir.clone(),
                fingerprint,
                axes: axes.clone(),
                groups: Vec::new(),
                loaded: Vec::new(),
                reusable: HashMap::new(),
                active: None,
            };
            ck.persist()?;
            Ok(ck)
        }
    }

    /// The input fingerprint the journal was opened with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Start (or re-enter) the entry group for one sharded pass
    /// invocation. A loaded group with the same `sig` donates its entries
    /// for reuse; a sig never seen before starts empty — entries from
    /// other signatures are simply not reusable (their shard carving
    /// differs), never grounds for refusing the run.
    pub fn begin_group(&mut self, sig: u64) {
        self.reusable.clear();
        if let Some(i) = self.groups.iter().position(|g| g.sig == sig) {
            // Re-entered within this process (an OOM backoff replaying the
            // pass at an unchanged shard capacity): this attempt's own
            // commits become reusable, pending re-verification.
            for e in std::mem::take(&mut self.groups[i].entries) {
                self.reusable.insert(e.key, e);
            }
            self.active = Some(i);
            return;
        }
        if let Some(i) = self.loaded.iter().position(|g| g.sig == sig) {
            for e in self.loaded.swap_remove(i).entries {
                self.reusable.insert(e.key, e);
            }
        }
        self.groups.push(ManifestGroup {
            sig,
            entries: Vec::new(),
        });
        self.active = Some(self.groups.len() - 1);
    }

    fn active_sig(&self) -> u64 {
        self.groups[self.active.expect("begin_group before naming files")].sig
    }

    /// File name of sealed run `k` of shard `key` in the active group.
    pub fn run_file(&self, key: u64, k: usize) -> String {
        format!("g{:016x}-e{key}-r{k}.run", self.active_sig())
    }

    /// Path of sealed run `k` of shard `key` in the active group.
    pub fn run_path(&self, key: u64, k: usize) -> PathBuf {
        self.dir.join(self.run_file(key, k))
    }

    /// File name of shard `key`'s pool segment in the active group.
    pub fn pool_file(&self, key: u64) -> String {
        format!("g{:016x}-e{key}.pool", self.active_sig())
    }

    /// Path of shard `key`'s pool segment in the active group.
    pub fn pool_path(&self, key: u64) -> PathBuf {
        self.dir.join(self.pool_file(key))
    }

    /// Ask the journal for shard `key` of an input with `input_fp`,
    /// re-verifying every surviving file's checksums (`s` is the shingle
    /// size the records must carry). A [`Reuse::Hit`] moves the entry
    /// into the active group so later commits keep it in the journal.
    pub fn take_entry(&mut self, key: u64, input_fp: u64, s: usize) -> Reuse {
        let Some(entry) = self.reusable.remove(&key) else {
            return Reuse::Miss;
        };
        if entry.input_fp != input_fp {
            return Reuse::Invalid;
        }
        let mut runs = Vec::with_capacity(entry.runs.len());
        for rm in &entry.runs {
            if rm.s as usize != s {
                return Reuse::Invalid;
            }
            match SpilledRun::reopen(self.dir.join(&rm.file)) {
                Ok(run) if run.len() as u64 == rm.records && run.crc() == rm.crc => runs.push(run),
                _ => return Reuse::Invalid,
            }
        }
        let mut pool = RawShingles::new(s);
        if let Some(pm) = &entry.pool {
            if read_pool(&self.dir.join(&pm.file), pm.records, pm.crc, &mut pool).is_err() {
                return Reuse::Invalid;
            }
        }
        let gi = self.active.expect("begin_group before take_entry");
        self.groups[gi].entries.push(entry);
        Reuse::Hit(ReusedEntry { runs, pool })
    }

    /// Commit shard `key`: append its entry and atomically persist the
    /// journal. The caller must have sealed (written + synced) every file
    /// the entry names *before* committing — the crash contract is that a
    /// committed entry's files are always durable.
    pub fn commit_entry(
        &mut self,
        key: u64,
        input_fp: u64,
        runs: Vec<RunMeta>,
        pool: Option<PoolMeta>,
    ) -> io::Result<()> {
        let gi = self.active.expect("begin_group before commit_entry");
        self.groups[gi].entries.push(ManifestEntry {
            key,
            input_fp,
            runs,
            pool,
        });
        self.persist()
    }

    /// Atomically rewrite the manifest: temp file, `fsync`, rename over
    /// [`MANIFEST_FILE`], `fsync` the directory.
    fn persist(&self) -> io::Result<()> {
        let tmp = self.dir.join("manifest.json.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// The run completed: remove the manifest and every sealed file (the
    /// checkpoint directory is left empty, ready for the next run).
    pub fn finalize(self) -> io::Result<()> {
        let _ = fs::remove_file(self.dir.join("manifest.json.tmp"));
        fs::remove_file(self.dir.join(MANIFEST_FILE))?;
        sweep_sealed_files(&self.dir)
    }

    fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {MANIFEST_VERSION},\n"));
        out.push_str(&format!("  \"fingerprint\": {},\n", self.fingerprint));
        out.push_str("  \"axes\": {");
        for (i, (k, v)) in self.axes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\": \"{}\"", esc(k), esc(v)));
        }
        out.push_str("},\n  \"groups\": [");
        for (gi, g) in self.groups.iter().enumerate() {
            if gi > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{\"sig\": {}, \"entries\": [", g.sig));
            for (ei, e) in g.entries.iter().enumerate() {
                if ei > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"key\": {}, \"input_fp\": {}, \"runs\": [",
                    e.key, e.input_fp
                ));
                for (ri, r) in e.runs.iter().enumerate() {
                    if ri > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"file\": \"{}\", \"records\": {}, \"s\": {}, \"crc\": {}}}",
                        esc(&r.file),
                        r.records,
                        r.s,
                        r.crc
                    ));
                }
                out.push(']');
                if let Some(p) = &e.pool {
                    out.push_str(&format!(
                        ", \"pool\": {{\"file\": \"{}\", \"records\": {}, \"crc\": {}}}",
                        esc(&p.file),
                        p.records,
                        p.crc
                    ));
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Remove every sealed run/pool file in `dir` (not the manifest).
fn sweep_sealed_files(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".run") || name.ends_with(".pool") {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pool segments: a shard's fragment-pool contribution, made durable.
// ---------------------------------------------------------------------------

const POOL_MAGIC: &[u8; 8] = b"GPCLPOL1";
const POOL_HEADER: usize = 32;

/// Seal `raw`'s records from index `start` on into `path` — the shard's
/// fragment-pool delta, in emission order (resume must append it to the
/// global pool exactly where the uninterrupted run would have). Returns
/// `(records, payload crc)`; traffic tallies into `stats`. The file is
/// synced before returning, per the seal-before-commit contract.
pub fn write_pool(
    path: &Path,
    raw: &RawShingles,
    start: usize,
    stats: &mut SpillStats,
) -> io::Result<(u64, u32)> {
    let t0 = Instant::now();
    let records = (raw.len() - start) as u64;
    let mut payload = Vec::new();
    for i in start..raw.len() {
        let (trial, node, pairs) = raw.record(i);
        payload.extend_from_slice(&trial.to_le_bytes());
        payload.extend_from_slice(&node.to_le_bytes());
        payload.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for &p in pairs {
            payload.extend_from_slice(&p.to_le_bytes());
        }
    }
    let crc = crc32(&payload);
    let mut header = [0u8; POOL_HEADER];
    header[..8].copy_from_slice(POOL_MAGIC);
    header[8..16].copy_from_slice(&records.to_le_bytes());
    header[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[24..28].copy_from_slice(&crc.to_le_bytes());
    let mut f = File::create(path)?;
    f.write_all(&header)?;
    f.write_all(&payload)?;
    f.sync_all()?;
    stats.bytes += (POOL_HEADER + payload.len()) as u64;
    stats.write_seconds += t0.elapsed().as_secs_f64();
    Ok((records, crc))
}

fn pool_corrupt(path: &Path, offset: u64, detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "pool segment {} corrupt at byte {offset}: {detail}",
            path.display()
        ),
    )
}

/// Reload a pool segment into `into`, verifying the length framing, the
/// payload CRC, and the record count against the manifest's expectation —
/// truncation and bit flips are detected, never silently appended.
pub fn read_pool(
    path: &Path,
    expected_records: u64,
    expected_crc: u32,
    into: &mut RawShingles,
) -> io::Result<()> {
    let mut f = File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    if bytes.len() < POOL_HEADER {
        return Err(pool_corrupt(path, bytes.len() as u64, "truncated header"));
    }
    if &bytes[..8] != POOL_MAGIC {
        return Err(pool_corrupt(path, 0, "bad magic"));
    }
    let records = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    if records != expected_records || crc != expected_crc {
        return Err(pool_corrupt(path, 8, "header disagrees with manifest"));
    }
    if bytes.len() != POOL_HEADER + payload_len {
        return Err(pool_corrupt(
            path,
            bytes.len() as u64,
            "payload length mismatch",
        ));
    }
    let payload = &bytes[POOL_HEADER..];
    if crc32(payload) != crc {
        return Err(pool_corrupt(
            path,
            POOL_HEADER as u64,
            "payload CRC mismatch",
        ));
    }
    let mut pos = 0usize;
    let mut pairs: Vec<u64> = Vec::new();
    for _ in 0..records {
        if payload.len() - pos < 12 {
            return Err(pool_corrupt(
                path,
                (POOL_HEADER + pos) as u64,
                "truncated record",
            ));
        }
        let trial = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap());
        let node = u32::from_le_bytes(payload[pos + 4..pos + 8].try_into().unwrap());
        let n_pairs = u32::from_le_bytes(payload[pos + 8..pos + 12].try_into().unwrap()) as usize;
        pos += 12;
        if n_pairs > into.s() || payload.len() - pos < n_pairs * 8 {
            return Err(pool_corrupt(
                path,
                (POOL_HEADER + pos) as u64,
                "bad pair count",
            ));
        }
        pairs.clear();
        for p in payload[pos..pos + n_pairs * 8].chunks_exact(8) {
            pairs.push(u64::from_le_bytes(p.try_into().unwrap()));
        }
        pos += n_pairs * 8;
        into.push(trial, node, &pairs);
    }
    if pos != payload.len() {
        return Err(pool_corrupt(
            path,
            (POOL_HEADER + pos) as u64,
            "trailing bytes after last record",
        ));
    }
    Ok(())
}

struct LoadedManifest {
    fingerprint: u64,
    axes: BTreeMap<String, String>,
    groups: Vec<ManifestGroup>,
}

fn parse_manifest(text: &str) -> Result<LoadedManifest, String> {
    let root = json::parse(text)?;
    let version = root.get("version")?.as_u64()?;
    if version != MANIFEST_VERSION {
        return Err(format!("unsupported manifest version {version}"));
    }
    let fingerprint = root.get("fingerprint")?.as_u64()?;
    let mut axes = BTreeMap::new();
    if let Json::Obj(kv) = root.get("axes")? {
        for (k, v) in kv {
            axes.insert(k.clone(), v.as_str()?.to_string());
        }
    } else {
        return Err("axes must be an object".into());
    }
    let mut groups = Vec::new();
    for g in root.get("groups")?.as_arr()? {
        let sig = g.get("sig")?.as_u64()?;
        let mut entries = Vec::new();
        for e in g.get("entries")?.as_arr()? {
            let mut runs = Vec::new();
            for r in e.get("runs")?.as_arr()? {
                runs.push(RunMeta {
                    file: r.get("file")?.as_str()?.to_string(),
                    records: r.get("records")?.as_u64()?,
                    s: r.get("s")?.as_u64()?,
                    crc: r.get("crc")?.as_u64()? as u32,
                });
            }
            let pool = match e.get_opt("pool") {
                Some(pm) => Some(PoolMeta {
                    file: pm.get("file")?.as_str()?.to_string(),
                    records: pm.get("records")?.as_u64()?,
                    crc: pm.get("crc")?.as_u64()? as u32,
                }),
                None => None,
            };
            entries.push(ManifestEntry {
                key: e.get("key")?.as_u64()?,
                input_fp: e.get("input_fp")?.as_u64()?,
                runs,
                pool,
            });
        }
        groups.push(ManifestGroup { sig, entries });
    }
    Ok(LoadedManifest {
        fingerprint,
        axes,
        groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::SortedRun;
    use crate::minwise::pack;

    #[test]
    fn crc32_matches_the_reference_check_value() {
        // The canonical IEEE CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut inc = Crc32::new();
        inc.update(b"1234");
        inc.update(b"56789");
        assert_eq!(inc.finish(), 0xCBF4_3926);
    }

    #[test]
    fn fingerprints_separate_structure() {
        let a = fingerprint_csr(&[0, 2, 5], &[], &[]);
        assert_eq!(a, fingerprint_csr(&[0, 2, 5], &[], &[]));
        assert_ne!(a, fingerprint_csr(&[0, 2, 6], &[], &[]));
        assert_ne!(a, fingerprint_csr(&[0, 2, 5, 5], &[], &[]));
        // Same degree structure, different edges: the sampled whole-CSR
        // print must separate what the offsets-only print cannot.
        let off = [0u64, 2, 4];
        let x = fingerprint_csr(&off, &[1, 0], &[1, 0]);
        assert_eq!(x, fingerprint_csr(&off, &[1, 0], &[1, 0]));
        assert_ne!(x, fingerprint_csr(&off, &[2, 0], &[2, 0]));
        assert_ne!(x, fingerprint_csr(&off, &[1, 0], &[1, 2]));
        assert_ne!(signature(&[1, 2]), signature(&[1, 2, 0]));
    }

    #[test]
    fn crash_plan_parses_both_forms() {
        let p = CrashPlan::parse("seal:2, merge:1").unwrap();
        assert_eq!(
            p.schedule,
            vec![(CrashSite::ShardSeal, 2), (CrashSite::Merge, 1)]
        );
        let p = CrashPlan::parse("7:0.25").unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.rate - 0.25).abs() < 1e-12);
        assert!(CrashPlan::parse("bogus-site:1").is_err());
        assert!(CrashPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn injector_kills_once_at_the_scheduled_occurrence() {
        let inj =
            CrashInjector::new(CrashPlan::scheduled().with_kill(CrashSite::ManifestCommit, 2));
        assert!(inj.strike(CrashSite::ShardSeal).is_ok());
        assert!(inj.strike(CrashSite::ManifestCommit).is_ok());
        let err = inj.strike(CrashSite::ManifestCommit).unwrap_err();
        assert!(err.to_string().contains(KILL_MARKER), "{err}");
        assert!(err.to_string().contains("manifest-commit"), "{err}");
        // A process dies once; the latch holds even at later occurrences.
        let relisted = CrashPlan::scheduled()
            .with_kill(CrashSite::Merge, 1)
            .with_kill(CrashSite::Merge, 2);
        let inj = CrashInjector::new(relisted);
        assert!(inj.strike(CrashSite::Merge).is_err());
        assert!(inj.strike(CrashSite::Merge).is_ok());
    }

    #[test]
    fn random_crashes_replay_from_the_seed() {
        let run = |seed| {
            let inj = CrashInjector::new(CrashPlan::random(seed, 0.5));
            (0..20)
                .map(|_| inj.strike(CrashSite::ShardSeal).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        // At most one kill per run.
        assert!(run(3).iter().filter(|&&k| k).count() <= 1);
    }

    fn sample_run(n: u32) -> SortedRun {
        let mut run = SortedRun::default();
        for i in 0..n {
            let idx = run.packed.len() as u128;
            run.elements.push(i % 7);
            run.elements.push(i % 11);
            run.packed
                .push(((i as u128) << 64) | ((i as u128) << 32) | idx);
        }
        run
    }

    fn axes() -> BTreeMap<String, String> {
        axes_record(
            &crate::params::ShinglingParams::light(3),
            MemoryBudget {
                bytes: Some(1 << 16),
                shards: None,
            },
            1,
        )
    }

    fn test_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("gpclust-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn manifest_roundtrips_through_commit_and_resume() {
        let dir = test_dir("roundtrip");
        let cfg = CheckpointConfig::new(&dir);
        let mut stats = SpillStats::default();
        let fp = fingerprint_csr(&[0, 3, 6], &[], &[]);

        let mut ck = Checkpointer::open(&cfg, fp, &axes()).unwrap();
        ck.begin_group(42);
        let run = sample_run(100);
        let sealed = SpilledRun::write_at(ck.run_path(0, 0), 2, &run, &mut stats, true).unwrap();
        let mut pool = RawShingles::new(2);
        pool.push(1, 5, &[pack(9, 9), pack(3, 3)]);
        pool.push(2, 5, &[pack(1, 1)]);
        let (recs, crc) = write_pool(&ck.pool_path(0), &pool, 0, &mut stats).unwrap();
        ck.commit_entry(
            0,
            fp,
            vec![RunMeta::of(ck.run_file(0, 0), &sealed)],
            Some(PoolMeta {
                file: ck.pool_file(0),
                records: recs,
                crc,
            }),
        )
        .unwrap();
        drop(sealed); // keep = true: the sealed file must survive the drop
        assert!(dir.join("g000000000000002a-e0-r0.run").exists());

        let mut ck = Checkpointer::open(&cfg.clone().resuming(), fp, &axes()).unwrap();
        ck.begin_group(42);
        match ck.take_entry(0, fp, 2) {
            Reuse::Hit(e) => {
                assert_eq!(e.runs.len(), 1);
                assert_eq!(e.runs[0].len(), 100);
                assert_eq!(e.pool.len(), 2);
                assert_eq!(e.pool.record(0), (1, 5, &[pack(9, 9), pack(3, 3)][..]));
            }
            other => panic!("expected reuse, got {other:?}"),
        }
        assert!(matches!(ck.take_entry(1, fp, 2), Reuse::Miss));
        ck.finalize().unwrap();
        assert!(!dir.join(MANIFEST_FILE).exists());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_mismatches_with_typed_errors() {
        let dir = test_dir("mismatch");
        let cfg = CheckpointConfig::new(&dir);
        let fp = fingerprint_csr(&[0, 4], &[], &[]);
        Checkpointer::open(&cfg, fp, &axes()).unwrap();

        let err = Checkpointer::open(&cfg.clone().resuming(), fp ^ 1, &axes()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::FingerprintMismatch { .. }),
            "{err}"
        );

        let mut other = axes();
        other.insert("seed".into(), "999".into());
        let err = Checkpointer::open(&cfg.clone().resuming(), fp, &other).unwrap_err();
        match &err {
            CheckpointError::AxesMismatch { axis, .. } => assert_eq!(axis, "seed"),
            other => panic!("expected axes mismatch, got {other:?}"),
        }

        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = Checkpointer::open(&cfg.clone().resuming(), fp, &axes()).unwrap_err();
        assert!(matches!(err, CheckpointError::Missing { .. }), "{err}");

        fs::write(dir.join(MANIFEST_FILE), "{not json").unwrap();
        let err = Checkpointer::open(&cfg.resuming(), fp, &axes()).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_files_invalidate_the_entry() {
        let dir = test_dir("corrupt");
        let cfg = CheckpointConfig::new(&dir);
        let mut stats = SpillStats::default();
        let fp = 77;
        let mut ck = Checkpointer::open(&cfg, fp, &axes()).unwrap();
        ck.begin_group(1);
        let run = sample_run(50);
        let sealed = SpilledRun::write_at(ck.run_path(0, 0), 2, &run, &mut stats, true).unwrap();
        let path = ck.run_path(0, 0);
        ck.commit_entry(0, fp, vec![RunMeta::of(ck.run_file(0, 0), &sealed)], None)
            .unwrap();
        drop(sealed);

        // Flip one payload byte: the reopen's CRC check must reject it.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let mut ck = Checkpointer::open(&cfg.clone().resuming(), fp, &axes()).unwrap();
        ck.begin_group(1);
        assert!(matches!(ck.take_entry(0, fp, 2), Reuse::Invalid));

        // Truncation is detected too.
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        let mut ck = Checkpointer::open(&cfg.resuming(), fp, &axes()).unwrap();
        ck.begin_group(1);
        assert!(matches!(ck.take_entry(0, fp, 2), Reuse::Invalid));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_segment_detects_corruption_and_truncation() {
        let dir = test_dir("pool");
        let mut stats = SpillStats::default();
        let mut pool = RawShingles::new(2);
        for i in 0..10u32 {
            pool.push(i, i * 2, &[pack(i, i), pack(i + 1, i + 1)]);
        }
        let path = dir.join("x.pool");
        let (recs, crc) = write_pool(&path, &pool, 3, &mut stats).unwrap();
        assert_eq!(recs, 7);
        let mut back = RawShingles::new(2);
        read_pool(&path, recs, crc, &mut back).unwrap();
        assert_eq!(back.len(), 7);
        assert_eq!(back.record(0), pool.record(3));

        let bytes = fs::read(&path).unwrap();
        let mut flipped = bytes.clone();
        let mid = POOL_HEADER + 5;
        flipped[mid] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        assert!(read_pool(&path, recs, crc, &mut RawShingles::new(2)).is_err());

        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(read_pool(&path, recs, crc, &mut RawShingles::new(2)).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_must_be_an_object() {
        assert!(parse_manifest("[]").is_err());
    }
}
