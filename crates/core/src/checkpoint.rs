//! Durable checkpoint/restore for the out-of-core passes — the process-
//! and storage-fault half of the fault model ([`crate::params::FaultPolicy`]
//! recovers from *device* faults inside a live process; this module makes
//! the work survive the process itself).
//!
//! ## Manifest journal
//!
//! A checkpointed run keeps a `manifest.json` in its checkpoint directory:
//! the input fingerprint (FNV-1a over the offset array plus a bounded
//! sample of the targets), the plan axes the run was lowered with, and a
//! flat list of entries, one per committed Pass-I shard: its key, its
//! element range `[lo, hi)` and its sealed run files with their
//! checksums. A shard is cut on list boundaries, so every fragment of its
//! lists comes back in its own pass and finalizes into one more sorted
//! run before the seal: a shard's sealed runs depend only on the input,
//! the axes and its range, never on the device capacity or the fleet.
//! Every rewrite goes through `write_atomic` (temp file → `fsync` →
//! `rename` → directory `fsync`), so the manifest on disk is always a
//! complete, parseable journal of *committed* shards.
//!
//! ## Commit points and resume
//!
//! The drivers seal a shard (write + `fsync` its runs), then commit its
//! manifest entry — in that order, so a crash between the two leaves
//! orphan files that the re-run simply overwrites. `--resume` re-lowers
//! the same plan, refuses on fingerprint or axes mismatch with a typed
//! [`CheckpointError`], re-verifies every surviving run's framing
//! checksums, and re-executes only shards whose entries are absent,
//! record another element range, or fail verification — bit-identical to
//! an uninterrupted run because the reused runs hold exactly the records
//! the uninterrupted run seals for the same range.
//!
//! ## Crash injection
//!
//! [`CrashPlan`] mirrors the device-fault [`gpclust_gpu::FaultPlan`]:
//! named crash sites (shard-seal / manifest-commit / merge), scheduled or
//! seeded-random kills, driven in-process by an early-return "kill" (a
//! typed host-I/O error carrying [`KILL_MARKER`]) so property tests can
//! restart deterministically where a real `kill -9` cannot be replayed.

use crate::params::{MemoryBudget, ShinglingParams};
use crate::spill::SpilledRun;
use gpclust_gpu::DeviceError;
use gpclust_support::json::{self, esc, Json};
use gpclust_support::rng::StdRng;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// File name of the manifest journal inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Manifest format version (bumped on incompatible schema changes).
const MANIFEST_VERSION: u64 = 2;

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

/// Incremental IEEE CRC-32 — the per-frame checksum of spilled runs. Table-driven, byte-at-a-time; plenty for detecting the
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

/// How many targets from each end of the edge array the whole-input
/// fingerprint samples. Bounded so the print stays cheap to recompute
/// even when the target array lives on disk.
pub const FINGERPRINT_SAMPLE: u64 = 1024;

/// Fingerprint of a whole CSR input: FNV-1a over the offset array (vertex
/// count, every list boundary, the element total — length-prefixed so
/// `[a]` and `[a, 0]` differ) plus a bounded head/tail sample of the
/// target array. Offsets alone pin only the degree
/// structure — two different graphs with the same degree sequence collide
/// — so the print also folds in edge identity without ever reading more
/// than `2 × FINGERPRINT_SAMPLE` targets.
pub fn fingerprint_csr(offsets: &[u64], head: &[u32], tail: &[u32]) -> u64 {
    let mut h = fnv_u64(FNV_OFFSET, offsets.len() as u64);
    for &o in offsets {
        h = fnv_u64(h, o);
    }
    h = fnv_u64(h, head.len() as u64);
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
    /// After a shard's runs are sealed (written + synced) but before its
    /// manifest entry commits — resume re-runs the shard,
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
    /// Directory holding `manifest.json` and the sealed run files.
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

/// One committed shard: its element range and its sealed runs.
#[derive(Debug, Clone)]
struct ManifestEntry {
    lo: u64,
    hi: u64,
    runs: Vec<RunMeta>,
}

/// Outcome of asking the journal for a completed shard.
#[derive(Debug)]
pub enum Reuse {
    /// The entry exists and every file verified clean: the shard's
    /// sealed runs, reopened and checksum-verified.
    Hit(Vec<SpilledRun>),
    /// The entry exists but a file is corrupt, truncated, or mismatched —
    /// detected, and the shard re-executes.
    Invalid,
    /// No entry for this shard's key and element range: the shard never
    /// committed, or committed under another carving.
    Miss,
}

/// The plan axes a manifest pins — compared key-by-key on `--resume`,
/// walking only this record's keys, so a manifest that also records axes
/// this build no longer has still resumes. The kernel is not an axis:
/// both kernels seal bit-identical records, so a journal written under
/// one resumes under the other. The device capacity is not one either: a
/// shard's sealed runs do not depend on where its batches were cut.
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
    /// One entry per committed shard key (a re-run shard's commit
    /// replaces its entry) — what [`Checkpointer::persist`] writes.
    entries: BTreeMap<u64, ManifestEntry>,
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
        let mut ck = Checkpointer {
            dir: cfg.dir.clone(),
            fingerprint,
            axes: axes.clone(),
            entries: BTreeMap::new(),
        };
        if !cfg.resume {
            sweep_sealed_files(&cfg.dir)?;
            ck.persist()?;
            return Ok(ck);
        }
        let path = cfg.dir.join(MANIFEST_FILE);
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
        ck.entries = loaded.entries;
        Ok(ck)
    }

    /// The input fingerprint the journal was opened with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// File name of sealed run `k` of shard `key`.
    pub fn run_file(&self, key: u64, k: usize) -> String {
        format!("e{key}-r{k}.run")
    }

    /// Path of sealed run `k` of shard `key`.
    pub fn run_path(&self, key: u64, k: usize) -> PathBuf {
        self.dir.join(self.run_file(key, k))
    }

    /// Ask the journal for shard `key` covering the elements `range`,
    /// re-verifying every surviving file's checksums (`s` is the shingle
    /// size the records must carry). An entry recorded for another range
    /// is a [`Reuse::Miss`]: the shard carving changed, nothing is
    /// damaged.
    pub fn take_entry(&self, key: u64, range: &Range<u64>, s: usize) -> Reuse {
        let Some(entry) = self.entries.get(&key) else {
            return Reuse::Miss;
        };
        if entry.lo != range.start || entry.hi != range.end {
            return Reuse::Miss;
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
        Reuse::Hit(runs)
    }

    /// Commit shard `key` over the elements `range`: record (or replace)
    /// its entry and atomically persist the journal. The caller must have
    /// sealed (written + synced) every file the entry names *before*
    /// committing — the crash contract is that a committed entry's files
    /// are always durable.
    pub fn commit_entry(
        &mut self,
        key: u64,
        range: &Range<u64>,
        runs: Vec<RunMeta>,
    ) -> io::Result<()> {
        let entry = ManifestEntry {
            lo: range.start,
            hi: range.end,
            runs,
        };
        self.entries.insert(key, entry);
        self.persist()
    }

    fn persist(&self) -> io::Result<()> {
        write_atomic(&self.dir, MANIFEST_FILE, self.to_json().as_bytes())
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
        out.push_str("},\n  \"entries\": [");
        for (ei, (key, e)) in self.entries.iter().enumerate() {
            if ei > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"key\": {key}, \"lo\": {}, \"hi\": {}, \"runs\": [",
                e.lo, e.hi
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
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Atomically and durably replace `dir/file` with `bytes`: write a temp
/// file, `fsync` it, rename it over `file`, then `fsync` the directory so
/// the rename itself survives a power cut. The one commit step of both
/// the run journal and the index store.
pub(crate) fn write_atomic(dir: &Path, file: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{file}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(file))?;
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Remove every sealed file in `dir` (not the manifest) — runs, and the
/// `.pool` fragment segments journals of the previous format sealed.
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

struct LoadedManifest {
    fingerprint: u64,
    axes: BTreeMap<String, String>,
    entries: BTreeMap<u64, ManifestEntry>,
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
    let mut entries = BTreeMap::new();
    for e in root.get("entries")?.as_arr()? {
        let mut runs = Vec::new();
        for r in e.get("runs")?.as_arr()? {
            runs.push(RunMeta {
                file: r.get("file")?.as_str()?.to_string(),
                records: r.get("records")?.as_u64()?,
                s: r.get("s")?.as_u64()?,
                crc: r.get("crc")?.as_u64()? as u32,
            });
        }
        let entry = ManifestEntry {
            lo: e.get("lo")?.as_u64()?,
            hi: e.get("hi")?.as_u64()?,
            runs,
        };
        entries.insert(e.get("key")?.as_u64()?, entry);
    }
    Ok(LoadedManifest {
        fingerprint,
        axes,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::SortedRun;
    use crate::spill::SpillStats;

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
        let run = sample_run(100);
        let sealed = SpilledRun::write_at(ck.run_path(0, 0), 2, &run, &mut stats, true).unwrap();
        ck.commit_entry(0, &(0..6), vec![RunMeta::of(ck.run_file(0, 0), &sealed)])
            .unwrap();
        drop(sealed); // keep = true: the sealed file must survive the drop
        assert!(dir.join("e0-r0.run").exists());

        let ck = Checkpointer::open(&cfg.clone().resuming(), fp, &axes()).unwrap();
        match ck.take_entry(0, &(0..6), 2) {
            Reuse::Hit(runs) => {
                assert_eq!(runs.len(), 1);
                assert_eq!(runs[0].len(), 100);
            }
            other => panic!("expected reuse, got {other:?}"),
        }
        assert!(matches!(ck.take_entry(1, &(6..9), 2), Reuse::Miss));
        // Another element range under the same key: the carving changed.
        assert!(matches!(ck.take_entry(0, &(0..3), 2), Reuse::Miss));
        ck.finalize().unwrap();
        assert!(!dir.join(MANIFEST_FILE).exists());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_recommit_replaces_the_shard_entry() {
        let dir = test_dir("recommit");
        let cfg = CheckpointConfig::new(&dir);
        let mut stats = SpillStats::default();
        let mut ck = Checkpointer::open(&cfg, 5, &axes()).unwrap();
        for (range, n) in [(0..4, 30), (0..8, 60)] {
            let sealed =
                SpilledRun::write_at(ck.run_path(0, 0), 2, &sample_run(n), &mut stats, true)
                    .unwrap();
            ck.commit_entry(0, &range, vec![RunMeta::of(ck.run_file(0, 0), &sealed)])
                .unwrap();
        }
        let text = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(text.matches("\"key\"").count(), 1, "{text}");
        let ck = Checkpointer::open(&cfg.resuming(), 5, &axes()).unwrap();
        assert!(matches!(ck.take_entry(0, &(0..4), 2), Reuse::Miss));
        match ck.take_entry(0, &(0..8), 2) {
            Reuse::Hit(runs) => assert_eq!(runs[0].len(), 60),
            other => panic!("expected reuse, got {other:?}"),
        }
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
        let err = Checkpointer::open(&cfg.clone().resuming(), fp, &axes()).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");

        // A journal of the previous format (version 1: entry groups keyed
        // by plan signature) is refused, not read.
        let v1 =
            format!("{{\"version\": 1, \"fingerprint\": {fp}, \"axes\": {{}}, \"groups\": []}}");
        fs::write(dir.join(MANIFEST_FILE), v1).unwrap();
        match Checkpointer::open(&cfg.resuming(), fp, &axes()).unwrap_err() {
            CheckpointError::Corrupt { detail, .. } => {
                assert_eq!(detail, "unsupported manifest version 1")
            }
            other => panic!("expected a corrupt-manifest refusal, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_files_invalidate_the_entry() {
        let dir = test_dir("corrupt");
        let cfg = CheckpointConfig::new(&dir);
        let mut stats = SpillStats::default();
        let fp = 77;
        let mut ck = Checkpointer::open(&cfg, fp, &axes()).unwrap();
        let run = sample_run(50);
        let sealed = SpilledRun::write_at(ck.run_path(0, 0), 2, &run, &mut stats, true).unwrap();
        let path = ck.run_path(0, 0);
        ck.commit_entry(0, &(0..10), vec![RunMeta::of(ck.run_file(0, 0), &sealed)])
            .unwrap();
        drop(sealed);

        // Flip one payload byte: the reopen's CRC check must reject it.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let ck = Checkpointer::open(&cfg.clone().resuming(), fp, &axes()).unwrap();
        assert!(matches!(ck.take_entry(0, &(0..10), 2), Reuse::Invalid));

        // Truncation is detected too.
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        let ck = Checkpointer::open(&cfg.resuming(), fp, &axes()).unwrap();
        assert!(matches!(ck.take_entry(0, &(0..10), 2), Reuse::Invalid));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_must_be_an_object() {
        assert!(parse_manifest("[]").is_err());
    }
}
