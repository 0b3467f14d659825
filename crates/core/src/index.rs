//! The persistent shingle index — Pass I's output as a durable artifact.
//!
//! A [`ShingleIndex`] holds the aggregated first-pass shingle records (the
//! shingle→vertex posting lists, in the canonical sorted-run form of
//! [`crate::aggregate`]) for a whole graph. Min-wise shingles are a pure
//! function of one vertex's adjacency list and the hash seed, so a graph
//! delta invalidates exactly the records of the vertices whose lists it
//! extends: the incremental engine re-runs Pass I over just those
//! vertices, and one [`update`] drops their old records and merges the
//! fresh ones in a single pass. Passes II/III then re-run from
//! [`to_graph`] over the whole union graph, so the partition is
//! bit-identical to re-clustering the union graph from scratch (see
//! `tests/incremental_properties.rs`).
//!
//! [`IndexStore`] persists an index snapshot (records + union graph +
//! cached partition) through the same atomic-manifest discipline as
//! [`crate::checkpoint`]: sealed generation-numbered files first, then
//! one `index-manifest.json` commit through the run journal's own atomic
//! write (temp file, `fsync`, rename, directory `fsync`), so a crash
//! mid-save always leaves the previous generation loadable. The records
//! persist log-structured: a base run plus one small delta segment per
//! flush, compacted into a new base once the segments pass
//! [`COMPACT_FRACTION`] of it, so a flush writes what it changed, not the
//! whole index. Reloads refuse with the *same* typed [`CheckpointError`]s
//! the batch checkpoint uses when the stored axes record or input
//! fingerprint disagrees with the live parameters — a stale index is
//! never silently merged into.
//!
//! [`update`]: ShingleIndex::update
//! [`to_graph`]: ShingleIndex::to_graph

use crate::aggregate::{SortedRun, StreamInverter};
use crate::checkpoint::{self, axes_record, crc32, CheckpointError, FINGERPRINT_SAMPLE};
use crate::params::{MemoryBudget, ShinglingParams};
use crate::spill::{merge_runs, Cursor, ExternalRun, SpillStats, SpilledRun};
use gpclust_graph::{io as graph_io, Csr, Partition, ShingleGraph, VertexId};
use gpclust_support::json::{self, esc, Json};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Manifest file naming the live index generation. Distinct from the
/// batch pipeline's `manifest.json` so an index directory and a run
/// checkpoint can coexist.
pub const INDEX_MANIFEST_FILE: &str = "index-manifest.json";

/// Index manifest schema version: a base run plus its ordered delta
/// segments. A version-1 manifest (a base alone) still loads, as a base
/// with no segments; any other version is refused as corrupt.
pub const INDEX_MANIFEST_VERSION: u64 = 2;

/// When a flush compacts: once the live segments' records plus retracted
/// ids would pass this fraction of the base run's records, the flush
/// seals the whole index as the new base instead of one more segment.
/// A half bounds what `load` replays over the base to half of it again,
/// and on `serve-2k`'s graph 1 % flushes (about 6,000 records each
/// over a 310,000-record base) compact at the 26th flush. An id counts
/// like a record, so a run of flushes that retract without adding
/// records compacts too.
pub const COMPACT_FRACTION: f64 = 0.5;

/// Sample-bounded fingerprint of a resident CSR — the same
/// [`checkpoint::fingerprint_csr`] the batch checkpoint computes through
/// its shard source, evaluated over the in-memory target array.
pub fn fingerprint_resident(g: &Csr) -> u64 {
    let offsets = g.offsets();
    let targets = g.targets();
    let m2 = *offsets.last().unwrap_or(&0);
    let k = FINGERPRINT_SAMPLE.min(m2) as usize;
    checkpoint::fingerprint_csr(offsets, &targets[..k], &targets[targets.len() - k..])
}

// ---------------------------------------------------------------------------
// The in-memory index
// ---------------------------------------------------------------------------

/// Pass-I shingle records for a whole graph, held as one canonical
/// [`SortedRun`]: ascending `(key, node)` with local indices equal to
/// record positions — the same bytes regardless of how many delta passes
/// built it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShingleIndex {
    s: usize,
    run: SortedRun,
}

impl ShingleIndex {
    /// An empty index for shingle size `s` (Pass I's `s1`).
    pub fn new(s: usize) -> ShingleIndex {
        ShingleIndex {
            s,
            run: SortedRun::default(),
        }
    }

    /// The index of one sorted run in any representation.
    pub fn from_run(s: usize, run: SortedRun) -> ShingleIndex {
        let mut index = ShingleIndex::new(s);
        index.merge(run);
        index
    }

    /// Shingle size the records carry.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Number of posting records.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// True if the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// The canonical record run (for persistence and cost modeling).
    pub fn run(&self) -> &SortedRun {
        &self.run
    }

    /// Replace the records of every vertex in `retract` (any order,
    /// duplicates and ids the index never saw allowed) with the fresh
    /// records in `runs`, in one merge of the index with `runs`. A
    /// vertex's shingles are a function of its own adjacency list, so
    /// when `runs` hold a delta pass over exactly the retracted vertices
    /// (or never-indexed ones) the result is byte for byte the index a
    /// from-scratch Pass I over the union graph builds. Ids past the
    /// index's node range retract nothing and cost no memory. The time
    /// spent replaying spilled runs counts as `stats`' read time. On an
    /// error the index is left as it was.
    pub fn update(
        &mut self,
        retract: &[VertexId],
        runs: Vec<ExternalRun>,
        stats: &mut SpillStats,
    ) -> io::Result<()> {
        if retract.is_empty() && runs.iter().all(ExternalRun::is_empty) {
            return Ok(());
        }
        let mut inputs = vec![Cursor::mem(&self.run)];
        for run in &runs {
            inputs.push(Cursor::of(run)?);
        }
        self.run = merge_runs(self.s, inputs, retract, stats)?;
        Ok(())
    }

    /// [`update`] with one resident run of fresh records, borrowed: the
    /// flush keeps the run to seal it as a segment, and `load` replays
    /// each segment through it.
    ///
    /// [`update`]: ShingleIndex::update
    pub(crate) fn update_run(&mut self, retract: &[VertexId], fresh: &SortedRun) {
        if retract.is_empty() && fresh.is_empty() {
            return;
        }
        let inputs = vec![Cursor::mem(&self.run), Cursor::mem(fresh)];
        self.run = merge_runs(self.s, inputs, retract, &mut SpillStats::default())
            .expect("a resident merge does no I/O");
    }

    /// Drop every record of a vertex in `touched`: [`update`] with no
    /// fresh records.
    ///
    /// [`update`]: ShingleIndex::update
    pub fn retract(&mut self, touched: &[VertexId]) {
        self.update(touched, Vec::new(), &mut SpillStats::default())
            .expect("a resident merge does no I/O");
    }

    /// Fold fresh records in: [`update`] with nothing retracted.
    ///
    /// [`update`]: ShingleIndex::update
    pub fn merge(&mut self, fresh: SortedRun) {
        self.update(
            &[],
            vec![ExternalRun::Mem(fresh)],
            &mut SpillStats::default(),
        )
        .expect("a resident merge does no I/O");
    }

    /// Invert the posting records into the bipartite first-level shingle
    /// graph G′ — the input Passes II/III consume.
    pub fn to_graph(&self) -> ShingleGraph {
        merge_runs::<StreamInverter>(
            self.s,
            vec![Cursor::mem(&self.run)],
            &[],
            &mut SpillStats::default(),
        )
        .expect("a resident merge does no I/O")
        .finish()
    }
}

/// A delta pass's runs as the one run a segment seals: a lone resident
/// run as it is, any other mix merged into one canonical run. Merging the
/// index with it pops the records in the order merging the index with
/// `runs` does, ties to the earlier run included.
pub(crate) fn one_run(
    s: usize,
    mut runs: Vec<ExternalRun>,
    stats: &mut SpillStats,
) -> io::Result<SortedRun> {
    match runs.pop() {
        Some(ExternalRun::Mem(run)) if runs.is_empty() => Ok(run),
        last => {
            runs.extend(last);
            let inputs = runs.iter().map(Cursor::of).collect::<io::Result<_>>()?;
            merge_runs(s, inputs, &[], stats)
        }
    }
}

// ---------------------------------------------------------------------------
// Durable snapshots
// ---------------------------------------------------------------------------

/// One durable engine state: the index records, the union graph they were
/// computed from, and the partition Passes II/III derived — everything a
/// restarted server needs to answer queries and accept deltas.
#[derive(Debug)]
pub struct IndexSnapshot {
    /// The shingle index.
    pub index: ShingleIndex,
    /// The base graph the index covers (fingerprint source).
    pub graph: Csr,
    /// The cached clustering of `graph`.
    pub partition: Partition,
    /// Monotone save generation the snapshot was loaded from.
    pub generation: u64,
}

/// What one flush changed in the index: the vertices whose records it
/// retracted and the delta pass's fresh records.
/// [`IndexStore::seal_records`] seals it as a segment that `load` replays
/// through [`ShingleIndex::update`].
#[derive(Debug, Clone, Copy)]
pub struct IndexDelta<'a> {
    /// Vertices whose old records the flush dropped (any order).
    pub retracted: &'a [VertexId],
    /// Their fresh records, one run.
    pub fresh: &'a SortedRun,
}

/// A sealed record run as a manifest names it.
#[derive(Debug, Clone)]
struct RunEntry {
    file: String,
    records: u64,
    crc: u32,
}

/// One sealed delta segment: its fresh-record run and its retraction
/// file (little-endian `u32` vertex ids).
#[derive(Debug, Clone)]
struct SegmentEntry {
    run: RunEntry,
    retract_file: String,
    retracted: u64,
    retract_crc: u32,
}

impl SegmentEntry {
    /// What the segment adds to a replay: its records and its ids.
    fn weight(&self) -> u64 {
        self.run.records + self.retracted
    }
}

/// The runs a committed manifest lists: one base and the segments
/// replayed over it, oldest first.
#[derive(Debug, Clone)]
struct Layout {
    base: RunEntry,
    segments: Vec<SegmentEntry>,
}

/// One generation's records, sealed by [`IndexStore::seal_records`] but
/// not yet live: [`IndexStore::commit`] seals the rest of the generation
/// and makes them so.
#[derive(Debug)]
#[must_use = "sealed records are not live until committed"]
pub struct SealedRecords {
    generation: u64,
    s: usize,
    layout: Layout,
    stats: SpillStats,
}

/// The index directory: generation-numbered sealed files plus one
/// atomically renamed manifest naming the live generation, log-structured
/// like an LSM tree (O'Neil et al., 1996).
///
/// The manifest lists a *base* run (`index-<gen>.run`, the whole index
/// as of the generation that sealed it) and the ordered delta *segments*
/// sealed since: each flush writes only its own retracted vertex ids
/// (`retract-<gen>.ids`) and fresh records (`segment-<gen>.run`), and
/// `load` replays the segments over the base in order. Once the
/// segments' records and ids would pass [`COMPACT_FRACTION`] of the
/// base's records, the flush seals the whole index as the new base
/// instead (compaction) and the sweep removes the old base and every
/// segment.
///
/// Save order is seal-then-commit, the same crash contract as the run
/// checkpoint: the payload files of the generation are written and
/// synced first — its records (base run or segment) by
/// [`IndexStore::seal_records`], which a flush calls before Passes II/III
/// so it need not hold its fresh records through them, then
/// `graph-<gen>.bin` and `partition-<gen>.tsv` by
/// [`IndexStore::commit`] — then `index-manifest.json` is renamed over the old manifest and
/// the directory fsynced, then every sealed file the new manifest does
/// not name is swept — the previous generation's, and any a kill between
/// seal and commit left behind. A crash at any point leaves a manifest
/// whose named files are intact.
#[derive(Debug, Clone)]
pub struct IndexStore {
    dir: PathBuf,
    /// The committed layout the next [`IndexStore::seal_records`] appends
    /// to: set by every commit and by `load`, taken by every seal so a
    /// save that fails leaves the next one to seal a base.
    live: Option<Layout>,
}

impl IndexStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new<P: Into<PathBuf>>(dir: P) -> IndexStore {
        IndexStore {
            dir: dir.into(),
            live: None,
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the live manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(INDEX_MANIFEST_FILE)
    }

    /// True if a manifest exists (a snapshot has been committed).
    pub fn exists(&self) -> bool {
        self.manifest_path().is_file()
    }

    fn run_file(gen: u64) -> String {
        format!("index-{gen}.run")
    }

    fn segment_file(gen: u64) -> String {
        format!("segment-{gen}.run")
    }

    fn retract_file(gen: u64) -> String {
        format!("retract-{gen}.ids")
    }

    fn graph_file(gen: u64) -> String {
        format!("graph-{gen}.bin")
    }

    fn partition_file(gen: u64) -> String {
        format!("partition-{gen}.tsv")
    }

    /// Seal and commit a snapshot as generation `generation` with the
    /// whole `index` as its base, pinning the live
    /// `params`/`budget`/`n_devices` axes and the graph fingerprint in
    /// the manifest. Returns spill statistics for the sealed run.
    #[allow(clippy::too_many_arguments)] // one caller: the engine's first seal
    pub fn save(
        &mut self,
        generation: u64,
        index: &ShingleIndex,
        graph: &Csr,
        partition: &Partition,
        params: &ShinglingParams,
        budget: MemoryBudget,
        n_devices: usize,
    ) -> Result<SpillStats, CheckpointError> {
        let sealed = self.seal_records(generation, None, index)?;
        self.commit(sealed, graph, partition, params, budget, n_devices)
    }

    /// Seal the records of generation `generation`, whose `index` is the
    /// live generation's with `delta` applied: `delta` as one more
    /// segment while the live segments stay under [`COMPACT_FRACTION`] of
    /// their base, `index` whole as a new base when they would not, when
    /// no layout is live or when there is no `delta`. A delta that
    /// retracts and adds nothing seals no segment. Nothing is live until
    /// [`commit`]: a kill before it leaves files the next commit sweeps.
    ///
    /// [`commit`]: IndexStore::commit
    pub fn seal_records(
        &mut self,
        generation: u64,
        delta: Option<IndexDelta<'_>>,
        index: &ShingleIndex,
    ) -> Result<SealedRecords, CheckpointError> {
        fs::create_dir_all(&self.dir)?;
        let (gen, s) = (generation, index.s());
        let mut stats = SpillStats::default();
        let fits = |live: &Layout, delta: &IndexDelta| {
            let weight = live.segments.iter().map(SegmentEntry::weight).sum::<u64>()
                + (delta.fresh.len() + delta.retracted.len()) as u64;
            weight as f64 <= COMPACT_FRACTION * live.base.records as f64
        };
        let layout = match (self.live.take(), delta) {
            (Some(mut live), Some(delta)) if fits(&live, &delta) => {
                if !(delta.retracted.is_empty() && delta.fresh.is_empty()) {
                    live.segments
                        .push(self.seal_segment(gen, delta, s, &mut stats)?);
                }
                live
            }
            _ => Layout {
                base: self.seal_run(Self::run_file(gen), s, index.run(), &mut stats)?,
                segments: Vec::new(),
            },
        };
        Ok(SealedRecords {
            generation,
            s,
            layout,
            stats,
        })
    }

    /// Complete `sealed`'s generation: seal its union `graph` and
    /// `partition`, commit the manifest (pinning the live
    /// `params`/`budget`/`n_devices` axes and the graph fingerprint), and
    /// sweep every sealed file the manifest does not name. Returns spill
    /// statistics for the sealed records.
    pub fn commit(
        &mut self,
        sealed: SealedRecords,
        graph: &Csr,
        partition: &Partition,
        params: &ShinglingParams,
        budget: MemoryBudget,
        n_devices: usize,
    ) -> Result<SpillStats, CheckpointError> {
        let SealedRecords {
            generation: gen,
            s,
            layout,
            stats,
        } = sealed;
        let graph_path = self.dir.join(Self::graph_file(gen));
        graph_io::write_file(&graph_path, graph)?;
        File::open(&graph_path)?.sync_all()?;
        let part_bytes = partition_to_tsv(partition);
        write_synced(&self.dir.join(Self::partition_file(gen)), &part_bytes)?;

        // Commit: the manifest replaces the old one atomically and durably.
        let axes = axes_record(params, budget, n_devices);
        let manifest = index_manifest(gen, graph, &axes, s, &layout, crc32(&part_bytes));
        checkpoint::write_atomic(&self.dir, INDEX_MANIFEST_FILE, manifest.as_bytes())?;
        let mut keep = vec![
            layout.base.file.clone(),
            Self::graph_file(gen),
            Self::partition_file(gen),
        ];
        for segment in &layout.segments {
            keep.push(segment.run.file.clone());
            keep.push(segment.retract_file.clone());
        }
        self.live = Some(layout);
        self.sweep(&keep)?;
        Ok(stats)
    }

    /// Forget the live layout, so the next save seals a base: the caller's
    /// index has moved past what the committed segments replay to.
    pub(crate) fn rebase(&mut self) {
        self.live = None;
    }

    /// Seal one record run into the directory, synced.
    fn seal_run(
        &self,
        file: String,
        s: usize,
        run: &SortedRun,
        stats: &mut SpillStats,
    ) -> io::Result<RunEntry> {
        let sealed = SpilledRun::write_at(self.dir.join(&file), s, run, stats, true)?;
        Ok(RunEntry {
            file,
            records: sealed.len() as u64,
            crc: sealed.crc(),
        })
    }

    /// Seal a segment: the fresh records' run and the retracted ids.
    fn seal_segment(
        &self,
        gen: u64,
        delta: IndexDelta<'_>,
        s: usize,
        stats: &mut SpillStats,
    ) -> io::Result<SegmentEntry> {
        let run = self.seal_run(Self::segment_file(gen), s, delta.fresh, stats)?;
        let retract_file = Self::retract_file(gen);
        let ids: Vec<u8> = delta
            .retracted
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        write_synced(&self.dir.join(&retract_file), &ids)?;
        stats.bytes += ids.len() as u64;
        Ok(SegmentEntry {
            run,
            retract_file,
            retracted: delta.retracted.len() as u64,
            retract_crc: crc32(&ids),
        })
    }

    /// Remove every sealed file `keep` does not name — safe only after
    /// the manifest commit (the old manifest never survives past its
    /// files, the new one's files are already durable). Orphans a kill
    /// left between seal and commit go too.
    fn sweep(&self, keep: &[String]) -> io::Result<()> {
        const SEALED: [(&str, &str); 5] = [
            ("index-", ".run"),
            ("segment-", ".run"),
            ("retract-", ".ids"),
            ("graph-", ".bin"),
            ("partition-", ".tsv"),
        ];
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let sealed = SEALED
                .iter()
                .any(|(head, tail)| name.starts_with(head) && name.ends_with(tail));
            if sealed && !keep.iter().any(|k| *k == name) {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Load the live snapshot — the base run with every segment replayed
    /// over it in order, each count and CRC cross-checked against the
    /// manifest — refusing with a typed error when the store disagrees
    /// with the live configuration:
    ///
    /// * [`CheckpointError::Missing`] — no manifest committed.
    /// * [`CheckpointError::Corrupt`] — manifest, base run, segment,
    ///   retraction file, graph or partition is missing or fails to parse
    ///   or checksum, or the manifest's version is unknown.
    /// * [`CheckpointError::AxesMismatch`] — the index was built under
    ///   different axes (named axis, both values).
    /// * [`CheckpointError::FingerprintMismatch`] — the stored graph is
    ///   not the graph the manifest was committed for.
    ///
    /// The loaded layout becomes the one the next
    /// [`IndexStore::seal_records`] appends to.
    pub fn load(
        &mut self,
        params: &ShinglingParams,
        budget: MemoryBudget,
        n_devices: usize,
    ) -> Result<IndexSnapshot, CheckpointError> {
        let path = self.manifest_path();
        let text = fs::read_to_string(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                CheckpointError::Missing { path: path.clone() }
            } else {
                CheckpointError::Io(e)
            }
        })?;
        let corrupt = |detail: String| CheckpointError::Corrupt {
            path: path.clone(),
            detail,
        };
        let m = parse_index_manifest(&text).map_err(corrupt)?;

        // Axes first: a mismatch here is a *configuration* disagreement
        // the user can resolve, reported before any payload I/O.
        let current_axes = axes_record(params, budget, n_devices);
        for (axis, current) in &current_axes {
            match m.axes.iter().find(|(k, _)| k == axis).map(|(_, v)| v) {
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

        // Graph, then its fingerprint against the manifest's record.
        let graph = graph_io::read_file(self.dir.join(&m.graph_file))
            .map_err(|e| corrupt(format!("graph {}: {e}", m.graph_file)))?;
        if graph.n() != m.n {
            return Err(corrupt(format!(
                "graph {}: {} vertices, manifest says {}",
                m.graph_file,
                graph.n(),
                m.n
            )));
        }
        let fp = fingerprint_resident(&graph);
        if fp != m.fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                manifest: m.fingerprint,
                current: fp,
            });
        }

        // Each sealed record run is checksummed and decoded frame by frame
        // in one read, then cross-checked against the manifest's totals.
        let s = m.s as usize;
        let load_run = |entry: &RunEntry| {
            let (sealed, run) = SpilledRun::load(self.dir.join(&entry.file))
                .map_err(|e| corrupt(format!("run {}: {e}", entry.file)))?;
            if sealed.len() as u64 != entry.records || sealed.s() != s || sealed.crc() != entry.crc
            {
                return Err(corrupt(format!(
                    "run {}: records/s/crc disagree with manifest",
                    entry.file
                )));
            }
            Ok(run)
        };
        // Sealed from a canonical index, so canonical as decoded.
        let mut index = ShingleIndex {
            s,
            run: load_run(&m.layout.base)?,
        };
        // Every segment through the update its flush ran.
        for segment in &m.layout.segments {
            let fresh = load_run(&segment.run)?;
            let retracted =
                read_ids(&self.dir.join(&segment.retract_file), segment).map_err(|detail| {
                    corrupt(format!("retraction {}: {detail}", segment.retract_file))
                })?;
            index.update_run(&retracted, &fresh);
        }

        // The cached partition, crc-checked as bytes then parsed.
        let part_path = self.dir.join(&m.partition_file);
        let part_bytes = fs::read(&part_path)
            .map_err(|e| corrupt(format!("partition {}: {e}", m.partition_file)))?;
        if crc32(&part_bytes) != m.partition_crc {
            return Err(corrupt(format!(
                "partition {}: crc mismatch",
                m.partition_file
            )));
        }
        let partition = partition_from_tsv(&part_bytes)
            .map_err(|detail| corrupt(format!("partition {}: {detail}", m.partition_file)))?;
        if partition.n_vertices() != m.n {
            return Err(corrupt(format!(
                "partition {}: {} vertices, manifest says {}",
                m.partition_file,
                partition.n_vertices(),
                m.n
            )));
        }

        self.live = Some(m.layout);
        Ok(IndexSnapshot {
            index,
            graph,
            partition,
            generation: m.generation,
        })
    }
}

/// Write `bytes` to `path` and sync them before returning.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// A segment's retracted ids, checked against its manifest entry's count
/// and CRC.
fn read_ids(path: &Path, segment: &SegmentEntry) -> Result<Vec<VertexId>, String> {
    let bytes = fs::read(path).map_err(|e| e.to_string())?;
    if bytes.len() as u64 != 4 * segment.retracted {
        return Err(format!(
            "{} bytes, manifest says {} ids",
            bytes.len(),
            segment.retracted
        ));
    }
    if crc32(&bytes) != segment.retract_crc {
        return Err("crc mismatch".into());
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|id| VertexId::from_le_bytes(id.try_into().expect("4 bytes")))
        .collect())
}

// ---------------------------------------------------------------------------
// Manifest and partition codecs
// ---------------------------------------------------------------------------

/// The manifest text of one generation.
fn index_manifest(
    gen: u64,
    graph: &Csr,
    axes: &BTreeMap<String, String>,
    s: usize,
    layout: &Layout,
    partition_crc: u32,
) -> String {
    let mut out = String::with_capacity(512 + 160 * layout.segments.len());
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {INDEX_MANIFEST_VERSION},\n"));
    out.push_str(&format!("  \"generation\": {gen},\n"));
    out.push_str(&format!(
        "  \"fingerprint\": {},\n",
        fingerprint_resident(graph)
    ));
    out.push_str(&format!("  \"n\": {},\n", graph.n()));
    out.push_str("  \"axes\": {");
    for (i, (k, v)) in axes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\": \"{}\"", esc(k), esc(v)));
    }
    out.push_str("},\n");
    let base = &layout.base;
    out.push_str(&format!(
        "  \"index\": {{\"file\": \"{}\", \"records\": {}, \"s\": {s}, \"crc\": {}}},\n",
        esc(&base.file),
        base.records,
        base.crc
    ));
    out.push_str("  \"segments\": [");
    for (i, seg) in layout.segments.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"file\": \"{}\", \"records\": {}, \"crc\": {}, \
             \"retract\": \"{}\", \"count\": {}, \"retract_crc\": {}}}",
            esc(&seg.run.file),
            seg.run.records,
            seg.run.crc,
            esc(&seg.retract_file),
            seg.retracted,
            seg.retract_crc
        ));
    }
    out.push_str(if layout.segments.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str(&format!(
        "  \"graph\": {{\"file\": \"{}\"}},\n",
        esc(&IndexStore::graph_file(gen))
    ));
    out.push_str(&format!(
        "  \"partition\": {{\"file\": \"{}\", \"crc\": {partition_crc}}}\n",
        esc(&IndexStore::partition_file(gen))
    ));
    out.push_str("}\n");
    out
}

struct LoadedIndexManifest {
    generation: u64,
    fingerprint: u64,
    n: usize,
    axes: Vec<(String, String)>,
    s: u64,
    layout: Layout,
    graph_file: String,
    partition_file: String,
    partition_crc: u32,
}

fn parse_index_manifest(text: &str) -> Result<LoadedIndexManifest, String> {
    let v = json::parse(text)?;
    let run_entry = |e: &Json| -> Result<RunEntry, String> {
        Ok(RunEntry {
            file: e.get("file")?.as_str()?.to_string(),
            records: e.get("records")?.as_u64()?,
            crc: e.get("crc")?.as_u64()? as u32,
        })
    };
    // Version 1 sealed a base alone: it loads as a base with no segments.
    let segments = match v.get("version")?.as_u64()? {
        1 => Vec::new(),
        INDEX_MANIFEST_VERSION => v
            .get("segments")?
            .as_arr()?
            .iter()
            .map(|e| {
                Ok(SegmentEntry {
                    run: run_entry(e)?,
                    retract_file: e.get("retract")?.as_str()?.to_string(),
                    retracted: e.get("count")?.as_u64()?,
                    retract_crc: e.get("retract_crc")?.as_u64()? as u32,
                })
            })
            .collect::<Result<_, String>>()?,
        version => return Err(format!("unsupported index manifest version {version}")),
    };
    let axes = match v.get("axes")? {
        Json::Obj(kv) => kv
            .iter()
            .map(|(k, val)| Ok((k.clone(), val.as_str()?.to_string())))
            .collect::<Result<Vec<_>, String>>()?,
        other => return Err(format!("expected axes object, got {other:?}")),
    };
    let idx = v.get("index")?;
    let graph = v.get("graph")?;
    let part = v.get("partition")?;
    Ok(LoadedIndexManifest {
        generation: v.get("generation")?.as_u64()?,
        fingerprint: v.get("fingerprint")?.as_u64()?,
        n: v.get("n")?.as_u64()? as usize,
        axes,
        s: idx.get("s")?.as_u64()?,
        layout: Layout {
            base: run_entry(idx)?,
            segments,
        },
        graph_file: graph.get("file")?.as_str()?.to_string(),
        partition_file: part.get("file")?.as_str()?.to_string(),
        partition_crc: part.get("crc")?.as_u64()? as u32,
    })
}

/// One line per vertex: the group id, or `-` for unassigned (vertices in
/// no non-singleton family). Line number = vertex id.
fn partition_to_tsv(p: &Partition) -> Vec<u8> {
    let mut out = Vec::with_capacity(p.n_vertices() * 4);
    for m in p.membership() {
        match m {
            Some(g) => out.extend_from_slice(g.to_string().as_bytes()),
            None => out.push(b'-'),
        }
        out.push(b'\n');
    }
    out
}

fn partition_from_tsv(bytes: &[u8]) -> Result<Partition, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let mut membership = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line == "-" {
            membership.push(None);
        } else {
            let g: u32 = line.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
            membership.push(Some(g));
        }
    }
    Ok(Partition::from_membership(membership))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate, merge_fragments};
    use crate::serial::shingle_pass_foreach;
    use crate::shingle::RawShingles;
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

    fn params() -> ShinglingParams {
        ShinglingParams::light(7)
    }

    /// Pass-I records of `g` restricted to `only` (None = all vertices),
    /// straight off the serial oracle.
    fn pass1_records(g: &Csr, p: &ShinglingParams, only: Option<&[VertexId]>) -> SortedRun {
        let mut raw = RawShingles::new(p.s1);
        shingle_pass_foreach(g, p.s1, &p.family_pass1(), |trial, node, pairs| {
            if only.is_none_or(|vs| vs.binary_search(&node).is_ok()) {
                raw.push(trial, node, pairs);
            }
        });
        merge_fragments(&raw)
    }

    #[test]
    fn retract_then_merge_matches_from_scratch() {
        let p = params();
        let g = graph(1);
        let full = pass1_records(&g, &p, None);
        let mut index = ShingleIndex::from_run(p.s1, full.clone());

        // Retract a vertex subset, recompute just their records, merge.
        let touched: Vec<VertexId> = vec![3, 10, 11, 40];
        index.retract(&touched);
        for &pk in &index.run().packed {
            let node = ((pk >> 32) & 0xFFFF_FFFF) as VertexId;
            assert!(touched.binary_search(&node).is_err());
        }
        let fresh = pass1_records(&g, &p, Some(&touched));
        index.merge(fresh);
        assert_eq!(index, ShingleIndex::from_run(p.s1, full));
    }

    #[test]
    fn to_graph_matches_the_host_aggregation() {
        let p = params();
        let g = graph(2);
        let mut raw = RawShingles::new(p.s1);
        shingle_pass_foreach(&g, p.s1, &p.family_pass1(), |trial, node, pairs| {
            raw.push(trial, node, pairs)
        });
        let index = ShingleIndex::from_run(p.s1, merge_fragments(&raw));
        assert_eq!(index.to_graph(), aggregate(&raw));
    }

    #[test]
    fn update_takes_retractions_in_any_order() {
        let p = params();
        let g = graph(8);
        let full = ShingleIndex::from_run(p.s1, pass1_records(&g, &p, None));
        let touched: Vec<VertexId> = vec![3, 10, 11, 40];
        let fresh = || vec![ExternalRun::Mem(pass1_records(&g, &p, Some(&touched)))];
        let mut sorted = full.clone();
        sorted
            .update(&touched, fresh(), &mut SpillStats::default())
            .unwrap();
        assert_eq!(sorted, full);
        // Reversed, duplicated, and naming vertices past the graph.
        let past = g.n() as VertexId;
        let messy: Vec<VertexId> = vec![past + 70, 40, 11, 40, 10, 3, 3, past];
        let mut index = full.clone();
        index
            .update(&messy, fresh(), &mut SpillStats::default())
            .unwrap();
        assert_eq!(index, full);
        let mut retracted = full.clone();
        retracted.retract(&messy);
        let mut expected = full.clone();
        expected.retract(&touched);
        assert_eq!(retracted, expected);
        assert!(retracted.len() < full.len());
    }

    /// An id past every indexed vertex retracts nothing and sizes no
    /// bitmap: the retraction keeps to the index's node range.
    #[test]
    fn update_ignores_ids_past_the_node_range() {
        use crate::spill::{Cursor, NodeSet};
        let p = params();
        let g = graph(8);
        let full = ShingleIndex::from_run(p.s1, pass1_records(&g, &p, None));
        let mut index = full.clone();
        index
            .update(&[u32::MAX], Vec::new(), &mut SpillStats::default())
            .unwrap();
        assert_eq!(index, full);
        let nodes = full
            .run()
            .packed
            .iter()
            .map(|&p| (p >> 32) as u32 + 1)
            .max()
            .unwrap();
        let runs = [Cursor::mem(full.run())];
        assert!(NodeSet::retraction(&runs, &[u32::MAX]).is_none());
        let set = NodeSet::retraction(&runs, &[u32::MAX, nodes - 1, u32::MAX - 1]).unwrap();
        assert!(
            set.capacity() <= (nodes as usize).next_multiple_of(64),
            "{} bits for {nodes} nodes",
            set.capacity()
        );
    }

    #[test]
    fn snapshot_roundtrip() {
        let p = params();
        let g = graph(3);
        let run = pass1_records(&g, &p, None);
        let index = ShingleIndex::from_run(p.s1, run);
        let part = Partition::from_membership(
            (0..g.n())
                .map(|v| if v % 3 == 0 { None } else { Some(v as u32 / 7) })
                .collect(),
        );
        let dir = std::env::temp_dir().join(format!("gpclust-index-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = IndexStore::new(&dir);
        assert!(!store.exists());
        store
            .save(4, &index, &g, &part, &p, MemoryBudget::default(), 1)
            .unwrap();
        assert!(store.exists());
        let snap = store.load(&p, MemoryBudget::default(), 1).unwrap();
        assert_eq!(snap.generation, 4);
        assert_eq!(snap.index, index);
        assert_eq!(snap.graph, g);
        assert_eq!(snap.partition.membership(), part.membership());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_refuses_axes_and_fingerprint_mismatch() {
        let p = params();
        let g = graph(4);
        let index = ShingleIndex::from_run(p.s1, pass1_records(&g, &p, None));
        let part = Partition::singletons(g.n());
        let dir = std::env::temp_dir().join(format!("gpclust-index-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = IndexStore::new(&dir);
        assert!(matches!(
            store.load(&p, MemoryBudget::default(), 1),
            Err(CheckpointError::Missing { .. })
        ));
        store
            .save(0, &index, &g, &part, &p, MemoryBudget::default(), 1)
            .unwrap();

        // A different seed is a different axes record — typed refusal
        // naming the axis, not a silent rebuild.
        let mut other = params();
        other.seed += 1;
        match store.load(&other, MemoryBudget::default(), 1) {
            Err(CheckpointError::AxesMismatch { axis, .. }) => assert_eq!(axis, "seed"),
            other => panic!("expected AxesMismatch, got {other:?}"),
        }

        // Tampering with the sealed graph flips the fingerprint check
        // (or the codec's own integrity checks) — never a clean load.
        let graph_path = dir.join(IndexStore::graph_file(0));
        let other_graph = graph(5);
        graph_io::write_file(&graph_path, &other_graph).unwrap();
        assert!(store.load(&p, MemoryBudget::default(), 1).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_refuses_corrupt_run() {
        let p = params();
        let g = graph(6);
        let index = ShingleIndex::from_run(p.s1, pass1_records(&g, &p, None));
        let part = Partition::singletons(g.n());
        let dir = std::env::temp_dir().join(format!("gpclust-index-crc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = IndexStore::new(&dir);
        store
            .save(0, &index, &g, &part, &p, MemoryBudget::default(), 1)
            .unwrap();
        let run_path = dir.join(IndexStore::run_file(0));
        let mut bytes = fs::read(&run_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&run_path, &bytes).unwrap();
        assert!(matches!(
            store.load(&p, MemoryBudget::default(), 1),
            Err(CheckpointError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_refuses_a_flip_in_the_last_frame_of_a_multi_frame_run() {
        // The run is verified and decoded in one pass, so the frames
        // before the damaged one are already decoded when it is reached:
        // the load must still refuse rather than return a partial index.
        let p = params();
        let g = planted_partition(&PlantedConfig {
            group_sizes: vec![300, 250, 200, 150],
            n_noise_vertices: 100,
            p_intra: 0.05,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 0.5,
            seed: 7,
        })
        .graph;
        let index = ShingleIndex::from_run(p.s1, pass1_records(&g, &p, None));
        let part = Partition::singletons(g.n());
        let dir = std::env::temp_dir().join(format!("gpclust-index-last-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = IndexStore::new(&dir);
        store
            .save(0, &index, &g, &part, &p, MemoryBudget::default(), 1)
            .unwrap();
        let run_path = dir.join(IndexStore::run_file(0));
        let mut bytes = fs::read(&run_path).unwrap();
        // Walk the frame headers to the last frame's payload.
        let mut frames = Vec::new();
        let mut at = 24;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
            frames.push((at + 12, len));
            at += 12 + len;
        }
        assert!(frames.len() >= 2, "{} frame(s)", frames.len());
        let (payload, len) = *frames.last().unwrap();
        bytes[payload + len / 2] ^= 0x10;
        fs::write(&run_path, &bytes).unwrap();
        match store.load(&p, MemoryBudget::default(), 1) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("frame CRC mismatch"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Seal `delta` and commit generation `gen` over it, as a flush does.
    fn save_delta(
        store: &mut IndexStore,
        gen: u64,
        delta: IndexDelta,
        index: &ShingleIndex,
        graph: &Csr,
        p: &ShinglingParams,
    ) {
        let sealed = store.seal_records(gen, Some(delta), index).unwrap();
        let part = Partition::singletons(graph.n());
        store
            .commit(sealed, graph, &part, p, MemoryBudget::default(), 1)
            .unwrap();
    }

    /// A store fed the way a serve session feeds it: `graph(seed)` with
    /// half its edges held back, the base sealed as generation 0, then
    /// each [`Stream::step`] adds edges back as one delta and seals it
    /// as a flush does. The directory is removed on drop.
    struct Stream {
        dir: PathBuf,
        p: ShinglingParams,
        store: IndexStore,
        index: ShingleIndex,
        graph: Csr,
        generation: u64,
        rest: Vec<(VertexId, VertexId)>,
    }

    impl Stream {
        fn new(tag: &str, seed: u64) -> Stream {
            let dir =
                std::env::temp_dir().join(format!("gpclust-index-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            let p = params();
            let g = graph(seed);
            let all: Vec<_> = g
                .iter()
                .flat_map(|(v, ns)| ns.iter().filter(move |&&u| v < u).map(move |&u| (v, u)))
                .collect();
            let (base, rest) = all.split_at(all.len() / 2);
            let graph = Csr::from_edges(g.n(), &mut base.iter().copied().collect());
            let index = ShingleIndex::from_run(p.s1, pass1_records(&graph, &p, None));
            let mut store = IndexStore::new(&dir);
            store
                .save(
                    0,
                    &index,
                    &graph,
                    &Partition::singletons(graph.n()),
                    &p,
                    MemoryBudget::default(),
                    1,
                )
                .unwrap();
            Stream {
                dir,
                p,
                store,
                index,
                graph,
                generation: 0,
                rest: rest.to_vec(),
            }
        }

        /// Add the next `edges` held-back edges as one delta: update the
        /// in-memory index and seal the generation.
        fn step(&mut self, edges: usize) {
            let mut delta = gpclust_graph::GraphDelta::new();
            for (a, b) in self.rest.drain(..edges.min(self.rest.len())) {
                delta.add_edge(a, b);
            }
            let touched = delta.touched(&self.graph);
            self.graph = delta.apply(&self.graph);
            let fresh = pass1_records(&self.graph, &self.p, Some(&touched));
            self.index.update_run(&touched, &fresh);
            self.generation += 1;
            let delta = IndexDelta {
                retracted: &touched,
                fresh: &fresh,
            };
            save_delta(
                &mut self.store,
                self.generation,
                delta,
                &self.index,
                &self.graph,
                &self.p,
            );
        }

        /// A fresh store's load of the directory.
        fn load(&self) -> Result<IndexSnapshot, CheckpointError> {
            IndexStore::new(&self.dir).load(&self.p, MemoryBudget::default(), 1)
        }

        /// The committed manifest's segment count.
        fn segments(&self) -> usize {
            let text = fs::read_to_string(self.dir.join(INDEX_MANIFEST_FILE)).unwrap();
            json::parse(&text)
                .unwrap()
                .get("segments")
                .unwrap()
                .as_arr()
                .unwrap()
                .len()
        }

        /// Every file in the directory, sorted by name.
        fn files(&self) -> Vec<(String, Vec<u8>)> {
            let mut files: Vec<_> = fs::read_dir(&self.dir)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        }

        fn names(&self) -> Vec<String> {
            self.files().into_iter().map(|(name, _)| name).collect()
        }

        /// Put `files` back as they were: with the files a save since
        /// added left beside them, this is the directory a kill between
        /// that save's seal and its manifest commit leaves.
        fn unwind(&self, files: &[(String, Vec<u8>)]) {
            for (name, bytes) in files {
                fs::write(self.dir.join(name), bytes).unwrap();
            }
        }
    }

    impl Drop for Stream {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }

    /// A base plus k segments loads as the index the deltas built in
    /// memory, at every k; the flush that passes the compaction fraction
    /// seals a new base and the sweep leaves only what it names.
    #[test]
    fn base_plus_segments_load_as_the_in_memory_index() {
        let mut stream = Stream::new("segments", 11);
        let mut most = 0;
        while stream.segments() > 0 || most == 0 {
            stream.step(3);
            let snap = stream.load().unwrap();
            assert_eq!(snap.index, stream.index, "generation {}", stream.generation);
            assert_eq!(snap.graph, stream.graph);
            assert_eq!(snap.generation, stream.generation);
            let k = stream.segments();
            assert!(k == most + 1 || k == 0, "{most} segments, then {k}");
            most = most.max(k);
            assert!(
                !stream.rest.is_empty(),
                "the stream ran out before compacting"
            );
        }
        assert!(most >= 2, "compacted after {most} segment(s)");
        let gen = stream.generation;
        assert_eq!(
            stream.names(),
            [
                format!("graph-{gen}.bin"),
                format!("index-{gen}.run"),
                INDEX_MANIFEST_FILE.to_string(),
                format!("partition-{gen}.tsv"),
            ]
        );
        // Segments start again over the new base.
        stream.step(3);
        assert_eq!(stream.segments(), 1);
        assert_eq!(stream.load().unwrap().index, stream.index);
    }

    /// A flipped byte or a truncation in a segment's run or retraction
    /// file, and a manifest naming a segment file that is gone, are each
    /// refused as corrupt.
    #[test]
    fn damaged_or_missing_segment_files_are_refused() {
        let mut stream = Stream::new("seg-crc", 12);
        stream.step(4);
        assert_eq!(stream.segments(), 1);
        for file in ["segment-1.run", "retract-1.ids"] {
            let path = stream.dir.join(file);
            let good = fs::read(&path).unwrap();
            assert!(good.len() >= 8, "{file}: {} bytes", good.len());
            let mut flipped = good.clone();
            flipped[good.len() - 3] ^= 0x04;
            let damage = [
                ("flipped", flipped),
                ("truncated", good[..good.len() - 4].to_vec()),
            ];
            for (what, bytes) in damage {
                fs::write(&path, bytes).unwrap();
                match stream.load() {
                    Err(CheckpointError::Corrupt { detail, .. }) => {
                        assert!(detail.contains(file), "{what} {file}: {detail}")
                    }
                    other => panic!("{what} {file}: expected Corrupt, got {other:?}"),
                }
            }
            fs::remove_file(&path).unwrap();
            assert!(
                matches!(stream.load(), Err(CheckpointError::Corrupt { .. })),
                "missing {file}"
            );
            fs::write(&path, good).unwrap();
            assert_eq!(stream.load().unwrap().index, stream.index);
        }
    }

    /// A segment, or a compacted base, sealed without its manifest commit
    /// (what a kill between the two leaves) loads as the previous
    /// generation, and the next save sweeps it.
    #[test]
    fn a_seal_without_its_commit_loads_the_previous_generation() {
        let part = |g: &Csr| Partition::singletons(g.n());
        let budget = MemoryBudget::default();

        // A segment, swept by a save that seals a base.
        let mut stream = Stream::new("kill-seg", 13);
        stream.step(3);
        let (before, index) = (stream.files(), stream.index.clone());
        stream.step(3);
        assert_eq!(stream.segments(), 2);
        stream.unwind(&before);
        let mut store = IndexStore::new(&stream.dir);
        let snap = store.load(&stream.p, budget, 1).unwrap();
        assert_eq!((snap.generation, &snap.index), (1, &index));
        assert!(stream.names().contains(&"segment-2.run".to_string()));
        store
            .save(
                2,
                &snap.index,
                &snap.graph,
                &part(&snap.graph),
                &stream.p,
                budget,
                1,
            )
            .unwrap();
        assert_eq!(
            stream.names(),
            [
                "graph-2.bin",
                "index-2.run",
                INDEX_MANIFEST_FILE,
                "partition-2.tsv"
            ]
        );

        // A compacted base, swept by a save that seals a segment.
        let mut stream = Stream::new("kill-base", 14);
        stream.step(3);
        let (before, index) = (stream.files(), stream.index.clone());
        stream.store.rebase();
        stream.step(3);
        assert_eq!(stream.segments(), 0);
        stream.unwind(&before);
        let mut store = IndexStore::new(&stream.dir);
        let snap = store.load(&stream.p, budget, 1).unwrap();
        assert_eq!((snap.generation, &snap.index), (1, &index));
        assert!(stream.names().contains(&"index-2.run".to_string()));
        let fresh = pass1_records(&snap.graph, &stream.p, Some(&[0]));
        let (graph, mut next) = (snap.graph, snap.index);
        next.update_run(&[0], &fresh);
        let delta = IndexDelta {
            retracted: &[0],
            fresh: &fresh,
        };
        save_delta(&mut store, 2, delta, &next, &graph, &stream.p);
        assert_eq!(
            stream.names(),
            [
                "graph-2.bin",
                "index-0.run",
                INDEX_MANIFEST_FILE,
                "partition-2.tsv",
                "retract-1.ids",
                "retract-2.ids",
                "segment-1.run",
                "segment-2.run",
            ]
        );
        assert_eq!(stream.load().unwrap().index, next);
    }

    /// A version-1 manifest — a base alone, as earlier builds sealed every
    /// generation — loads as a base with no segments, and segments append
    /// to it; an unknown version is refused as corrupt.
    #[test]
    fn a_version_1_manifest_loads_as_its_base() {
        let mut stream = Stream::new("v1", 15);
        let path = stream.dir.join(INDEX_MANIFEST_FILE);
        let v2 = fs::read_to_string(&path).unwrap();
        assert!(v2.contains("\"version\": 2,\n") && v2.contains("  \"segments\": [],\n"));
        let v1 = v2
            .replace("\"version\": 2,", "\"version\": 1,")
            .replace("  \"segments\": [],\n", "");
        fs::write(&path, &v1).unwrap();
        assert_eq!(stream.load().unwrap().index, stream.index);
        stream.store = IndexStore::new(&stream.dir);
        stream
            .store
            .load(&stream.p, MemoryBudget::default(), 1)
            .unwrap();
        stream.step(3);
        assert_eq!(stream.segments(), 1);
        assert_eq!(stream.load().unwrap().index, stream.index);

        fs::write(&path, v1.replace("\"version\": 1,", "\"version\": 3,")).unwrap();
        match stream.load() {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("version 3"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
