//! The persistent shingle index — Pass I's output as a durable artifact.
//!
//! A [`ShingleIndex`] holds the aggregated first-pass shingle records (the
//! shingle→vertex posting lists, in the canonical sorted-run form of
//! [`crate::aggregate`]) for a whole graph. Min-wise shingles are a pure
//! function of one vertex's adjacency list and the hash seed, so a graph
//! delta invalidates exactly the records of the vertices whose lists it
//! extends: the incremental engine [`retract`]s those vertices, re-runs
//! Pass I over just them, [`merge`]s the fresh records back in, and
//! re-runs the cheap Passes II/III from [`to_graph`] — bit-identical to
//! re-clustering the union graph from scratch (see
//! `tests/incremental_properties.rs`).
//!
//! [`IndexStore`] persists an index snapshot (records + union graph +
//! cached partition) through the same atomic-manifest discipline as
//! [`crate::checkpoint`]: sealed generation-numbered files first, then
//! one `index-manifest.json` commit through the run journal's own atomic
//! write (temp file, `fsync`, rename, directory `fsync`), so a crash
//! mid-save always leaves
//! the previous generation loadable. Reloads refuse with the *same* typed
//! [`CheckpointError`]s the batch checkpoint uses when the stored axes
//! record or input fingerprint disagrees with the live parameters —
//! a stale index is never silently merged into.
//!
//! [`retract`]: ShingleIndex::retract
//! [`merge`]: ShingleIndex::merge
//! [`to_graph`]: ShingleIndex::to_graph

use crate::aggregate::{merge_runs_to_run, SortedRun, StreamInverter};
use crate::checkpoint::{self, axes_record, crc32, CheckpointError, FINGERPRINT_SAMPLE};
use crate::params::{MemoryBudget, ShinglingParams};
use crate::spill::{merge_external_to_run, ExternalRun, SpillStats, SpilledRun};
use gpclust_graph::{io as graph_io, Csr, Partition, ShingleGraph, VertexId};
use gpclust_support::json::{self, esc, Json};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Manifest file naming the live index generation. Distinct from the
/// batch pipeline's `manifest.json` so an index directory and a run
/// checkpoint can coexist.
pub const INDEX_MANIFEST_FILE: &str = "index-manifest.json";

/// Index manifest schema version.
pub const INDEX_MANIFEST_VERSION: u64 = 1;

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

/// Rewrite a sorted run into the index's canonical representation:
/// local indices ranked sequentially in `(key, node)` order, elements
/// stored in that same order. A [`SortedRun`] is only sorted by its
/// *packed* field; its local indices may still point into emission-order
/// element storage (`merge_fragments` ranks before its final sort), so two
/// logically identical runs can differ byte-wise. Normalizing here makes
/// index equality — and the snapshot round-trip — representation-free.
fn normalize_run(s: usize, run: SortedRun) -> SortedRun {
    let sequential = run
        .packed
        .iter()
        .enumerate()
        .all(|(i, &p)| (p & 0xFFFF_FFFF) as usize == i);
    if sequential {
        return run;
    }
    let mut out = SortedRun {
        packed: Vec::with_capacity(run.len()),
        elements: Vec::with_capacity(run.elements.len()),
    };
    for &p in &run.packed {
        let rep = (p & 0xFFFF_FFFF) as usize;
        let idx = out.packed.len() as u128;
        out.packed.push(((p >> 32) << 32) | idx);
        out.elements
            .extend_from_slice(&run.elements[rep * s..(rep + 1) * s]);
    }
    out
}

/// Pass-I shingle records for a whole graph, held as one canonical
/// [`SortedRun`]: ascending `(key, node)` with sequentially re-ranked
/// local indices — the same bytes regardless of how many delta passes
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

    /// Wrap a sorted run (any representation — normalized on entry).
    pub fn from_run(s: usize, run: SortedRun) -> ShingleIndex {
        debug_assert!(run.packed.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(run.elements.len(), run.len() * s);
        ShingleIndex {
            s,
            run: normalize_run(s, run),
        }
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

    /// Drop every record belonging to a vertex in `touched` (sorted,
    /// deduplicated), re-ranking the survivors sequentially. This is the
    /// invalidation half of a delta pass: the retracted vertices' records
    /// are stale the moment their adjacency lists grow.
    pub fn retract(&mut self, touched: &[VertexId]) {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        if touched.is_empty() || self.run.is_empty() {
            return;
        }
        let s = self.s;
        let old = std::mem::take(&mut self.run);
        let mut kept = SortedRun {
            packed: Vec::with_capacity(old.len()),
            elements: Vec::with_capacity(old.elements.len()),
        };
        for &p in &old.packed {
            let node = ((p >> 32) & 0xFFFF_FFFF) as VertexId;
            if touched.binary_search(&node).is_ok() {
                continue;
            }
            let rep = (p & 0xFFFF_FFFF) as usize;
            let idx = kept.packed.len() as u128;
            kept.packed.push(((p >> 32) << 32) | idx);
            kept.elements
                .extend_from_slice(&old.elements[rep * s..(rep + 1) * s]);
        }
        self.run = kept;
    }

    /// Fold a delta pass's fresh records into the index. `fresh` must
    /// cover only vertices previously [`retract`]ed (or never indexed):
    /// the two runs' `(key, node)` sets are then disjoint, the merge
    /// order is unique, and the result is byte-for-byte the run a
    /// from-scratch Pass I over the union graph would aggregate.
    ///
    /// [`retract`]: ShingleIndex::retract
    pub fn merge(&mut self, fresh: SortedRun) {
        if fresh.is_empty() {
            return;
        }
        let old = std::mem::take(&mut self.run);
        // `merge_runs_to_run` normalizes when it actually merges, but its
        // single-run fast path (empty index, first flush) passes the
        // fresh run's representation straight through.
        self.run = normalize_run(self.s, merge_runs_to_run(self.s, vec![old, fresh]));
    }

    /// Invert the posting records into the bipartite first-level shingle
    /// graph G′ — the input Passes II/III consume. Equal to
    /// `merge_sorted_runs(s, vec![run])` without cloning the run.
    pub fn to_graph(&self) -> ShingleGraph {
        let s = self.s;
        let mut inv = StreamInverter::new(s, self.run.len());
        for &p in &self.run.packed {
            let rep = (p & 0xFFFF_FFFF) as usize;
            inv.push(p, |out| {
                out.extend_from_slice(&self.run.elements[rep * s..(rep + 1) * s])
            });
        }
        inv.finish()
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

/// The index directory: generation-numbered sealed files plus one
/// atomically renamed manifest naming the live generation.
///
/// Save order is seal-then-commit, the same crash contract as the run
/// checkpoint: `index-<gen>.run`, `graph-<gen>.bin` and
/// `partition-<gen>.tsv` are written and synced first, then
/// `index-manifest.json` is renamed over the old manifest and the
/// directory fsynced, then stale generations are swept. A crash at any
/// point leaves a manifest whose named files are intact.
#[derive(Debug, Clone)]
pub struct IndexStore {
    dir: PathBuf,
}

impl IndexStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new<P: Into<PathBuf>>(dir: P) -> IndexStore {
        IndexStore { dir: dir.into() }
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

    fn graph_file(gen: u64) -> String {
        format!("graph-{gen}.bin")
    }

    fn partition_file(gen: u64) -> String {
        format!("partition-{gen}.tsv")
    }

    /// Seal and commit a snapshot as generation `generation`, pinning the
    /// live `params`/`budget`/`n_devices` axes and the graph fingerprint
    /// in the manifest. Returns spill statistics for the sealed run.
    #[allow(clippy::too_many_arguments)] // one caller: the engine's refresh commit
    pub fn save(
        &self,
        snapshot_gen: u64,
        index: &ShingleIndex,
        graph: &Csr,
        partition: &Partition,
        params: &ShinglingParams,
        budget: MemoryBudget,
        n_devices: usize,
    ) -> Result<SpillStats, CheckpointError> {
        fs::create_dir_all(&self.dir)?;
        let mut stats = SpillStats::default();
        let gen = snapshot_gen;

        // Seal the three payload files (synced before the commit).
        let run_path = self.dir.join(Self::run_file(gen));
        let sealed = SpilledRun::write_at(run_path, index.s(), index.run(), &mut stats, true)?;
        let graph_path = self.dir.join(Self::graph_file(gen));
        graph_io::write_file(&graph_path, graph)?;
        File::open(&graph_path)?.sync_all()?;
        let part_bytes = partition_to_tsv(partition);
        let part_crc = crc32(&part_bytes);
        let part_path = self.dir.join(Self::partition_file(gen));
        {
            let mut f = File::create(&part_path)?;
            f.write_all(&part_bytes)?;
            f.sync_all()?;
        }

        // Commit: the manifest replaces the old one atomically and durably.
        let axes = axes_record(params, budget, n_devices);
        let mut out = String::with_capacity(512);
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
        out.push_str(&format!(
            "  \"index\": {{\"file\": \"{}\", \"records\": {}, \"s\": {}, \"crc\": {}}},\n",
            esc(&Self::run_file(gen)),
            sealed.len(),
            index.s(),
            sealed.crc()
        ));
        out.push_str(&format!(
            "  \"graph\": {{\"file\": \"{}\"}},\n",
            esc(&Self::graph_file(gen))
        ));
        out.push_str(&format!(
            "  \"partition\": {{\"file\": \"{}\", \"crc\": {}}}\n",
            esc(&Self::partition_file(gen)),
            part_crc
        ));
        out.push_str("}\n");
        checkpoint::write_atomic(&self.dir, INDEX_MANIFEST_FILE, out.as_bytes())?;

        self.sweep_stale(gen)?;
        Ok(stats)
    }

    /// Remove sealed files of every generation other than `live` — safe
    /// only after the manifest commit (the old manifest never survives
    /// past its files, the new one's files are already durable).
    fn sweep_stale(&self, live: u64) -> io::Result<()> {
        let keep = [
            Self::run_file(live),
            Self::graph_file(live),
            Self::partition_file(live),
        ];
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = (name.starts_with("index-") && name.ends_with(".run"))
                || (name.starts_with("graph-") && name.ends_with(".bin"))
                || (name.starts_with("partition-") && name.ends_with(".tsv"));
            if stale && !keep.iter().any(|k| k == &name) {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// Load the live snapshot, refusing with a typed error when the store
    /// disagrees with the live configuration:
    ///
    /// * [`CheckpointError::Missing`] — no manifest committed.
    /// * [`CheckpointError::Corrupt`] — manifest, run, graph or partition
    ///   fails to parse or checksum.
    /// * [`CheckpointError::AxesMismatch`] — the index was built under
    ///   different axes (named axis, both values).
    /// * [`CheckpointError::FingerprintMismatch`] — the stored graph is
    ///   not the graph the manifest was committed for.
    pub fn load(
        &self,
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

        // The sealed record run, checksummed frame by frame on reopen and
        // cross-checked against the manifest's totals.
        let run_path = self.dir.join(&m.run_file);
        let sealed = SpilledRun::reopen(run_path)
            .map_err(|e| corrupt(format!("run {}: {e}", m.run_file)))?;
        if sealed.len() as u64 != m.records || sealed.s() != m.s as usize || sealed.crc() != m.crc {
            return Err(corrupt(format!(
                "run {}: records/s/crc disagree with manifest",
                m.run_file
            )));
        }
        let mut stats = SpillStats::default();
        let run = merge_external_to_run(m.s as usize, vec![ExternalRun::Disk(sealed)], &mut stats)
            .map_err(|e| corrupt(format!("run {}: {e}", m.run_file)))?;

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

        Ok(IndexSnapshot {
            index: ShingleIndex::from_run(m.s as usize, run),
            graph,
            partition,
            generation: m.generation,
        })
    }
}

// ---------------------------------------------------------------------------
// Manifest and partition codecs
// ---------------------------------------------------------------------------

struct LoadedIndexManifest {
    generation: u64,
    fingerprint: u64,
    n: usize,
    axes: Vec<(String, String)>,
    run_file: String,
    records: u64,
    s: u64,
    crc: u32,
    graph_file: String,
    partition_file: String,
    partition_crc: u32,
}

fn parse_index_manifest(text: &str) -> Result<LoadedIndexManifest, String> {
    let v = json::parse(text)?;
    let version = v.get("version")?.as_u64()?;
    if version != INDEX_MANIFEST_VERSION {
        return Err(format!("unsupported index manifest version {version}"));
    }
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
        run_file: idx.get("file")?.as_str()?.to_string(),
        records: idx.get("records")?.as_u64()?,
        s: idx.get("s")?.as_u64()?,
        crc: idx.get("crc")?.as_u64()? as u32,
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
    use crate::aggregate::{merge_fragments, merge_sorted_runs};
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
    fn to_graph_matches_merge_sorted_runs() {
        let p = params();
        let g = graph(2);
        let run = pass1_records(&g, &p, None);
        let index = ShingleIndex::from_run(p.s1, run.clone());
        assert_eq!(index.to_graph(), merge_sorted_runs(p.s1, vec![run]));
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
        let store = IndexStore::new(&dir);
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
        let store = IndexStore::new(&dir);
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
        let store = IndexStore::new(&dir);
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
}
