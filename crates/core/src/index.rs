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
//! [`to_graph`] over the whole union graph; they are not cheap — they
//! take most of a small flush (534 of 759 ms of a 1 % flush on a
//! 10K-vertex graph, EXPERIMENTS.md) — but the partition is
//! bit-identical to re-clustering the union graph from scratch (see
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
//! [`update`]: ShingleIndex::update
//! [`to_graph`]: ShingleIndex::to_graph

use crate::aggregate::{SortedRun, StreamInverter};
use crate::checkpoint::{self, axes_record, crc32, CheckpointError, FINGERPRINT_SAMPLE};
use crate::params::{MemoryBudget, ShinglingParams};
use crate::spill::{merge_runs, Cursor, ExternalRun, SpillStats, SpilledRun};
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

        // The sealed record run, checksummed and decoded frame by frame in
        // one read, then cross-checked against the manifest's totals.
        let (sealed, run) = SpilledRun::load(self.dir.join(&m.run_file))
            .map_err(|e| corrupt(format!("run {}: {e}", m.run_file)))?;
        if sealed.len() as u64 != m.records || sealed.s() != m.s as usize || sealed.crc() != m.crc {
            return Err(corrupt(format!(
                "run {}: records/s/crc disagree with manifest",
                m.run_file
            )));
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

        Ok(IndexSnapshot {
            // Sealed from a canonical index, so canonical as decoded.
            index: ShingleIndex {
                s: m.s as usize,
                run,
            },
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
        let store = IndexStore::new(&dir);
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
}
