//! The incremental clustering engine: base + delta passes over a
//! persistent shingle index.
//!
//! The batch pipeline re-shingles the whole graph on every run. This
//! module keeps Pass I's output alive between runs instead: the
//! [`ShingleIndex`] holds the canonical shingle→vertex posting run, and a
//! *delta pass* re-shingles only the vertices whose adjacency lists a
//! [`GraphDelta`] actually changed. Because a vertex's min-wise shingles
//! are a pure function of its own list, retracting the touched vertices'
//! records from the stored index and merging in the freshly-computed ones
//! — one [`ShingleIndex::update`] pass — reproduces, bit for bit, the
//! canonical run a from-scratch Pass I over the union graph would emit.
//! Passes II/III always re-run from the updated index over the whole
//! union graph, so the resulting [`Partition`] is *identical* to
//! re-clustering the union graph from scratch, across kernels × shards ×
//! fleets × faults. They are the bulk of a small flush, not a cheap
//! tail: 534 of 759 ms of a 1 % flush on a 10K-vertex graph
//! (EXPERIMENTS.md).
//!
//! Every flush runs the delta pass, whatever share of the graph it
//! touches; only [`IncrementalEngine::bootstrap`] shingles the whole
//! graph. Past about half the elements a from-scratch Pass I would be
//! marginally faster, but no workload flushes deltas that large.
//!
//! Durability: with an attached [`IndexStore`], every flush seals a new
//! snapshot generation (its index delta as one segment, or the whole
//! index when the store compacts, plus union graph and partition) through
//! the checkpoint layer's atomic-manifest machinery. A crash between
//! flushes loses only the pending (unflushed) delta; resume picks up the
//! last sealed generation and refuses stale stores with typed
//! [`CheckpointError`]s.

use gpclust_gpu::{DeviceError, Gpu};
use gpclust_graph::{Csr, GraphDelta, Partition, VertexId};

use crate::aggregate::SortedRun;
use crate::autotune::Prediction;
use crate::checkpoint::CheckpointError;
use crate::index::{one_run, IndexDelta, IndexStore, ShingleIndex};
use crate::multi_gpu::MultiGpuClust;
use crate::params::ShinglingParams;
use crate::pipeline::GpClust;
use crate::plan::Plan;
use crate::shingle::AdjacencyInput;
use crate::spill::{io_to_device, SpillStats};
use crate::timing::RecoveryReport;
use std::fmt;

/// What can go wrong while driving the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Fleet construction or parameter validation failed.
    Config(String),
    /// A device pass failed beyond the fault policy's patience.
    Device(DeviceError),
    /// The index store refused a snapshot (save, bootstrap, or resume).
    Checkpoint(CheckpointError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(msg) => write!(f, "engine configuration: {msg}"),
            // A host-side failure (an infeasible budget, spill I/O) is
            // no device failure: it reads as itself, as `cluster` prints it.
            EngineError::Device(DeviceError::HostIo { detail }) => f.write_str(detail),
            EngineError::Device(e) => write!(f, "device pass failed: {e}"),
            EngineError::Checkpoint(e) => write!(f, "index store: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DeviceError> for EngineError {
    fn from(e: DeviceError) -> Self {
        EngineError::Device(e)
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// What a flush decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshDecision {
    /// Always `false`: every flush runs the delta pass. Kept so readers
    /// of the decision keep compiling.
    pub full: bool,
    /// Vertices whose adjacency lists actually changed.
    pub touched: usize,
    /// Union-graph vertex count after the flush.
    pub n_vertices: usize,
    /// Always `None`: the refresh rule is measured, not priced. Kept so
    /// readers of the decision keep compiling.
    pub delta_predicted: Option<Prediction>,
    /// Always `None`, like [`RefreshDecision::delta_predicted`].
    pub full_predicted: Option<Prediction>,
}

/// The union graph with every untouched adjacency list masked to zero
/// length: full-width offsets (so node ids — and therefore the packed
/// record keys — are unchanged), but only the touched vertices' neighbors
/// in the flat array. Kernels skip empty lists, so a pass over this input
/// emits exactly the touched vertices' records and nothing else.
pub(crate) struct MaskedAdjacency {
    offsets: Vec<u64>,
    flat: Vec<u32>,
}

impl MaskedAdjacency {
    /// Mask `union` down to `touched` (sorted unique vertex ids).
    pub(crate) fn of(union: &Csr, touched: &[VertexId]) -> MaskedAdjacency {
        let n = union.n();
        let kept: usize = touched.iter().map(|&v| union.degree(v)).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut flat = Vec::with_capacity(kept);
        offsets.push(0u64);
        let mut next = touched.iter().copied().peekable();
        for v in 0..n as u32 {
            if next.peek() == Some(&v) {
                next.next();
                flat.extend_from_slice(union.neighbors(v));
            }
            offsets.push(flat.len() as u64);
        }
        MaskedAdjacency { offsets, flat }
    }
}

impl AdjacencyInput for MaskedAdjacency {
    fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }
    fn offsets(&self) -> &[u64] {
        &self.offsets
    }
    fn flat(&self) -> &[u32] {
        &self.flat
    }
}

/// The long-lived clustering engine: a frozen base graph, its canonical
/// shingle index and partition, and a pending [`GraphDelta`] batched
/// until the next [`flush`](IncrementalEngine::flush).
pub struct IncrementalEngine {
    /// The parameters every pass runs under; the index's axes record is
    /// written from them.
    params: ShinglingParams,
    fleet: GpClust,
    base: Csr,
    index: ShingleIndex,
    partition: Partition,
    pending: GraphDelta,
    store: Option<IndexStore>,
    generation: u64,
    spill: SpillStats,
    recovery: RecoveryReport,
}

impl IncrementalEngine {
    /// Cluster `base` from scratch — Pass I over the whole graph — and
    /// seed the engine with its canonical index and partition. A memory
    /// budget too small for `base` is refused here, before any pass runs.
    pub fn bootstrap(
        params: &ShinglingParams,
        gpus: Vec<Gpu>,
        base: Csr,
    ) -> Result<IncrementalEngine, EngineError> {
        let (_, params) = Plan::lower_auto(params, &gpus, base.offsets(), base.n())?;
        let fleet = MultiGpuClust::new(params, gpus).map_err(EngineError::Config)?;
        let mut engine = IncrementalEngine {
            params,
            fleet,
            // Placeholder; the commit below installs `base` as the first
            // sealed state.
            base: Csr::from_raw(vec![0], Vec::new()),
            index: ShingleIndex::new(params.s1),
            partition: Partition::singletons(0),
            pending: GraphDelta::new(),
            store: None,
            generation: 0,
            spill: SpillStats::default(),
            recovery: RecoveryReport::default(),
        };
        let (runs, _, rec) =
            engine
                .fleet
                .gather_pass1_records(&params, &base, &mut engine.spill)?;
        engine.recovery.merge(&rec);
        engine
            .index
            .update(&[], runs, &mut engine.spill)
            .map_err(io_to_device)?;
        engine.commit(base)?;
        Ok(engine)
    }

    /// Reopen a sealed store and continue from its last generation.
    /// `params` must agree with the store's axes record on every axis it
    /// records (typed refusal otherwise).
    pub fn resume(
        params: &ShinglingParams,
        gpus: Vec<Gpu>,
        mut store: IndexStore,
    ) -> Result<IncrementalEngine, EngineError> {
        let params = *params;
        let snapshot = store.load(&params, params.mem_budget, gpus.len())?;
        let fleet = MultiGpuClust::new(params, gpus).map_err(EngineError::Config)?;
        Ok(IncrementalEngine {
            params,
            fleet,
            base: snapshot.graph,
            index: snapshot.index,
            partition: snapshot.partition,
            pending: GraphDelta::new(),
            store: Some(store),
            generation: snapshot.generation,
            spill: SpillStats::default(),
            recovery: RecoveryReport::default(),
        })
    }

    /// Attach a durable store, sealing the engine's current state as its
    /// snapshot generation immediately so a crash before the first flush
    /// still resumes.
    pub fn with_store(mut self, mut store: IndexStore) -> Result<IncrementalEngine, EngineError> {
        let stats = store.save(
            self.generation,
            &self.index,
            &self.base,
            &self.partition,
            &self.params,
            self.params.mem_budget,
            self.fleet.n_devices(),
        )?;
        self.spill.merge(&stats);
        self.store = Some(store);
        Ok(self)
    }

    /// The parameters every pass runs under.
    pub fn params(&self) -> &ShinglingParams {
        &self.params
    }

    /// Vertices in the sealed base graph (pending additions excluded).
    pub fn n_vertices(&self) -> usize {
        self.base.n()
    }

    /// The sealed base graph.
    pub fn graph(&self) -> &Csr {
        &self.base
    }

    /// The canonical shingle index over the base graph.
    pub fn index(&self) -> &ShingleIndex {
        &self.index
    }

    /// The current partition (matches the base graph, not the pending
    /// delta).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Snapshot generation of the sealed state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Pending (unflushed) edge insertions.
    pub fn pending_edges(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is waiting for a flush.
    pub fn is_clean(&self) -> bool {
        self.pending.is_empty()
    }

    /// Accumulated spill traffic across all flushes.
    pub fn spill_stats(&self) -> SpillStats {
        self.spill
    }

    /// Accumulated fault-recovery tallies across all flushes.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Queue `k` fresh vertices after the current union range.
    pub fn add_vertices(&mut self, k: usize) {
        self.pending.add_vertices(k);
    }

    /// The sealed vertex range plus every vertex a pending
    /// [`IncrementalEngine::add_vertices`] declared — the range the next
    /// flush seals before any out-of-range edge endpoint grows it.
    pub fn n_declared(&self) -> usize {
        self.base.n() + self.pending.n_new_vertices()
    }

    /// Queue the undirected edge `(a, b)`; endpoints past the current
    /// range implicitly grow it. Takes effect at the next flush.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) {
        self.pending.add_edge(a, b);
    }

    /// Fold a whole prepared delta into the pending batch.
    pub fn apply(&mut self, delta: &GraphDelta) {
        self.pending.merge(delta);
    }

    /// Family membership of `v` in the sealed partition: the group id,
    /// or `None` for vertices outside the sealed range (pending, never
    /// flushed) or ones the partition leaves ungrouped.
    pub fn query(&self, v: VertexId) -> Option<u32> {
        self.partition
            .membership()
            .get(v as usize)
            .copied()
            .flatten()
    }

    /// Apply the pending delta: compact the union graph, refresh the
    /// index with a delta pass (re-shingle the touched lists, then one
    /// update retracts their old records and merges in the fresh ones),
    /// re-run Passes II/III from the updated index, and seal a new
    /// generation in the attached store: the touched ids and fresh
    /// records as one segment, or the whole index when it compacts. A
    /// no-op (with `touched == 0`) when nothing is pending. The resulting
    /// partition is bit-identical to clustering the union graph from
    /// scratch.
    pub fn flush(&mut self) -> Result<RefreshDecision, EngineError> {
        let mut decision = RefreshDecision {
            full: false,
            touched: 0,
            n_vertices: self.base.n(),
            delta_predicted: None,
            full_predicted: None,
        };
        if self.pending.is_empty() {
            return Ok(decision);
        }
        let pending = std::mem::take(&mut self.pending);
        let union = pending.apply(&self.base);
        let touched = pending.touched(&self.base);
        decision.touched = touched.len();
        decision.n_vertices = union.n();
        let masked = MaskedAdjacency::of(&union, &touched);
        let (runs, _, rec) =
            self.fleet
                .gather_pass1_records(&self.params, &masked, &mut self.spill)?;
        self.recovery.merge(&rec);
        let fresh = one_run(self.index.s(), runs, &mut self.spill).map_err(io_to_device)?;
        self.index.update_run(&touched, &fresh);
        if let Err(e) = self.seal_and_commit(union, &touched, fresh) {
            // The index is past what the store's segments replay to: the
            // next save seals it whole.
            if let Some(store) = &mut self.store {
                store.rebase();
            }
            return Err(e);
        }
        Ok(decision)
    }

    /// Passes II/III from the merged index over `union`, then install
    /// `union` as the base of the next generation.
    fn commit(&mut self, union: Csr) -> Result<(), EngineError> {
        let first = self.index.to_graph();
        let (partition, _, rec) =
            self.fleet
                .partition_from_first(&self.params, union.n(), first)?;
        self.recovery.merge(&rec);
        self.base = union;
        self.partition = partition;
        self.generation += 1;
        Ok(())
    }

    /// Seal the flushed records in the attached store (the touched ids
    /// and `fresh` as one segment, or the whole index when the store
    /// compacts), then [`commit`] `union` and seal the rest of the
    /// generation. The records seal first so that `fresh` is not held
    /// through Passes II/III.
    ///
    /// [`commit`]: IncrementalEngine::commit
    fn seal_and_commit(
        &mut self,
        union: Csr,
        touched: &[VertexId],
        fresh: SortedRun,
    ) -> Result<(), EngineError> {
        let delta = IndexDelta {
            retracted: touched,
            fresh: &fresh,
        };
        let generation = self.generation + 1;
        let sealed = match &mut self.store {
            Some(store) => Some(store.seal_records(generation, Some(delta), &self.index)?),
            None => None,
        };
        drop(fresh);
        self.commit(union)?;
        if let (Some(store), Some(sealed)) = (&mut self.store, sealed) {
            let stats = store.commit(
                sealed,
                &self.base,
                &self.partition,
                &self.params,
                self.params.mem_budget,
                self.fleet.n_devices(),
            )?;
            self.spill.merge(&stats);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{pass_two_graph, unsettled_lists};
    use crate::params::{FaultPolicy, ShingleKernel};
    use crate::serial::SerialShingling;
    use gpclust_gpu::{DeviceConfig, FaultKind, FaultPlan, FaultSite};
    use gpclust_graph::generate::{planted_partition, PlantedConfig};
    use gpclust_graph::EdgeList;

    /// A scratch directory for store round-trips, removed on drop.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> ScratchDir {
            let dir =
                std::env::temp_dir().join(format!("gpclust-engine-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            ScratchDir(dir)
        }
        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn planted(seed: u64) -> Csr {
        planted_partition(&PlantedConfig {
            group_sizes: vec![6, 5, 7],
            n_noise_vertices: 6,
            p_intra: 0.9,
            max_intra_degree: 8.0,
            inter_edges_per_vertex: 1.0,
            seed,
        })
        .graph
    }

    fn light(seed: u64) -> ShinglingParams {
        ShinglingParams::light(seed)
    }

    fn fleet(k: usize) -> Vec<Gpu> {
        (0..k)
            .map(|_| Gpu::with_workers(DeviceConfig::tiny_test_device(), 1))
            .collect()
    }

    /// The graph's edges `(v, u)` with `v < u`, sorted.
    fn edges(g: &Csr) -> Vec<(VertexId, VertexId)> {
        let mut all: Vec<(VertexId, VertexId)> = g
            .iter()
            .flat_map(|(v, ns)| {
                ns.iter()
                    .filter(move |&&u| v < u)
                    .map(move |&u| (v, u))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable();
        all
    }

    /// Split a graph's edges: the first `keep` fraction forms the base,
    /// the rest arrive as a delta (same vertex range throughout).
    fn split(g: &Csr, keep_num: usize, keep_den: usize) -> (Csr, GraphDelta) {
        let all = edges(g);
        let cut = all.len() * keep_num / keep_den;
        let mut base_edges = EdgeList::new();
        for &(a, b) in &all[..cut] {
            base_edges.push(a, b);
        }
        let base = Csr::from_edges(g.n(), &mut base_edges);
        let mut delta = GraphDelta::new();
        for &(a, b) in &all[cut..] {
            delta.add_edge(a, b);
        }
        (base, delta)
    }

    #[test]
    fn flush_matches_serial_oracle_on_union() {
        let g = pass_two_graph(11);
        let (base, delta) = split(&g, 2, 3);
        let params = light(11);
        assert!(unsettled_lists(&g, params) >= 100);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), base).unwrap();
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(decision.touched > 0 && !decision.full, "{decision:?}");
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
        assert_eq!(engine.graph().offsets(), g.offsets());
        assert_eq!(engine.graph().targets(), g.targets());
    }

    #[test]
    fn incremental_index_is_bit_identical_to_from_scratch() {
        let g = pass_two_graph(12);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(12);
        assert!(unsettled_lists(&g, params) >= 100);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), base).unwrap();
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        let scratch = IncrementalEngine::bootstrap(&params, fleet(1), g).unwrap();
        assert_eq!(engine.index(), scratch.index(), "index must be canonical");
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let g = planted(13);
        let params = light(13);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), g).unwrap();
        let gen = engine.generation();
        let decision = engine.flush().unwrap();
        assert_eq!(decision.touched, 0);
        assert_eq!(engine.generation(), gen);
    }

    #[test]
    fn duplicate_edges_touch_nothing() {
        let g = planted(14);
        let params = light(14);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), g.clone()).unwrap();
        let before = engine.partition().clone();
        // Re-insert an existing edge: flush runs, but touches no vertex.
        let (v, ns) = g.iter().find(|(_, ns)| !ns.is_empty()).unwrap();
        engine.add_edge(v, ns[0]);
        let decision = engine.flush().unwrap();
        assert_eq!(decision.touched, 0);
        assert_eq!(*engine.partition(), before);
    }

    #[test]
    fn vertex_growth_and_new_edges_match_oracle() {
        let g = pass_two_graph(15);
        let params = light(15);
        let n = g.n();
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), g.clone()).unwrap();
        engine.add_vertices(3);
        engine.add_edge(n as u32, 0);
        engine.add_edge(n as u32 + 1, n as u32);
        engine.flush().unwrap();
        // Union graph rebuilt from scratch.
        let mut edges = EdgeList::new();
        for (v, ns) in g.iter() {
            for &u in ns.iter().filter(|&&u| v < u) {
                edges.push(v, u);
            }
        }
        edges.push(n as u32, 0);
        edges.push(n as u32 + 1, n as u32);
        let union = Csr::from_edges(n + 3, &mut edges);
        assert!(unsettled_lists(&union, params) >= 100);
        let oracle = SerialShingling::new(params).unwrap().cluster(&union);
        assert_eq!(*engine.partition(), oracle);
        assert_eq!(engine.n_vertices(), n + 3);
        // The isolated extra vertex answers exactly as the oracle does.
        assert_eq!(engine.query(n as u32 + 2), oracle.group_of(n as u32 + 2));
        // A vertex past the union range is unknown.
        assert_eq!(engine.query(n as u32 + 99), None);
    }

    #[test]
    fn every_kernel_matches_from_scratch() {
        let g = pass_two_graph(16);
        let (base, delta) = split(&g, 3, 4);
        assert!(unsettled_lists(&g, light(16)) >= 100);
        for kernel in [ShingleKernel::SortCompact, ShingleKernel::FusedSelect] {
            let params = light(16).with_kernel(kernel);
            let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), base.clone()).unwrap();
            engine.apply(&delta);
            let decision = engine.flush().unwrap();
            assert!(!decision.full, "{decision:?}");
            let oracle = SerialShingling::new(params).unwrap().cluster(&g);
            assert_eq!(*engine.partition(), oracle, "{kernel:?}");
        }
    }

    #[test]
    fn bounded_budget_delta_matches_oracle() {
        let g = pass_two_graph(17);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        // Two shards: the 210-vertex graph fits any byte budget unsharded.
        let params = light(17).with_shards(2);
        assert!(unsettled_lists(&g, params) >= 100);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), base).unwrap();
        let before = engine.spill_stats();
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        let after = engine.spill_stats();
        assert!(after.bytes > before.bytes, "the delta pass must spill");
        // The index update replays the spilled runs, and that counts.
        assert!(
            after.read_seconds > before.read_seconds,
            "{before:?} → {after:?}"
        );
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn faulty_device_delta_matches_oracle() {
        let g = pass_two_graph(18);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(18);
        assert!(unsettled_lists(&g, params) >= 100);
        let gpus = fleet(2);
        let device0 = gpus[0].clone();
        let mut engine = IncrementalEngine::bootstrap(&params, gpus, base).unwrap();
        assert!(!engine.recovery().any());
        // Armed after bootstrap, so the fault fires inside the flush.
        device0.set_fault_plan(
            FaultPlan::scheduled()
                .with_fault(FaultSite::Kernel, 1, FaultKind::DeviceLost)
                .with_device(0),
        );
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        assert!(engine.recovery().any(), "the fault plan must have fired");
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn small_delta_runs_the_delta_pass() {
        let g = pass_two_graph(20);
        let (base, delta) = split(&g, g.m() - 1, g.m());
        let params = light(20);
        assert!(unsettled_lists(&g, params) >= 100);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), base).unwrap();
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        assert_eq!(decision.touched, 2);
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn store_roundtrip_resumes_mid_stream() {
        let dir = ScratchDir::new("roundtrip");
        let g = pass_two_graph(21);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(21);
        assert!(unsettled_lists(&g, params) >= 100);
        let engine = IncrementalEngine::bootstrap(&params, fleet(2), base)
            .unwrap()
            .with_store(IndexStore::new(dir.path()))
            .unwrap();
        let gen = engine.generation();
        drop(engine); // crash between flushes: pending delta is lost, state is sealed
        let mut resumed =
            IncrementalEngine::resume(&params, fleet(2), IndexStore::new(dir.path())).unwrap();
        assert_eq!(resumed.generation(), gen);
        resumed.apply(&delta);
        let decision = resumed.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*resumed.partition(), oracle);
        // And the flushed generation resumes too.
        let again =
            IncrementalEngine::resume(&params, fleet(2), IndexStore::new(dir.path())).unwrap();
        assert_eq!(again.generation(), gen + 1);
        assert_eq!(*again.partition(), oracle);
        assert_eq!(again.index(), resumed.index());
    }

    /// The bytes a compaction seals are a compatibility contract with
    /// index directories written by earlier builds: a bootstrap, a sealed
    /// first generation and one delta flush that compacts must persist
    /// exactly this base run, the whole index as earlier builds sealed it
    /// on every flush.
    #[test]
    fn persisted_index_bytes_are_pinned() {
        let dir = ScratchDir::new("pin");
        let g = planted(27);
        let (base, delta) = split(&g, 3, 4);
        let params = light(27);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), base)
            .unwrap()
            .with_store(IndexStore::new(dir.path()))
            .unwrap();
        // This delta stays under the compaction threshold, so force the
        // flush to seal the whole index.
        engine.store.as_mut().unwrap().rebase();
        engine.apply(&delta);
        assert!(engine.flush().unwrap().touched > 0);
        let runs: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "run"))
            .collect();
        assert_eq!(runs.len(), 1, "{runs:?}");
        let sealed = crate::spill::SpilledRun::reopen(runs[0].clone()).unwrap();
        assert_eq!((sealed.len(), sealed.crc()), (800, 0x7e1b_a017));
    }

    #[test]
    fn resume_refuses_a_different_fleet_size() {
        let dir = ScratchDir::new("fleet-size");
        let g = planted(22);
        let params = light(22);
        let _engine = IncrementalEngine::bootstrap(&params, fleet(2), g)
            .unwrap()
            .with_store(IndexStore::new(dir.path()))
            .unwrap();
        match IncrementalEngine::resume(&params, fleet(1), IndexStore::new(dir.path())) {
            Err(EngineError::Checkpoint(CheckpointError::AxesMismatch { axis, .. })) => {
                assert_eq!(axis, "n_devices");
            }
            Err(other) => panic!("expected axes refusal, got {other:?}"),
            Ok(_) => panic!("resume must refuse a different fleet size"),
        }
    }

    /// The kernel is not a plan axis: an index sealed under one kernel
    /// resumes under the other and serves the oracle's partition.
    #[test]
    fn resume_accepts_a_different_kernel() {
        let dir = ScratchDir::new("kernel");
        let g = planted(23);
        let params = light(23).with_kernel(ShingleKernel::SortCompact);
        let _engine = IncrementalEngine::bootstrap(&params, fleet(1), g.clone())
            .unwrap()
            .with_store(IndexStore::new(dir.path()))
            .unwrap();
        let other = params.with_kernel(ShingleKernel::FusedSelect);
        let engine = IncrementalEngine::resume(&other, fleet(1), IndexStore::new(dir.path()))
            .expect("an index resumes under the other kernel");
        let oracle = SerialShingling::new(other).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn masked_adjacency_preserves_node_ids() {
        let g = planted(24);
        let touched: Vec<VertexId> = (0..g.n() as u32).filter(|v| v % 3 == 0).collect();
        let masked = MaskedAdjacency::of(&g, &touched);
        assert_eq!(masked.n_nodes(), g.n());
        for v in 0..g.n() as u32 {
            if touched.binary_search(&v).is_ok() {
                assert_eq!(masked.list(v as usize), g.neighbors(v));
            } else {
                assert!(masked.list(v as usize).is_empty());
            }
        }
    }

    #[test]
    fn repeated_small_flushes_track_the_oracle() {
        let dir = ScratchDir::new("repeated");
        let g = pass_two_graph(25);
        let params = light(25);
        assert!(unsettled_lists(&g, params) >= 100);
        // Collect all edges, seed with the first third, then stream the
        // rest in four flushes.
        let all = edges(&g);
        let cut = all.len() / 3;
        let mut base_edges = EdgeList::new();
        for &(a, b) in &all[..cut] {
            base_edges.push(a, b);
        }
        let base = Csr::from_edges(g.n(), &mut base_edges);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), base)
            .unwrap()
            .with_store(IndexStore::new(dir.path()))
            .unwrap();
        let rest = &all[cut..];
        let chunk = rest.len().div_ceil(4);
        let mut grown = all[..cut].to_vec();
        for batch in rest.chunks(chunk.max(1)) {
            for &(a, b) in batch {
                engine.add_edge(a, b);
                grown.push((a, b));
            }
            let decision = engine.flush().unwrap();
            assert!(!decision.full, "{decision:?}");
            let mut edges = EdgeList::new();
            for &(a, b) in &grown {
                edges.push(a, b);
            }
            let stage = Csr::from_edges(g.n(), &mut edges);
            let oracle = SerialShingling::new(params).unwrap().cluster(&stage);
            assert_eq!(*engine.partition(), oracle);
            // The sealed generation, a segment or a compacted base,
            // resumes as the engine's own state.
            let resumed =
                IncrementalEngine::resume(&params, fleet(2), IndexStore::new(dir.path())).unwrap();
            assert_eq!(resumed.index(), engine.index());
            assert_eq!(resumed.partition(), engine.partition());
            assert_eq!(resumed.graph(), engine.graph());
        }
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    /// Flushes of three edges each seal segments until one compacts, and
    /// every sealed generation resumes as the engine's own state.
    #[test]
    fn small_flushes_seal_segments_until_one_compacts() {
        let dir = ScratchDir::new("segments");
        let g = pass_two_graph(28);
        let params = light(28);
        let all = edges(&g);
        let cut = all.len() * 9 / 10;
        let mut base_edges: EdgeList = all[..cut].iter().copied().collect();
        let base = Csr::from_edges(g.n(), &mut base_edges);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), base)
            .unwrap()
            .with_store(IndexStore::new(dir.path()))
            .unwrap();
        let segments = || {
            let text = std::fs::read_to_string(dir.path().join("index-manifest.json")).unwrap();
            let manifest = gpclust_support::json::parse(&text).unwrap();
            manifest.get("segments").unwrap().as_arr().unwrap().len()
        };
        let mut most = 0;
        for batch in all[cut..].chunks(3) {
            for &(a, b) in batch {
                engine.add_edge(a, b);
            }
            engine.flush().unwrap();
            let resumed =
                IncrementalEngine::resume(&params, fleet(1), IndexStore::new(dir.path())).unwrap();
            assert_eq!(resumed.index(), engine.index());
            assert_eq!(resumed.partition(), engine.partition());
            let k = segments();
            assert!(k == most + 1 || k == 0, "{most} segments, then {k}");
            if k == 0 {
                break;
            }
            most = k;
        }
        assert!(
            most >= 2 && segments() == 0,
            "{most} segments, then {}",
            segments()
        );
        let oracle = SerialShingling::new(params)
            .unwrap()
            .cluster(engine.graph());
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn fault_policy_degrade_composes_with_delta() {
        let g = pass_two_graph(26);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(26).with_fault_policy(FaultPolicy {
            degrade_to_host: true,
            ..FaultPolicy::default()
        });
        assert!(unsettled_lists(&g, params) >= 100);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), base).unwrap();
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }
}
