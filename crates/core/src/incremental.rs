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
//! reproduces — bit for bit — the canonical run a from-scratch Pass I
//! over the union graph would emit. Passes II/III are cheap relative to
//! Pass I and always re-run from the merged index, so the resulting
//! [`Partition`] is *identical* to re-clustering the union graph from
//! scratch, across kernels × shards × fleets × faults.
//!
//! Refresh policy: a flush whose touched lists hold at least
//! [`FULL_REFRESH_SHARE`] of the union graph's adjacency elements
//! re-clusters from scratch (the body [`IncrementalEngine::bootstrap`]
//! runs); a smaller one runs the delta pass. Large deltas pay index
//! upkeep (retraction scan, k-way merge, re-inversion) without saving
//! much Pass-I work.
//!
//! Durability: with an attached [`IndexStore`], every flush seals a new
//! snapshot generation (index run + union graph + partition) through the
//! checkpoint layer's atomic-manifest machinery. A crash between flushes
//! loses only the pending (unflushed) delta; resume picks up the last
//! sealed generation and refuses stale stores with typed
//! [`CheckpointError`]s.

use gpclust_gpu::{DeviceError, Gpu};
use gpclust_graph::{Csr, GraphDelta, Partition, VertexId};

use crate::autotune::Prediction;
use crate::checkpoint::CheckpointError;
use crate::index::{IndexStore, ShingleIndex};
use crate::multi_gpu::MultiGpuClust;
use crate::params::ShinglingParams;
use crate::pipeline::GpClust;
use crate::plan::Plan;
use crate::shingle::AdjacencyInput;
use crate::spill::SpillStats;
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

/// The share of the union graph's adjacency elements the touched lists
/// must hold for [`IncrementalEngine::flush`] to re-cluster from scratch
/// instead of running the delta pass.
///
/// Measured with `gpclust serve` (release build, one simulated K20,
/// shared 2-vCPU VM) on the benchmark's 2K- and 10K-vertex graphs:
/// `flush` → `flushed` latency, median of 7 fresh sessions per cell,
/// each touched vertex given one new edge. Figures are delta / full in
/// ms, each path forced:
///
/// | touched vertices | 2K-vertex graph | 10K-vertex graph |
/// |---|---|---|
/// | 1 % | 125 / 134 | 1005 / 1142 |
/// | 5 % | 135 / 155 | 963 / 1204 |
/// | 20 % | 180 / 206 | 1184 / 1337 |
/// | 50 % | 213 / 247 | 1264 / 1195 |
/// | 100 % | 262 / 258 | 1216 / 1133 |
///
/// Touched vertices are drawn uniformly, so their share of the elements
/// tracks their share of the vertices. The delta path wins on both
/// graphs up to a fifth of the vertices and the full path once all are
/// touched; at a half the two split within the run-to-run spread, so the
/// paths cross near one half.
pub const FULL_REFRESH_SHARE: f64 = 0.5;

/// What a flush decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshDecision {
    /// Whether the engine re-clustered from scratch instead of running a
    /// delta pass: the touched lists held at least
    /// [`FULL_REFRESH_SHARE`] of the union's adjacency elements.
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
    /// Cluster `base` from scratch and seed the engine with its canonical
    /// index and partition. A memory budget too small for `base` is
    /// refused here, before any pass runs.
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
            // Placeholder; the bootstrap refresh installs `base` as the
            // first sealed state.
            base: Csr::from_raw(vec![0], Vec::new()),
            index: ShingleIndex::new(params.s1),
            partition: Partition::singletons(0),
            pending: GraphDelta::new(),
            store: None,
            generation: 0,
            spill: SpillStats::default(),
            recovery: RecoveryReport::default(),
        };
        engine.refresh(base, &[], true)?;
        Ok(engine)
    }

    /// Reopen a sealed store and continue from its last generation.
    /// `params` must agree with the store's axes record on every axis it
    /// records (typed refusal otherwise).
    pub fn resume(
        params: &ShinglingParams,
        gpus: Vec<Gpu>,
        store: IndexStore,
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
    pub fn with_store(mut self, store: IndexStore) -> Result<IncrementalEngine, EngineError> {
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
    /// index (a delta pass, or a full recluster once the touched lists
    /// hold [`FULL_REFRESH_SHARE`] of the union's adjacency elements),
    /// re-run Passes II/III from the merged index, and seal a new
    /// generation in the attached store. A no-op (with `touched == 0`)
    /// when nothing is pending. The resulting partition is bit-identical
    /// to clustering the union graph from scratch.
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
        let touched_elems: usize = touched.iter().map(|&v| union.degree(v)).sum();
        decision.full = touched_elems as f64 >= FULL_REFRESH_SHARE * union.targets().len() as f64;
        decision.touched = touched.len();
        decision.n_vertices = union.n();
        self.refresh(union, &touched, decision.full)?;
        Ok(decision)
    }

    /// One refresh: delta pass (retract + merge) or full recompute of the
    /// index, then Passes II/III from the merged index, then seal.
    fn refresh(&mut self, union: Csr, touched: &[VertexId], full: bool) -> Result<(), EngineError> {
        if full {
            self.index = ShingleIndex::new(self.params.s1);
            let (fresh, _, rec) =
                self.fleet
                    .gather_pass1_records(&self.params, &union, &mut self.spill)?;
            self.recovery.merge(&rec);
            self.index.merge(fresh);
        } else {
            let masked = MaskedAdjacency::of(&union, touched);
            let (fresh, _, rec) =
                self.fleet
                    .gather_pass1_records(&self.params, &masked, &mut self.spill)?;
            self.recovery.merge(&rec);
            self.index.retract(touched);
            self.index.merge(fresh);
        }
        let first = self.index.to_graph();
        let (partition, _, rec) =
            self.fleet
                .partition_from_first(&self.params, union.n(), first)?;
        self.recovery.merge(&rec);
        self.base = union;
        self.partition = partition;
        self.generation += 1;
        if let Some(store) = &self.store {
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
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Split a graph's edges: the first `keep` fraction forms the base,
    /// the rest arrive as a delta (same vertex range throughout).
    fn split(g: &Csr, keep_num: usize, keep_den: usize) -> (Csr, GraphDelta) {
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
        let g = planted(11);
        let (base, delta) = split(&g, 2, 3);
        let params = light(11);
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
        let g = planted(12);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(12);
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
        let g = planted(15);
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
        let g = planted(16);
        let (base, delta) = split(&g, 3, 4);
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
        let g = planted(17);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        // Two shards: the 24-vertex graph fits any byte budget unsharded.
        let params = light(17).with_shards(2);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), base).unwrap();
        let before = engine.spill_stats().bytes;
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        assert!(
            engine.spill_stats().bytes > before,
            "the delta pass must spill"
        );
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn faulty_device_delta_matches_oracle() {
        let g = planted(18);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(18);
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
    fn large_delta_reclusters_from_scratch() {
        let g = planted(19);
        let (base, delta) = split(&g, 1, 10);
        let params = light(19);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), base).unwrap();
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(decision.full, "{decision:?}");
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn small_delta_runs_the_delta_pass() {
        let g = planted(20);
        let (base, delta) = split(&g, g.m() - 1, g.m());
        let params = light(20);
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
        let g = planted(21);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(21);
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
        let g = planted(25);
        let params = light(25);
        // Collect all edges, seed with the first third, then stream the
        // rest in four flushes.
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
        let cut = all.len() / 3;
        let mut base_edges = EdgeList::new();
        for &(a, b) in &all[..cut] {
            base_edges.push(a, b);
        }
        let base = Csr::from_edges(g.n(), &mut base_edges);
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(2), base).unwrap();
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
        }
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }

    #[test]
    fn fault_policy_degrade_composes_with_delta() {
        let g = planted(26);
        let (base, delta) = split(&g, g.m() - 4, g.m());
        let params = light(26).with_fault_policy(FaultPolicy {
            degrade_to_host: true,
            ..FaultPolicy::default()
        });
        let mut engine = IncrementalEngine::bootstrap(&params, fleet(1), base).unwrap();
        engine.apply(&delta);
        let decision = engine.flush().unwrap();
        assert!(!decision.full, "{decision:?}");
        let oracle = SerialShingling::new(params).unwrap().cluster(&g);
        assert_eq!(*engine.partition(), oracle);
    }
}
