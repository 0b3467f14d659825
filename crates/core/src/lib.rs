//! # gpclust-core — the Shingling clustering algorithm
//!
//! The paper's primary contribution: a CPU–GPU implementation of the
//! Shingling randomized dense-subgraph heuristic (Gibson, Kumar, Tomkins,
//! VLDB 2005) for identifying protein family "core sets" in metagenomic
//! homology graphs. This crate provides:
//!
//! * [`params`] — the algorithm parameters (`s1, c1, s2, c2`, seed) with the
//!   paper's defaults (s1=2, c1=200, s2=2, c2=100).
//! * [`minwise`] — min-wise independent permutations via
//!   `h(v) = (A·v + B) mod P` and the s-smallest selection buffer.
//! * [`shingle`] — shingle keys, the raw per-trial shingle records a pass
//!   emits, and the adjacency-input abstraction shared by both passes.
//! * [`serial`] — the serial pClust reference implementation (the baseline
//!   of Table I and the oracle for the GPU path).
//! * [`batch`] — partitioning of adjacency lists into device-memory-sized
//!   batches, including lists split across batch boundaries.
//! * [`plan`] — the execution-plan IR: [`plan::Plan`] lowers
//!   [`params::ShinglingParams`] + device statistics into an explicit
//!   per-pass plan (batch list, kernel, sink, fault policy).
//! * [`autotune`] — the device makespan predictor and the
//!   capability-proportional share weighting for heterogeneous fleets.
//! * [`exec`] — the single [`exec::Executor`] that interprets a pass plan
//!   against the simulated device (Algorithm 1: hash transform,
//!   segmented sort / fused selection and top-s compaction over a group
//!   of trials, one D2H transfer per group) on a double-buffered
//!   compute/copy stream pair.
//! * [`aggregate`] — the CPU-side shingle-graph aggregation, including the
//!   merge of shingle fragments from split adjacency lists.
//! * [`spill`] — spill-to-disk sorted runs and the external k-way merge,
//!   the bounded-memory (out-of-core) variant of the aggregation layer.
//! * [`checkpoint`] — the durability layer over the sharded executor: a
//!   manifest journal of sealed, checksummed shard runs, crash-recovery
//!   resume, and the seeded crash-injection harness.
//! * [`index`] — the persistent shingle index: Pass I's shingle→vertex
//!   posting lists as a durable, incrementally maintained artifact.
//! * [`incremental`] — the base+delta clustering engine: delta passes over
//!   touched vertices merged into the stored index, bit-identical to
//!   re-clustering the union graph from scratch.
//! * [`report`] — Phase III: dense-subgraph reporting, both the overlapping
//!   connected-component variant and the union–find partition variant the
//!   paper adopts.
//! * [`pipeline`] — Algorithm 2: the one gpClust driver, on one device or
//!   a fleet, with the per-component timers that populate Table I.
//! * [`baseline`] — the GOS k-neighbor linkage comparator (SNN and
//!   edge-restricted variants).
//! * [`mcl`] — Markov Clustering, the comparator the metagenomics field
//!   standardized on (TribeMCL/OrthoMCL lineage).
//! * [`multi_gpu`] — a pass's batches dealt across the fleet's devices.
//! * [`quality`] — pairwise PPV/NPV/SP/SE (Equations 2–5) and cluster
//!   density (Equation 6) against a benchmark partition.
//! * [`timing`] — component timer plumbing.

pub mod aggregate;
pub mod autotune;
pub mod baseline;
pub mod batch;
pub mod checkpoint;
pub mod exec;
mod gpu_pass;
pub mod incremental;
pub mod index;
pub mod mcl;
pub mod minwise;
pub mod multi_gpu;
pub mod params;
pub mod pipeline;
pub mod plan;
pub mod probability;
pub mod quality;
pub mod report;
pub mod resilience;
pub mod serial;
pub mod shingle;
pub mod spill;
pub mod timing;

pub use autotune::{PlanAxes, Prediction, Sharing, WorkloadShape};
pub use baseline::{kneighbor_clusters, kneighbor_clusters_adjacent};
pub use batch::BatchStats;
pub use checkpoint::{
    CheckpointConfig, CheckpointError, Checkpointer, CrashPlan, CrashSite, KILL_MARKER,
};
pub use exec::{ClusterLabels, Executor, PassInput, PassReport, Sink};
pub use incremental::{EngineError, IncrementalEngine, RefreshDecision};
pub use index::{IndexSnapshot, IndexStore, ShingleIndex};
pub use params::{
    parse_bytes, AggregationMode, BudgetError, FaultPolicy, MemoryBudget, ShingleKernel,
    ShinglingParams,
};
pub use pipeline::{GpClust, GpClustReport};
pub use plan::{FragmentMode, PassPlan, Plan};
pub use quality::{ConfusionCounts, QualityScores};
pub use report::DistinctLists;
pub use serial::SerialShingling;
pub use spill::{ExternalRun, SpillStats, SpilledRun};
pub use timing::{RecoveryReport, ResidentGauge, StageTimes};
