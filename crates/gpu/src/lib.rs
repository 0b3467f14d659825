//! # gpclust-gpu — a software SIMT device simulator
//!
//! The paper runs its shingling kernels on an NVIDIA Tesla K20 through the
//! CUDA Thrust library. This environment has no GPU (and Rust's CUDA
//! ecosystem is immature for custom kernels), so this crate substitutes a
//! **software device simulator** that preserves everything the algorithm
//! actually interacts with:
//!
//! * **Limited device memory** ([`memory`]) — allocations are accounted
//!   against a configurable capacity (5 GB for the K20 preset) and fail with
//!   [`DeviceError::OutOfMemory`] when exceeded, which is what forces the
//!   batch-by-batch streaming of adjacency lists in gpClust's Algorithm 2.
//! * **Streams and events** ([`stream`]) — CUDA-style ordered async queues:
//!   `htod_async`/`dtoh_async` and stream launches charge modeled time to a
//!   per-stream cursor, with events for cross-stream dependencies. Every
//!   pass issues its copies and kernels on a compute/copy stream pair, so
//!   the pipelined makespan is the later of the two cursors — the
//!   asynchronous-copy "future work" the paper projects, made measurable.
//!   Each copy is charged `latency + bytes / bandwidth` ([`transfer`]).
//! * **Data-parallel execution** ([`simt`], [`pool`]) — kernels run for real
//!   on a CPU thread pool (thread blocks = tasks, SMs = workers), while a
//!   cost model accounts *device time* per launch (compute-bound vs
//!   memory-bound roofline + launch overhead).
//! * **Thrust-like kernels** ([`thrust`]) — the two primitives the paper
//!   names, `transform` and `segmented_sort`, plus the fused hash + top-s
//!   selection kernel ([`thrust::transform_select_on`]), each issued on a
//!   stream.
//!
//! Device time ([`clock`], [`counters`]) is *simulated* — derived from the
//! cost model, not wall-clock — so the Table I columns (GPU seconds,
//! Data c→g, Data g→c) can be reported for a machine this host is not.
//! Wall-clock speedups from the real thread-pool execution are reported
//! separately by the benchmark harness.
//!
//! * **Fault injection** ([`fault`]) — a seeded, deterministic injector
//!   models transfer failures, launch failures, ECC events, allocation
//!   faults and whole-device loss ([`DeviceError::DeviceLost`]), so the
//!   resilience layer upstream (retries, OOM backoff, host degradation,
//!   device-loss redistribution) is testable bit-for-bit.

pub mod clock;
pub mod config;
pub mod counters;
pub mod fault;
pub mod memory;
pub mod pool;
pub mod simt;
pub mod stream;
pub mod thrust;
pub mod transfer;

pub use config::DeviceConfig;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if another thread panicked while
/// holding it. Every lock in this crate guards data that each update
/// leaves consistent (one push, pop, store or counter step), and none is
/// held while a kernel task runs.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub use counters::CountersSnapshot;
pub use fault::{FaultKind, FaultPlan, FaultSite, ScheduledFault};
pub use memory::{DeviceBuffer, DeviceError};
pub use simt::{Gpu, KernelCost};
pub use stream::{Stream, StreamEvent};
