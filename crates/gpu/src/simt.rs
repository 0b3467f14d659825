//! The device handle and kernel-launch machinery.
//!
//! A [`Gpu`] bundles the device description, memory accounting, the
//! simulated clock and the SM worker pool. Kernel launches, issued on a
//! [`crate::stream::Stream`], do two things:
//!
//! 1. **Execute for real**: the caller supplies one task per thread block
//!    (or block batch); tasks run concurrently on the pool.
//! 2. **Charge simulated time**: a roofline cost model converts the launch's
//!    element count into device seconds —
//!    `max(compute, memory) + launch overhead`, where compute time scales
//!    with per-element operations (× a divergence factor, modeling SIMT
//!    warps serializing divergent branches) and memory time scales with
//!    per-element bytes (× a coalescing factor, modeling scattered access
//!    wasting transaction width).

use crate::clock::DeviceClock;
use crate::config::DeviceConfig;
use crate::counters::{Counters, CountersSnapshot};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultSite};
use crate::memory::DeviceError;
use crate::pool::SmPool;
use std::sync::Arc;

/// Shared device state behind a [`Gpu`] handle.
pub(crate) struct Shared {
    pub(crate) config: DeviceConfig,
    pub(crate) counters: Counters,
    pub(crate) clock: DeviceClock,
    pub(crate) pool: SmPool,
    pub(crate) fault: FaultInjector,
}

/// A handle to a simulated GPU. Cheap to clone.
#[derive(Clone)]
pub struct Gpu {
    pub(crate) shared: Arc<Shared>,
}

/// Per-element cost description of a kernel, consumed by the roofline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Simple arithmetic/logic operations per element.
    pub ops_per_element: f64,
    /// Global-memory bytes touched per element.
    pub bytes_per_element: f64,
    /// ≥ 1: multiplier on compute time for intra-warp divergence.
    pub divergence_factor: f64,
    /// ≥ 1: multiplier on memory time for non-coalesced access.
    pub coalescing_factor: f64,
}

impl KernelCost {
    /// A streaming elementwise transform (`thrust::transform` over u64s):
    /// one hash computation per element, fully coalesced reads/writes.
    pub fn transform() -> Self {
        KernelCost {
            ops_per_element: 8.0,
            bytes_per_element: 16.0,
            divergence_factor: 1.0,
            coalescing_factor: 1.0,
        }
    }

    /// Segmented sort. Merrill & Grimshaw-style GPU radix sort (the
    /// paper's ref \[15\]) makes several full passes over the keys, landing
    /// at roughly 1 G keys/s on the K20 preset, in line with published
    /// sorting rates of that generation; divergence is added because warps
    /// straddle segment boundaries of uneven adjacency lists.
    pub fn segmented_sort() -> Self {
        KernelCost {
            ops_per_element: 64.0,
            bytes_per_element: 64.0,
            divergence_factor: 1.5,
            coalescing_factor: 2.0,
        }
    }

    /// Gather/scatter with arbitrary indices: trivially cheap compute,
    /// heavily uncoalesced memory traffic.
    pub fn gather() -> Self {
        KernelCost {
            ops_per_element: 2.0,
            bytes_per_element: 20.0,
            divergence_factor: 1.0,
            coalescing_factor: 4.0,
        }
    }

    /// Fused hash-transform + per-segment top-k selection: one streaming
    /// read of the raw elements with an s-sized insertion buffer per
    /// segment held in registers/shared memory, and a dense O(s)-per-
    /// segment write — the select-don't-sort shape of min-wise sketching
    /// (Broder et al.). Compute is the hash (~8 ops) plus a short insertion
    /// probe (~4 ops amortized: most elements fail the `v < buf[k-1]` test
    /// after the buffer warms up); memory is the 4-byte coalesced input
    /// read plus the amortized dense output write. Divergence models warps
    /// straddling uneven segment boundaries, same as the segmented sort.
    /// Contrast with [`KernelCost::segmented_sort`]: no radix passes over
    /// an 8-byte packed workspace, so per element this kernel is roughly an
    /// order of magnitude cheaper on both roofline axes.
    pub fn segmented_select() -> Self {
        KernelCost {
            ops_per_element: 12.0,
            bytes_per_element: 10.0,
            divergence_factor: 1.5,
            coalescing_factor: 1.0,
        }
    }
}

impl Gpu {
    /// Create a device with the default worker count (host parallelism).
    pub fn new(config: DeviceConfig) -> Self {
        Gpu::with_workers(config, 0)
    }

    /// Create a device with an explicit worker count (for determinism
    /// studies and tests; results never depend on it, wall time does).
    pub fn with_workers(config: DeviceConfig, n_workers: usize) -> Self {
        Gpu {
            shared: Arc::new(Shared {
                config,
                counters: Counters::default(),
                clock: DeviceClock::new(),
                pool: SmPool::new(n_workers),
                fault: FaultInjector::default(),
            }),
        }
    }

    /// Install a fault-injection plan (see [`crate::fault`]). Resets the
    /// injector's occurrence counters and RNG so the plan replays
    /// identically from this point.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.shared.fault.set_plan(plan);
    }

    /// True once an injected `DeviceLost` has fired on this device; every
    /// fallible operation fails from then on.
    pub fn is_lost(&self) -> bool {
        self.shared.fault.is_lost()
    }

    /// Surface any pending (sticky) kernel fault, CUDA
    /// `cudaGetLastError`-style: an injected launch failure parks here and
    /// the first `take_fault`/`try_dtoh_async` after it reports the error.
    pub fn take_fault(&self) -> Result<(), DeviceError> {
        match self.shared.fault.take_pending() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Internal: draw at `site` and map the kind onto a concrete
    /// [`DeviceError`] with call-site context.
    pub(crate) fn injected_fault(&self, site: FaultSite, bytes: usize) -> Option<DeviceError> {
        let kind = self.shared.fault.draw(site)?;
        Some(match kind {
            FaultKind::TransferFailed => DeviceError::TransferFailed {
                h2d: site == FaultSite::H2D,
                bytes,
            },
            FaultKind::LaunchFailed => DeviceError::LaunchFailed,
            FaultKind::Ecc => DeviceError::Ecc,
            FaultKind::OutOfMemory => DeviceError::OutOfMemory {
                requested: bytes,
                available: self.mem_available(),
                capacity: self.shared.config.global_mem_bytes,
            },
            FaultKind::DeviceLost => DeviceError::DeviceLost {
                device: self.shared.fault.device(),
            },
        })
    }

    /// The device description.
    pub fn config(&self) -> &DeviceConfig {
        &self.shared.config
    }

    /// Simulated seconds a launch over `n_elements` with `cost` takes.
    pub fn model_kernel_seconds(&self, n_elements: usize, cost: &KernelCost) -> f64 {
        let c = &self.shared.config;
        let compute = n_elements as f64 * cost.ops_per_element * cost.divergence_factor
            / c.sustained_ops_per_sec();
        let memory = n_elements as f64 * cost.bytes_per_element * cost.coalescing_factor
            / (c.mem_bandwidth_gbps * 1e9);
        compute.max(memory) + c.launch_overhead_us * 1e-6
    }

    /// Simulated seconds for a *sequence* of kernel launches, each an
    /// `(element count, cost)` entry — the building block plan predictors
    /// use to price one batch round of a lowered schedule without touching
    /// device state. Each entry pays its own launch overhead, exactly as
    /// the per-launch model does.
    pub fn model_kernel_sequence_seconds(&self, launches: &[(usize, KernelCost)]) -> f64 {
        launches
            .iter()
            .map(|(n, cost)| self.model_kernel_seconds(*n, cost))
            .sum()
    }

    /// Body of [`crate::stream::Stream::launch`]: run `tasks` (one per
    /// thread block / block batch) on the SM pool until every task
    /// completes, tally the launch, charge the modeled device time for
    /// `n_elements`, and return it so the stream can advance its cursor.
    pub(crate) fn execute_and_model<'env>(
        &self,
        n_elements: usize,
        cost: &KernelCost,
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
    ) -> f64 {
        if let Some(e) = self.injected_fault(FaultSite::Kernel, 0) {
            // A failed launch runs nothing and charges nothing; the error
            // parks as a sticky pending fault that surfaces at the next
            // fallible sync point ([`Gpu::take_fault`], `try_dtoh_async`).
            self.shared.fault.set_pending(e);
            return 0.0;
        }
        let wall_start = std::time::Instant::now();
        self.shared.pool.execute_batch(tasks);
        self.shared.counters.kernel_wall_ns.fetch_add(
            wall_start.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        self.shared
            .counters
            .kernel_launches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let modeled = self.model_kernel_seconds(n_elements, cost);
        self.shared.clock.charge_kernel(modeled);
        modeled
    }

    /// Snapshot of all telemetry (counters + simulated clock).
    pub fn counters(&self) -> CountersSnapshot {
        self.shared.counters.snapshot(
            self.shared.clock.kernel_seconds(),
            self.shared.clock.h2d_seconds(),
            self.shared.clock.d2h_seconds(),
            self.shared.fault.injected_total(),
        )
    }

    /// Reset telemetry and clock (live buffers keep their memory). Also
    /// rewinds the fault injector's occurrence counters and RNG so a fixed
    /// plan replays identically per run — a lost device stays lost, though.
    pub fn reset_counters(&self) {
        self.shared.counters.reset();
        self.shared.clock.reset();
        self.shared.fault.reset_counts();
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.shared.config.name)
            .field("workers", &self.shared.pool.n_workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn gpu() -> Gpu {
        Gpu::with_workers(DeviceConfig::tesla_k20(), 2)
    }

    #[test]
    fn launch_runs_tasks_and_charges_time() {
        let g = gpu();
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..10)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        g.stream("compute")
            .launch(1_000_000, &KernelCost::transform(), tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        let snap = g.counters();
        assert_eq!(snap.kernel_launches, 1);
        assert!(snap.kernel_seconds > 0.0);
    }

    #[test]
    fn roofline_compute_vs_memory_bound() {
        let g = gpu();
        let compute_heavy = KernelCost {
            ops_per_element: 10_000.0,
            bytes_per_element: 1.0,
            divergence_factor: 1.0,
            coalescing_factor: 1.0,
        };
        let memory_heavy = KernelCost {
            ops_per_element: 1.0,
            bytes_per_element: 10_000.0,
            divergence_factor: 1.0,
            coalescing_factor: 1.0,
        };
        let n = 1_000_000;
        let tc = g.model_kernel_seconds(n, &compute_heavy);
        let tm = g.model_kernel_seconds(n, &memory_heavy);
        let overhead = g.config().launch_overhead_us * 1e-6;
        let expect_c = n as f64 * 10_000.0 / g.config().sustained_ops_per_sec() + overhead;
        let expect_m = n as f64 * 10_000.0 / (g.config().mem_bandwidth_gbps * 1e9) + overhead;
        assert!((tc - expect_c).abs() / expect_c < 1e-9);
        assert!((tm - expect_m).abs() / expect_m < 1e-9);
    }

    #[test]
    fn divergence_scales_compute_time() {
        let g = gpu();
        let base = KernelCost {
            ops_per_element: 1_000.0,
            bytes_per_element: 0.0,
            divergence_factor: 1.0,
            coalescing_factor: 1.0,
        };
        let diverged = KernelCost {
            divergence_factor: 2.0,
            ..base
        };
        let n = 1 << 20;
        let overhead = g.config().launch_overhead_us * 1e-6;
        let t1 = g.model_kernel_seconds(n, &base) - overhead;
        let t2 = g.model_kernel_seconds(n, &diverged) - overhead;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn segmented_sort_rate_near_published_k20_figures() {
        // The cost constants should land near ~1 G u64 keys/s on the K20.
        let g = Gpu::with_workers(DeviceConfig::tesla_k20(), 1);
        let n = 100_000_000usize;
        let t = g.model_kernel_seconds(n, &KernelCost::segmented_sort());
        let keys_per_sec = n as f64 / t;
        assert!(
            (5e8..5e9).contains(&keys_per_sec),
            "sort rate {keys_per_sec:.3e} keys/s out of plausible range"
        );
    }

    #[test]
    fn kernel_sequence_sums_per_launch_models() {
        let g = gpu();
        let seq = [
            (1_000_000usize, KernelCost::transform()),
            (1_000_000, KernelCost::segmented_sort()),
            (40_000, KernelCost::gather()),
        ];
        let summed: f64 = seq.iter().map(|(n, c)| g.model_kernel_seconds(*n, c)).sum();
        let got = g.model_kernel_sequence_seconds(&seq);
        assert!((got - summed).abs() < 1e-15);
        assert_eq!(g.model_kernel_sequence_seconds(&[]), 0.0);
    }

    #[test]
    fn reset_counters_clears_clock() {
        let g = gpu();
        g.stream("compute")
            .launch(100, &KernelCost::transform(), vec![]);
        // An empty task list still charges model time for n elements.
        assert!(g.counters().kernel_seconds >= 0.0);
        g.reset_counters();
        let snap = g.counters();
        assert_eq!(snap.kernel_launches, 0);
        assert_eq!(snap.kernel_seconds, 0.0);
    }
}
