//! The execution-plan IR: lowering [`ShinglingParams`] and device
//! statistics into an explicit, inspectable description of how a
//! shingling pass will run.
//!
//! One schedule axis is left — [`ShingleKernel`] (sort-compact vs.
//! fused-select top-s extraction) — plus the [`FaultPolicy`], the memory
//! budget and 1–N devices. Every pass runs on the double-buffered
//! compute/copy stream pair, and aggregation and Phase III stay on the
//! host, as in the paper. The pipeline lowers its configuration once into
//! a [`Plan`] (the kernel plus the capacity model's verdict), derives one
//! [`PassPlan`] per shingling pass (the batch list and per-pass sink
//! parameters), and hands it to [`crate::exec::Executor::run`]. The driver
//! partitions a `PassPlan` into per-device sub-plans
//! ([`PassPlan::subplan`]) and reuses the same executor.
//!
//! ```text
//! params (ShinglingParams)           kernel + algorithm parameters
//!    │ lower()                       capacity model (crate::batch)
//!    ▼
//! plan (Plan → PassPlan)             batches, kernel, sink, policy
//!    │ Executor::run()
//!    ▼
//! exec (crate::exec)                 kernel strategy × sink on a stream pair
//!    │ launches / transfers
//!    ▼
//! device (gpclust-gpu)               simulated streams, counters, fault injection
//! ```

#![deny(dead_code)]

use crate::batch::{batch_capacity, plan_batches, Batch, BatchStats};
use crate::params::{AggregationMode, FaultPolicy, MemoryBudget, ShingleKernel, ShinglingParams};
use gpclust_gpu::{DeviceError, Gpu};

/// The run-level execution plan: the kernel plus the per-batch element
/// budget the capacity model derived from the smallest surviving device.
/// Lowered once per run (or per pass for multi-device drivers, which must
/// re-assess survivors) via [`Plan::lower`], or with the memory-budget
/// feasibility check via [`Plan::lower_auto`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Top-s extraction kernel the device passes launch.
    pub kernel: ShingleKernel,
    /// Where the record sort runs (always the host).
    pub aggregation: AggregationMode,
    /// Recovery policy wrapped around every device operation.
    pub policy: FaultPolicy,
    /// Devices the plan was lowered over (all of them, including lost
    /// ones — batches are dealt over survivors at execution time).
    pub n_devices: usize,
    /// Free bytes of the smallest surviving device at lowering time.
    pub min_device_mem: usize,
    /// Per-batch element budget ([`batch_capacity`] of
    /// `min_device_mem`).
    pub capacity: usize,
    /// Host-memory budget for the out-of-core path (resolved from params
    /// and the `GPCLUST_MEM_BUDGET` environment override at lowering
    /// time). Unbounded budgets keep every pass fully resident.
    pub mem_budget: MemoryBudget,
}

impl Plan {
    /// Lower `params` against the fleet: capacity is the
    /// [`batch_capacity`] of the smallest surviving device, so every batch
    /// fits on any device it may be (re)scheduled to. Typed
    /// [`DeviceError::DeviceLost`] once no device remains, and a
    /// [`DeviceError::HostIo`] carrying
    /// [`crate::params::BudgetError::MalformedEnv`] when
    /// `GPCLUST_MEM_BUDGET` does not parse.
    pub fn lower(params: &ShinglingParams, gpus: &[Gpu]) -> Result<Plan, DeviceError> {
        let min_device_mem = gpus
            .iter()
            .filter(|g| !g.is_lost())
            .map(|g| g.mem_available())
            .min()
            .ok_or_else(|| DeviceError::DeviceLost {
                device: gpus.iter().position(|g| g.is_lost()).unwrap_or(0) as u32,
            })?;
        Ok(Plan {
            kernel: params.kernel,
            aggregation: AggregationMode::Host,
            policy: params.fault,
            n_devices: gpus.len(),
            min_device_mem,
            capacity: batch_capacity(min_device_mem),
            mem_budget: params
                .mem_budget
                .or_env()
                .map_err(|e| DeviceError::HostIo {
                    detail: e.to_string(),
                })?,
        })
    }

    /// [`Plan::lower`], then refuse a byte budget no shard count of this
    /// input can satisfy. Returns the plan and the parameters every
    /// downstream decision derives from (`params` itself).
    pub fn lower_auto(
        params: &ShinglingParams,
        gpus: &[Gpu],
        offsets: &[u64],
        _n_vertices: usize,
    ) -> Result<(Plan, ShinglingParams), DeviceError> {
        let plan = Plan::lower(params, gpus)?;
        // A byte budget no shard count can satisfy fails here, up front,
        // with the minimum feasible figure — not as a degenerate
        // one-vertex-per-shard plan grinding through the pass.
        plan.mem_budget
            .validate_feasible(Plan::min_feasible_budget(offsets, params.s1, params.c1))
            .map_err(|e| DeviceError::HostIo {
                detail: e.to_string(),
            })?;
        Ok((plan, *params))
    }

    /// The smallest byte budget any shard carving of this input is
    /// feasible under: the largest [`Plan::vertex_resident_bytes`] of any
    /// one vertex. A budget below this fails
    /// [`MemoryBudget::validate_feasible`] even at one vertex per shard.
    pub fn min_feasible_budget(offsets: &[u64], s: usize, trials: usize) -> u64 {
        offsets
            .windows(2)
            .map(|w| Plan::vertex_resident_bytes(w[1] - w[0], s, trials))
            .max()
            .unwrap_or(0)
    }

    /// Estimated resident bytes one vertex of degree `deg` adds to a
    /// Pass-I shard: its flat adjacency plus, when its list reaches `s`
    /// elements, one record per trial held twice over at the residency
    /// peak (`2 × (16 + 8·s) B`: the gathered raw buffer plus the routed
    /// copy the fragment merge packs from). The one price behind
    /// [`Plan::min_feasible_budget`], [`Plan::estimate_pass_resident_bytes`]
    /// and the driver's shard carving.
    pub fn vertex_resident_bytes(deg: u64, s: usize, trials: usize) -> u64 {
        let records = if deg as usize >= s {
            trials as u64 * (32 + 16 * s as u64)
        } else {
            0
        };
        4 * deg + records
    }

    /// The per-batch element budget this plan's devices afford with
    /// `aggregation` (the host's: [`Plan::capacity`]).
    pub fn capacity_for(&self, aggregation: AggregationMode) -> usize {
        match aggregation {
            AggregationMode::Host => self.capacity,
        }
    }

    /// One-line human summary of the plan — what the CLI and the bench
    /// tables print instead of ad-hoc per-row batch-plan lines.
    pub fn describe(&self) -> String {
        let kernel = match self.kernel {
            ShingleKernel::SortCompact => "sort-compact",
            ShingleKernel::FusedSelect => "fused-select",
        };
        let base = format!(
            "kernel {kernel} | {} device(s) | {} elems/batch \
             (retries {}, oom-backoff {}, degrade {})",
            self.n_devices,
            self.capacity,
            self.policy.max_retries,
            if self.policy.oom_backoff { "on" } else { "off" },
            if self.policy.degrade_to_host {
                "on"
            } else {
                "off"
            },
        );
        if self.mem_budget.is_unbounded() {
            return base;
        }
        let budget = match (self.mem_budget.bytes, self.mem_budget.shards) {
            (Some(b), _) => format!("{b} B"),
            (None, Some(n)) => format!("{n} shard(s)"),
            (None, None) => unreachable!("bounded budget has bytes or shards"),
        };
        format!("{base} | mem-budget {budget}")
    }

    /// Estimated peak host-resident bytes of one *fully resident* pass:
    /// the sum of every vertex's [`Plan::vertex_resident_bytes`]. It
    /// deliberately prices the dominant buffers only, not allocator
    /// slack, so budgets are working-set bounds rather than RSS bounds.
    pub fn estimate_pass_resident_bytes(offsets: &[u64], s: usize, trials: usize) -> u64 {
        offsets
            .windows(2)
            .map(|w| Plan::vertex_resident_bytes(w[1] - w[0], s, trials))
            .sum()
    }

    /// Lower one shingling pass: plan the batches of `offsets` at
    /// `capacity` elements (the OOM-backoff loop, [`crate::resilience`],
    /// passes progressively smaller capacities on re-plan) and bind
    /// the per-pass sink parameters. In-order semantics
    /// ([`FragmentMode::Merge`]); call [`PassPlan::subplan`] to carve the
    /// per-device shares the driver runs, with deferred fragment handling.
    /// Records aggregate where `aggregation` says (the host).
    pub fn pass(
        &self,
        s: usize,
        aggregation: AggregationMode,
        capacity: usize,
        offsets: &[u64],
    ) -> PassPlan {
        let AggregationMode::Host = aggregation;
        self.pass_of(s, capacity, plan_batches(offsets, capacity))
    }

    /// [`Plan::pass`] over an explicit batch list planned at `capacity`
    /// (the driver's Pass I cuts each shard's element range separately).
    pub(crate) fn pass_of(&self, s: usize, capacity: usize, batches: Vec<Batch>) -> PassPlan {
        let stats = BatchStats::from_plan(&batches, capacity);
        PassPlan {
            s,
            kernel: self.kernel,
            policy: self.policy,
            capacity,
            fragments: FragmentMode::Merge,
            batches,
            stats,
            share: None,
        }
    }
}

/// How the executor treats adjacency lists split across batch boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentMode {
    /// In-order semantics: every batch runs in order, so boundary
    /// fragments merge on the host as each batch's trials arrive (the
    /// carry buffers) and every emitted record is final. For callers
    /// stepping through one pass by hand.
    Merge,
    /// The driver's semantics, on a fleet of any size: this executor sees
    /// only a share of the batches, so boundary segments are emitted as
    /// fragment-flagged raw records for the driver to reconcile. A batch
    /// that fails rolls its records back, so an interrupted share can
    /// re-run on a survivor without duplicating records; errors mid-share
    /// report the unfinished batch ids instead of failing the pass.
    Defer,
}

/// The lowered plan of one shingling pass: everything
/// [`crate::exec::Executor::run`] needs to interpret it.
#[derive(Debug, Clone)]
pub struct PassPlan {
    /// Shingle size (pairs per record).
    pub s: usize,
    /// Top-s extraction kernel.
    pub kernel: ShingleKernel,
    /// Recovery policy for every device op of the pass.
    pub policy: FaultPolicy,
    /// Per-batch element budget the batches were planned at.
    pub capacity: usize,
    /// Boundary-fragment handling (in order, or a deferred share).
    pub fragments: FragmentMode,
    /// The batch list covering the whole input.
    pub batches: Vec<Batch>,
    /// Plan statistics ([`BatchStats::from_plan`] of `batches`).
    pub stats: BatchStats,
    /// Batch indices this executor runs (`None` = all, in order).
    pub share: Option<Vec<usize>>,
}

impl PassPlan {
    /// The sub-plan for one device of a dealing round: the same
    /// batch list, restricted to `share`, with deferred fragment
    /// handling.
    pub fn subplan(&self, share: Vec<usize>) -> PassPlan {
        PassPlan {
            fragments: FragmentMode::Defer,
            share: Some(share),
            batches: self.batches.clone(),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpclust_gpu::DeviceConfig;

    #[test]
    fn lower_resolves_kernel_and_capacity() {
        let params = ShinglingParams::light(1).with_kernel(ShingleKernel::FusedSelect);
        let gpus: Vec<Gpu> = (0..3)
            .map(|_| Gpu::with_workers(DeviceConfig::tesla_k20(), 1))
            .collect();
        let plan = Plan::lower(&params, &gpus).unwrap();
        assert_eq!(plan.n_devices, 3);
        assert_eq!(plan.kernel, ShingleKernel::FusedSelect);
        assert_eq!(plan.capacity, batch_capacity(plan.min_device_mem));
        assert_eq!(plan.capacity_for(AggregationMode::Host), plan.capacity);
    }

    #[test]
    fn lower_uses_the_smallest_survivor() {
        let params = ShinglingParams::light(2);
        let gpus = vec![
            Gpu::with_workers(DeviceConfig::tesla_k20(), 1),
            Gpu::with_workers(DeviceConfig::tiny_test_device(), 1),
        ];
        let plan = Plan::lower(&params, &gpus).unwrap();
        let tiny = Plan::lower(&params, &gpus[1..]).unwrap();
        assert_eq!(plan.capacity, tiny.capacity, "smallest device bounds");
    }

    #[test]
    fn lower_without_survivors_is_device_lost() {
        use gpclust_gpu::{FaultKind, FaultPlan, FaultSite};
        let gpu = Gpu::with_workers(DeviceConfig::tiny_test_device(), 1);
        gpu.set_fault_plan(
            FaultPlan::scheduled()
                .with_fault(FaultSite::H2D, 1, FaultKind::DeviceLost)
                .with_device(0),
        );
        assert!(gpu.stream("probe").htod_async(&[1u32]).is_err());
        assert!(gpu.is_lost());
        let err = Plan::lower(&ShinglingParams::light(0), std::slice::from_ref(&gpu)).unwrap_err();
        assert!(matches!(err, DeviceError::DeviceLost { .. }), "{err}");
    }

    #[test]
    fn describe_names_the_kernel_and_fleet() {
        let params = ShinglingParams::light(0).with_kernel(ShingleKernel::FusedSelect);
        let gpus = vec![Gpu::with_workers(DeviceConfig::tesla_k20(), 1)];
        let line = Plan::lower(&params, &gpus).unwrap().describe();
        assert!(line.contains("kernel fused-select"), "{line}");
        assert!(line.contains("1 device(s)"), "{line}");
        assert!(line.contains("elems/batch"), "{line}");
        assert!(!line.contains('\n'), "one line: {line}");
    }

    #[test]
    fn lower_resolves_the_memory_budget_and_describe_reports_it() {
        let gpus = vec![Gpu::with_workers(DeviceConfig::tesla_k20(), 1)];
        let plan = Plan::lower(&ShinglingParams::light(1), &gpus).unwrap();
        // The CI out-of-core job exports GPCLUST_MEM_BUDGET, which lower()
        // resolves into this otherwise-unbounded plan.
        if std::env::var_os("GPCLUST_MEM_BUDGET").is_none() {
            assert!(plan.mem_budget.is_unbounded());
            assert!(!plan.describe().contains("mem-budget"));
        }

        let budgeted = ShinglingParams::light(1).with_mem_budget(1 << 20);
        let plan = Plan::lower(&budgeted, &gpus).unwrap();
        assert_eq!(plan.mem_budget.bytes, Some(1 << 20));
        assert!(
            plan.describe().contains("mem-budget 1048576 B"),
            "{}",
            plan.describe()
        );

        let sharded = ShinglingParams::light(1).with_shards(4);
        let plan = Plan::lower(&sharded, &gpus).unwrap();
        assert!(
            plan.describe().contains("mem-budget 4 shard(s)"),
            "{}",
            plan.describe()
        );
    }

    #[test]
    fn pass_footprint_estimate_prices_flat_plus_records() {
        // 4 lists of degrees 3, 1, 5, 0 → 9 elements; with s=2, two lists
        // emit (deg ≥ 2), so trials × 2 records at (32 + 16·2) bytes each
        // (raw + routed forms coexist at the peak).
        let offsets = [0u64, 3, 4, 9, 9];
        let est = Plan::estimate_pass_resident_bytes(&offsets, 2, 10);
        assert_eq!(est, 4 * 9 + 2 * 10 * 64);
        assert_eq!(Plan::estimate_pass_resident_bytes(&[0u64], 2, 10), 0);
        // More shards than the estimate warrants clamp to the batch count.
        let budget = crate::params::MemoryBudget {
            bytes: Some(100),
            shards: None,
        };
        assert_eq!(budget.resolve_shards(est, 3), 3, "clamped to max_shards");
    }

    #[test]
    fn infeasible_byte_budget_is_refused_up_front_naming_the_minimum() {
        let gpus = vec![Gpu::with_workers(DeviceConfig::tesla_k20(), 1)];
        let offsets: Vec<u64> = vec![0, 3, 400, 404];
        let params = ShinglingParams::light(0);
        let min = Plan::min_feasible_budget(&offsets, params.s1, params.c1);
        // The heaviest vertex: 397 elements flat + c1 emitted records.
        assert_eq!(min, 4 * 397 + params.c1 as u64 * (32 + 16 * 2));

        let err =
            Plan::lower_auto(&params.with_mem_budget(min - 1), &gpus, &offsets, 3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("infeasible"), "{msg}");
        assert!(msg.contains(&min.to_string()), "names the minimum: {msg}");

        // At exactly the minimum (or with an explicit shard count, or
        // unbounded) lowering proceeds.
        assert!(Plan::lower_auto(&params.with_mem_budget(min), &gpus, &offsets, 3).is_ok());
        assert!(Plan::lower_auto(&params.with_shards(2), &gpus, &offsets, 3).is_ok());
        assert!(Plan::lower_auto(&params, &gpus, &offsets, 3).is_ok());
    }

    #[test]
    fn pass_plans_batches_and_subplans_share_them() {
        let params = ShinglingParams::light(3);
        let gpus = vec![Gpu::with_workers(DeviceConfig::tesla_k20(), 1)];
        let plan = Plan::lower(&params, &gpus).unwrap();
        let offsets = [0u64, 3, 3, 8, 10];
        let pass = plan.pass(2, AggregationMode::Host, 4, &offsets);
        assert_eq!(pass.batches.len(), 3);
        assert_eq!(pass.stats.n_batches, 3);
        assert_eq!(pass.fragments, FragmentMode::Merge);
        assert!(pass.share.is_none());
        let sub = pass.subplan(vec![0, 2]);
        assert_eq!(sub.fragments, FragmentMode::Defer);
        assert_eq!(sub.share.as_deref(), Some(&[0usize, 2][..]));
        assert_eq!(sub.batches, pass.batches);
    }
}
