//! Shingling algorithm parameters.

/// The largest prime below 2³², used as the modulus P of the min-wise hash
/// `h(v) = (A·v + B) mod P`. Hash values therefore fit in 32 bits, which
/// lets a (hash, vertex) pair pack into one sortable `u64` — the layout the
/// segmented sort operates on.
pub const PRIME_P: u64 = 4_294_967_291;

/// Which device kernel extracts the top-s pairs of each adjacency list.
///
/// Both kernels produce **bit-identical shingle records** — Shingling only
/// ever consumes the `s` smallest permuted values of each list, and the
/// `s`-smallest set (sorted ascending, duplicates included) is the same
/// whether it comes from a full segmented sort or a direct selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShingleKernel {
    /// The paper's pipeline: `thrust::transform` into a packed `u64`
    /// workspace, a full `O(d log d)` segmented sort per trial, then a
    /// gather compacting the element ids of each segment's sorted prefix
    /// — three launches and one D2H copy per trial. Kept for the paper's
    /// Table I and as the device-side oracle.
    SortCompact,
    /// Fused hash + segmented top-s selection: one `O(d)` kernel hashes
    /// each element and keeps an s-sized insertion buffer per segment,
    /// writing the selected element ids straight to the output buffer. One
    /// launch and one D2H copy cover a whole group of trials
    /// ([`crate::batch::trial_group`]), so a batch pays the fixed costs
    /// `⌈c / g⌉` times. The general path and the default.
    #[default]
    FusedSelect,
}

/// Where the aggregation sort runs: on the host, as in the paper, which
/// keeps aggregation and component detection on the CPU. Every record
/// streams into [`crate::aggregate::StreamAggregator`] and one 128-bit
/// sort groups them. The one variant is the value the pass-planning
/// calls ([`crate::plan::Plan::pass`], [`crate::plan::Plan::capacity_for`])
/// take.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AggregationMode {
    /// Host-side sort of every record (the paper's measured setup).
    #[default]
    Host,
}

/// Out-of-core memory budget for the clustering passes.
///
/// Both settings produce **bit-identical clustering results** — the knob
/// only decides whether pass I streams the input in vertex-range shards
/// whose sorted runs spill to disk (see [`crate::spill`]) instead of
/// holding the whole working set resident. `bytes` caps the pass's
/// resident working set and derives the shard count; `shards` forces an
/// explicit shard count directly (useful for benchmarks); both unset (the
/// default) keeps the historical fully-resident path.
///
/// The environment variable `GPCLUST_MEM_BUDGET` (bytes, with optional
/// `K`/`M`/`G` suffix) supplies a budget when the params leave it unset —
/// the hook CI uses to drive the whole test suite through the spill path.
/// A value that does not parse is refused at plan lowering
/// ([`BudgetError::MalformedEnv`]), not ignored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Resident-byte cap for the sharded pass (`None` = uncapped).
    pub bytes: Option<u64>,
    /// Explicit shard count override (`None` = derive from `bytes`).
    pub shards: Option<u32>,
}

impl MemoryBudget {
    /// True when neither a byte cap nor a shard count is configured — the
    /// fully-resident path.
    pub fn is_unbounded(&self) -> bool {
        self.bytes.is_none() && self.shards.is_none()
    }

    /// This budget, falling back to `GPCLUST_MEM_BUDGET` when unset.
    /// Explicit params always win over the environment. An empty
    /// variable counts as unset; any other value must parse as bytes.
    pub fn or_env(self) -> Result<Self, BudgetError> {
        if !self.is_unbounded() {
            return Ok(self);
        }
        match std::env::var_os("GPCLUST_MEM_BUDGET") {
            Some(v) if !v.is_empty() => match v.to_str().and_then(parse_bytes) {
                Some(bytes) => Ok(MemoryBudget {
                    bytes: Some(bytes),
                    shards: None,
                }),
                None => Err(BudgetError::MalformedEnv {
                    value: v.to_string_lossy().into_owned(),
                }),
            },
            _ => Ok(self),
        }
    }

    /// Shard count for a pass whose fully-resident working set would be
    /// `est_resident_bytes`: an explicit `shards` wins; otherwise the
    /// smallest count whose per-shard slice fits `bytes`, clamped to
    /// `[1, max_shards]`. The driver's own carving packs vertices by
    /// their resident price instead, so its count can differ.
    pub fn resolve_shards(&self, est_resident_bytes: u64, max_shards: usize) -> usize {
        let max = max_shards.max(1);
        if let Some(n) = self.shards {
            return (n.max(1) as usize).min(max);
        }
        match self.bytes {
            Some(b) if b > 0 => (est_resident_bytes.div_ceil(b) as usize).clamp(1, max),
            _ => 1,
        }
    }

    /// Reject a byte budget too small to hold even the largest single
    /// vertex's working set (`min_feasible`, see
    /// [`crate::plan::Plan::min_feasible_budget`]) — such a budget cannot
    /// shard its way to feasibility; even a degenerate one-vertex-per-
    /// shard plan would exceed it. An explicit `shards` override skips
    /// the check (the operator asked for that carving by name), as does
    /// an unbounded budget.
    pub fn validate_feasible(&self, min_feasible: u64) -> Result<(), BudgetError> {
        match (self.bytes, self.shards) {
            (Some(b), None) if b < min_feasible => Err(BudgetError::Infeasible {
                budget: b,
                min_feasible,
            }),
            _ => Ok(()),
        }
    }
}

/// A memory budget the passes cannot run under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// No shard count can satisfy the budget: the largest single vertex
    /// needs more resident bytes than the whole cap allows.
    Infeasible {
        /// The configured resident-byte cap.
        budget: u64,
        /// The smallest cap this input is feasible under.
        min_feasible: u64,
    },
    /// `GPCLUST_MEM_BUDGET` holds a value that does not parse as bytes.
    MalformedEnv {
        /// The variable's value.
        value: String,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Infeasible {
                budget,
                min_feasible,
            } => write!(
                f,
                "memory budget of {budget} bytes is infeasible: the largest \
                 single vertex needs {min_feasible} resident bytes (set \
                 GPCLUST_MEM_BUDGET or --mem-budget to at least {min_feasible})"
            ),
            BudgetError::MalformedEnv { value } => write!(
                f,
                "GPCLUST_MEM_BUDGET expects bytes with an optional K/M/G \
                 suffix, got `{value}`"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Parse a byte count with an optional `K`/`M`/`G` (binary) suffix, e.g.
/// `"64M"` → 67108864. Returns `None` for malformed input and for a
/// count that overflows `u64`.
pub fn parse_bytes(v: &str) -> Option<u64> {
    let v = v.trim();
    let (digits, mult) = match v.chars().last()? {
        'k' | 'K' => (&v[..v.len() - 1], 1u64 << 10),
        'm' | 'M' => (&v[..v.len() - 1], 1u64 << 20),
        'g' | 'G' => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v, 1),
    };
    digits.trim().parse::<u64>().ok()?.checked_mul(mult)
}

/// [`ShinglingParams::par_sort_min`]'s value. Ignored like the field;
/// see there.
pub const PAR_SORT_MIN: usize = 1 << 15;

/// Default [`FaultPolicy::max_retries`].
pub const MAX_RETRIES: u32 = 3;

/// How the device passes respond to [`gpclust_gpu::DeviceError`]s —
/// injected or real. Every recovery action is tallied in
/// [`crate::timing::RecoveryReport`]; under any fault schedule that does
/// not exhaust this policy, results stay bit-identical to a fault-free
/// host run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Bounded re-attempts for *transient* faults (failed transfers,
    /// failed launches, ECC events) before the failing batch degrades to
    /// the host path (or errors out, if degradation is disabled).
    pub max_retries: u32,
    /// On `OutOfMemory`, halve the planned batch capacity and re-plan the
    /// whole pass instead of aborting. Stops (and surfaces the error) once
    /// the capacity floor of one element is reached.
    pub oom_backoff: bool,
    /// Execute a batch that exhausted its retries on the bit-identical
    /// host path instead of failing the run.
    pub degrade_to_host: bool,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: MAX_RETRIES,
            oom_backoff: true,
            degrade_to_host: true,
        }
    }
}

impl FaultPolicy {
    /// A policy that never recovers — every device error propagates.
    /// Useful for tests asserting typed-error surfacing.
    pub fn strict() -> Self {
        FaultPolicy {
            max_retries: 0,
            oom_backoff: false,
            degrade_to_host: false,
        }
    }
}

/// Parameters of the two-pass Shingling algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShinglingParams {
    /// Shingle size for the first pass (elements per shingle).
    pub s1: usize,
    /// Number of random trials (shingles per vertex) in the first pass.
    pub c1: usize,
    /// Shingle size for the second pass.
    pub s2: usize,
    /// Number of random trials in the second pass.
    pub c2: usize,
    /// Seed for the random hash family; the whole clustering is a pure
    /// function of (graph, params).
    pub seed: u64,
    /// Which top-s extraction kernel the device passes run (results are
    /// bit-identical across kernels; cost model and batch plan differ).
    pub kernel: ShingleKernel,
    /// Ignored: host aggregation always sorts serially. Kept, with
    /// [`PAR_SORT_MIN`] and the threshold argument of
    /// [`crate::aggregate::aggregate_with`] and
    /// [`crate::aggregate::fragment_run`], only because the benchmark's
    /// layer-by-layer replay still passes it; all three go when that
    /// replay's step-through is removed.
    pub par_sort_min: usize,
    /// Recovery policy for device faults (results are bit-identical
    /// whenever the policy is not exhausted; only timing and the
    /// [`crate::timing::RecoveryReport`] tallies differ).
    pub fault: FaultPolicy,
    /// Out-of-core memory budget (results are bit-identical whether the
    /// pass runs resident or sharded with spilled runs; only the resident
    /// working set and the disk traffic differ).
    pub mem_budget: MemoryBudget,
}

impl ShinglingParams {
    /// The paper's default settings: s1 = 2, c1 = 200, s2 = 2, c2 = 100.
    pub fn paper_default(seed: u64) -> Self {
        ShinglingParams {
            s1: 2,
            c1: 200,
            s2: 2,
            c2: 100,
            seed,
            kernel: ShingleKernel::FusedSelect,
            par_sort_min: PAR_SORT_MIN,
            fault: FaultPolicy::default(),
            mem_budget: MemoryBudget::default(),
        }
    }

    /// A cheaper setting for unit tests and small examples.
    pub fn light(seed: u64) -> Self {
        ShinglingParams {
            s1: 2,
            c1: 40,
            s2: 2,
            c2: 20,
            seed,
            kernel: ShingleKernel::FusedSelect,
            par_sort_min: PAR_SORT_MIN,
            fault: FaultPolicy::default(),
            mem_budget: MemoryBudget::default(),
        }
    }

    /// This parameter set with the given top-s extraction kernel.
    pub fn with_kernel(mut self, kernel: ShingleKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// This parameter set with the given fault-recovery policy.
    pub fn with_fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// This parameter set with a resident-byte budget (shard count derived
    /// from it at pass-planning time).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget.bytes = Some(bytes);
        self
    }

    /// This parameter set with an explicit shard count for the
    /// out-of-core pass.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.mem_budget.shards = Some(shards);
        self
    }

    /// Validate invariants (positive sizes and trial counts).
    pub fn validate(&self) -> Result<(), String> {
        if self.s1 == 0 || self.s2 == 0 {
            return Err("shingle sizes must be positive".into());
        }
        if self.c1 == 0 || self.c2 == 0 {
            return Err("trial counts must be positive".into());
        }
        if self.c1.max(self.c2) > u32::MAX as usize {
            return Err("trial counts must fit u32".into());
        }
        Ok(())
    }
}

impl ShinglingParams {
    /// The hash family `H = {h_1..h_c1}` for the first-level shingling.
    ///
    /// Both the serial oracle and the GPU pipeline derive their families
    /// through these two methods, which is what makes them bit-identical.
    pub fn family_pass1(&self) -> crate::minwise::HashFamily {
        crate::minwise::HashFamily::new(self.c1, self.seed ^ 0x5041_5353_0001)
    }

    /// The hash family for the second-level shingling.
    pub fn family_pass2(&self) -> crate::minwise::HashFamily {
        crate::minwise::HashFamily::new(self.c2, self.seed ^ 0x5041_5353_0002)
    }
}

impl Default for ShinglingParams {
    fn default() -> Self {
        Self::paper_default(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iii_d() {
        let p = ShinglingParams::paper_default(1);
        assert_eq!((p.s1, p.c1, p.s2, p.c2), (2, 200, 2, 100));
    }

    #[test]
    fn prime_is_prime_and_below_2_32() {
        // Compile-time range check (u64 literal comparison).
        const { assert!(PRIME_P < (1u64 << 32)) };
        // Trial division up to sqrt(P) ≈ 65536.
        let mut d = 2u64;
        while d * d <= PRIME_P {
            assert_ne!(PRIME_P % d, 0, "divisible by {d}");
            d += 1;
        }
    }

    #[test]
    fn kernel_defaults_to_fused_select() {
        assert_eq!(ShingleKernel::default(), ShingleKernel::FusedSelect);
        let p = ShinglingParams::paper_default(7);
        assert_eq!(p.kernel, ShingleKernel::FusedSelect);
        assert_eq!(ShinglingParams::light(7).kernel, ShingleKernel::FusedSelect);
        let sort = p.with_kernel(ShingleKernel::SortCompact);
        assert_eq!(sort.kernel, ShingleKernel::SortCompact);
        assert_eq!((sort.s1, sort.c1, sort.seed), (2, 200, 7));
    }

    #[test]
    fn fault_policy_defaults() {
        let d = FaultPolicy::default();
        assert_eq!(d.max_retries, MAX_RETRIES);
        assert!(d.oom_backoff);
        assert!(d.degrade_to_host);
        assert_eq!(ShinglingParams::paper_default(3).fault, d);
        let strict = ShinglingParams::paper_default(3).with_fault_policy(FaultPolicy::strict());
        assert_eq!(strict.fault.max_retries, 0);
        assert!(!strict.fault.oom_backoff);
        assert!(!strict.fault.degrade_to_host);
    }

    #[test]
    fn mem_budget_defaults_to_unbounded() {
        assert!(MemoryBudget::default().is_unbounded());
        assert!(ShinglingParams::paper_default(3).mem_budget.is_unbounded());
        let b = ShinglingParams::paper_default(3).with_mem_budget(1 << 20);
        assert_eq!(b.mem_budget.bytes, Some(1 << 20));
        assert!(!b.mem_budget.is_unbounded());
        let s = b.with_shards(4);
        assert_eq!(s.mem_budget.shards, Some(4));
    }

    #[test]
    fn mem_budget_shard_resolution() {
        // An explicit shard count wins over the byte derivation …
        let forced = MemoryBudget {
            bytes: Some(1),
            shards: Some(3),
        };
        assert_eq!(forced.resolve_shards(1 << 30, 16), 3);
        // … and both are clamped to the batch count.
        assert_eq!(forced.resolve_shards(1 << 30, 2), 2);
        let by_bytes = MemoryBudget {
            bytes: Some(100),
            shards: None,
        };
        assert_eq!(by_bytes.resolve_shards(100, 16), 1);
        assert_eq!(by_bytes.resolve_shards(101, 16), 2);
        assert_eq!(by_bytes.resolve_shards(1000, 16), 10);
        assert_eq!(by_bytes.resolve_shards(10_000, 16), 16);
        assert_eq!(MemoryBudget::default().resolve_shards(1 << 40, 16), 1);
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("123"), Some(123));
        assert_eq!(parse_bytes("4k"), Some(4096));
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes(" 8 M "), Some(8 << 20));
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("16777215G"), Some(16_777_215 << 30));
        assert_eq!(parse_bytes("17179869184G"), None, "2^64 overflows");
    }

    #[test]
    fn validation_rejects_degenerate_params() {
        let mut p = ShinglingParams::paper_default(0);
        assert!(p.validate().is_ok());
        p.s1 = 0;
        assert!(p.validate().is_err());
        p = ShinglingParams::paper_default(0);
        p.c2 = 0;
        assert!(p.validate().is_err());
    }
}
