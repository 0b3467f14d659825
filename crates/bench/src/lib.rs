//! # gpclust-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — runtime breakdown and speedups |
//! | `table2` | Table II — input graph statistics |
//! | `table3` | Table III — PPV/NPV/SP/SE vs the GOS baseline |
//! | `table4` | Table IV — partition statistics + densities |
//! | `fig5`   | Figure 5(a)/(b) — group/sequence size histograms |
//! | `largescale` | §IV-C large-run demonstration |
//!
//! Microbenches live under `benches/`; each is a plain binary timed with
//! [`time`].
//!
//! Expensive artifacts (alignment-built similarity graphs) are cached on
//! disk under [`data_dir`], keyed by their generating parameters, so the
//! table binaries can share them.

pub mod datasets;
pub mod quality;
pub mod reports;

use gpclust_core::{ShingleKernel, ShinglingParams};
pub use gpclust_support::json::Json;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Time `f` over `runs` calls after one warm-up call and print the
/// median. Under `cargo bench` (which passes `--bench`) every call is
/// timed; otherwise, as when `cargo test --benches` smoke-runs a bench,
/// only the warm-up call runs.
pub fn time<T>(name: &str, runs: usize, mut f: impl FnMut() -> T) {
    time_with_setup(name, runs, || (), |()| f())
}

/// [`time`] with an untimed `setup` before every call, whose output the
/// call consumes.
pub fn time_with_setup<S, T>(
    name: &str,
    runs: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) {
    black_box(f(setup()));
    if !std::env::args().any(|a| a == "--bench") {
        println!("{name}: ran once (pass --bench to time it)");
        return;
    }
    let mut secs: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            black_box(f(input));
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let median = secs[secs.len() / 2];
    println!("{name:<48} median {median:.3e} s of {} runs", secs.len());
}

/// `Json::Obj` of the named fields of `$v`, in order; each field value
/// is cloned and converted with `Json::from`.
#[macro_export]
macro_rules! json_fields {
    ($v:expr; $($field:ident),* $(,)?) => {
        $crate::Json::Obj(vec![
            $((stringify!($field).to_string(), $crate::Json::from($v.$field.clone()))),*
        ])
    };
}

/// Directory for cached datasets (override with `GPCLUST_DATA_DIR`).
pub fn data_dir() -> PathBuf {
    let dir = std::env::var_os("GPCLUST_DATA_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/gpclust-data"));
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}

/// Directory for generated experiment reports (override with
/// `GPCLUST_REPORT_DIR`). Anchored to this crate's `reports/` directory —
/// not the invoker's working directory — so `cargo bench` and the table
/// binaries write the same place no matter where they are launched from.
pub fn report_dir() -> PathBuf {
    let dir = std::env::var_os("GPCLUST_REPORT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reports"));
    std::fs::create_dir_all(&dir).expect("create report dir");
    dir
}

/// Write a headline `BENCH_*.json` report: the canonical copy goes to
/// [`report_dir`], and — unless `GPCLUST_REPORT_DIR` redirects output —
/// a byte-identical mirror goes to the workspace root, where the
/// checked-in copies live. Returns the canonical path.
///
/// Every modeled-report writer goes through here so the two locations can
/// never drift (previously each bench picked one ad hoc: some reports
/// existed only at the root, others only under `reports/`).
pub fn write_report(name: &str, json: &str) -> PathBuf {
    let path = report_dir().join(name);
    std::fs::write(&path, json).expect("write report");
    if std::env::var_os("GPCLUST_REPORT_DIR").is_none() {
        let mirror = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        std::fs::write(&mirror, json).expect("mirror report to workspace root");
    }
    path
}

/// Minimal CLI flag parsing: `--key value` pairs and bare `--flag`s.
#[derive(Debug, Default, Clone)]
pub struct Args {
    pairs: std::collections::HashMap<String, String>,
    flags: std::collections::HashSet<String>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the binary name).
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parse from an explicit token sequence (for tests).
    pub fn from_tokens(iter: impl IntoIterator<Item = String>) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        args.pairs.insert(key.to_string(), it.next().unwrap());
                    }
                    _ => {
                        args.flags.insert(key.to_string());
                    }
                }
            } else {
                eprintln!("ignoring stray argument: {tok}");
            }
        }
        args
    }

    /// Value of `--key`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.pairs
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether bare `--flag` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    /// Resolve the schedule/fault flags shared by every harness into a
    /// [`ScheduleArgs`]. Unknown values panic with a usage hint rather
    /// than silently benchmarking the wrong configuration.
    pub fn schedule(&self) -> ScheduleArgs {
        ScheduleArgs::resolve(self)
    }
}

/// The schedule and resilience knobs shared by every bench harness,
/// resolved once from the raw [`Args`]:
///
/// - `--kernel sort|select` — top-s extraction kernel
/// - `--mem-budget BYTES` (K/M/G binary suffixes; env fallback
///   `GPCLUST_MEM_BUDGET`) — out-of-core resident-byte budget; Pass I
///   shards to the bound and spills sorted runs to disk
/// - `--shards N` — pin the out-of-core shard count explicitly
/// - `--max-retries N`, `--oom-backoff true|false`, `--no-degrade` —
///   fault policy overrides
/// - `--inject-faults seed:rate` (or env `GPCLUST_INJECT_FAULTS`) —
///   deterministic device fault plan
///
/// Every knob is an *override*: flags that were not passed leave the base
/// [`ShinglingParams`] untouched, so defaults have exactly one source of
/// truth (the params constructors). [`ScheduleArgs::apply`] yields the
/// run's params — i.e. the configuration [`gpclust_core::Plan::lower`]
/// turns into an execution plan — and [`ScheduleArgs::harness_gpu`] the
/// simulated fleet to lower it against.
#[derive(Debug, Clone, Default)]
pub struct ScheduleArgs {
    kernel: Option<ShingleKernel>,
    mem_budget: Option<u64>,
    shards: Option<u32>,
    max_retries: Option<u32>,
    oom_backoff: Option<bool>,
    no_degrade: bool,
    fault_plan: Option<gpclust_gpu::FaultPlan>,
}

impl ScheduleArgs {
    /// Resolve from parsed flags. Panics on malformed values.
    pub fn resolve(args: &Args) -> Self {
        ScheduleArgs {
            kernel: match args.pairs.get("kernel").map(String::as_str) {
                None => None,
                Some("sort") => Some(ShingleKernel::SortCompact),
                Some("select") => Some(ShingleKernel::FusedSelect),
                Some(other) => panic!("--kernel must be `sort` or `select`, got `{other}`"),
            },
            mem_budget: args.pairs.get("mem-budget").map(|v| {
                gpclust_core::parse_bytes(v).unwrap_or_else(|| {
                    panic!("--mem-budget must be bytes with an optional K/M/G suffix, got `{v}`")
                })
            }),
            shards: args.pairs.get("shards").map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--shards must be an integer, got `{v}`"))
            }),
            max_retries: args.pairs.get("max-retries").map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--max-retries must be an integer, got `{v}`"))
            }),
            oom_backoff: args.pairs.get("oom-backoff").map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--oom-backoff must be true|false, got `{v}`"))
            }),
            no_degrade: args.flag("no-degrade"),
            fault_plan: match args.pairs.get("inject-faults") {
                Some(spec) => Some(
                    gpclust_gpu::FaultPlan::parse(spec)
                        .unwrap_or_else(|e| panic!("--inject-faults: {e}")),
                ),
                None => gpclust_gpu::FaultPlan::from_env(),
            },
        }
    }

    /// Apply the resolved overrides to `base`; knobs that were not passed
    /// keep the base value.
    pub fn apply(&self, base: ShinglingParams) -> ShinglingParams {
        let mut params = base;
        if let Some(kernel) = self.kernel {
            params = params.with_kernel(kernel);
        }
        if let Some(bytes) = self.mem_budget {
            params = params.with_mem_budget(bytes);
        }
        if let Some(shards) = self.shards {
            params = params.with_shards(shards);
        }
        params.with_fault_policy(gpclust_core::FaultPolicy {
            max_retries: self.max_retries.unwrap_or(base.fault.max_retries),
            oom_backoff: self.oom_backoff.unwrap_or(base.fault.oom_backoff),
            degrade_to_host: base.fault.degrade_to_host && !self.no_degrade,
        })
    }

    /// The standard simulated Tesla K20 every harness runs on, with any
    /// requested deterministic fault plan installed for `device`.
    pub fn harness_gpu(&self, device: u32) -> gpclust_gpu::Gpu {
        let gpu = gpclust_gpu::Gpu::new(gpclust_gpu::DeviceConfig::tesla_k20());
        if let Some(plan) = &self.fault_plan {
            gpu.set_fault_plan(plan.clone().with_device(device));
        }
        gpu
    }

    /// One-line summary of the execution plan `params` lowers to on
    /// `gpus` (see [`gpclust_core::Plan::describe`]).
    pub fn describe_plan(&self, params: &ShinglingParams, gpus: &[gpclust_gpu::Gpu]) -> String {
        gpclust_core::Plan::lower(params, gpus)
            .expect("lower execution plan")
            .describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_pairs_and_flags() {
        let a = Args::from_tokens(["--n", "500", "--full", "--seed", "7"].map(String::from));
        assert_eq!(a.get("n", 0usize), 500);
        assert_eq!(a.get("seed", 0u64), 7);
        assert_eq!(a.get("missing", 3usize), 3);
        assert!(a.flag("full"));
        assert!(!a.flag("absent"));
    }

    #[test]
    fn trailing_flag_without_value() {
        let a = Args::from_tokens(["--quick"].map(String::from));
        assert!(a.flag("quick"));
    }

    #[test]
    fn schedule_flags_apply_to_params() {
        let base = ShinglingParams::light(1);
        let a = Args::from_tokens(
            [
                "--kernel",
                "sort",
                "--mem-budget",
                "64M",
                "--shards",
                "4",
                "--max-retries",
                "5",
                "--no-degrade",
            ]
            .map(String::from),
        );
        let p = a.schedule().apply(base);
        assert_eq!(p.kernel, ShingleKernel::SortCompact);
        assert_eq!(p.mem_budget.bytes, Some(64 << 20));
        assert_eq!(p.mem_budget.shards, Some(4));
        assert_eq!(p.fault.max_retries, 5);
        assert!(!p.fault.degrade_to_host);
        // Knobs that were not passed keep the base params' values — the
        // params constructors stay the single source of defaults.
        let p = Args::from_tokens(Vec::<String>::new())
            .schedule()
            .apply(base);
        assert_eq!(p, base);
    }

    #[test]
    fn schedule_describe_names_the_lowered_plan() {
        let sched = Args::from_tokens(["--kernel", "sort"].map(String::from)).schedule();
        let params = sched.apply(ShinglingParams::light(1));
        let gpus = [sched.harness_gpu(0)];
        let line = sched.describe_plan(&params, &gpus);
        assert!(line.contains("sort-compact"), "{line}");
        assert!(line.contains("1 device(s)"), "{line}");
    }
}
