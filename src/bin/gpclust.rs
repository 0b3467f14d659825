//! `gpclust` — command-line interface to the full pipeline.
//!
//! ```text
//! gpclust generate    --n 5000 --seed 7 --out data.faa [--truth truth.tsv]
//! gpclust build-graph --fasta data.faa --out graph.bin [--loose]
//! gpclust cluster     --graph graph.bin --out clusters.tsv
//!                     [--serial] [--devices N] [--seed 7]
//!                     [--kernel select|sort]
//!                     [--mem-budget 64M] [--shards N]
//!                     [--s1 2 --c1 200 --s2 2 --c2 100] [--min-size 1]
//! gpclust serve       --index-dir DIR [--graph graph.bin] [--resume] ...
//! gpclust stats       --graph graph.bin
//! gpclust quality     --test clusters.tsv --benchmark truth.tsv --n <vertices>
//! ```
//!
//! Each subcommand accepts only its own flags: an unknown flag, a stray
//! argument or a value that does not parse is an error naming the flag.
//! Cluster files are two-column TSV: `sequence_id <TAB> cluster_id`
//! (unassigned sequences omitted).

use gpclust::core::multi_gpu::MultiGpuClust;
use gpclust::core::quality::ConfusionCounts;
use gpclust::core::{
    CheckpointConfig, CrashPlan, FaultPolicy, IncrementalEngine, IndexStore, Plan, SerialShingling,
    ShingleKernel, ShinglingParams,
};
use gpclust::gpu::{DeviceConfig, FaultPlan, Gpu};
use gpclust::graph::{io as graph_io, Partition};
use gpclust::homology::{graph_from_fasta, HomologyConfig};
use gpclust::seqsim::fasta;
use gpclust::seqsim::metagenome::{Metagenome, MetagenomeConfig};
use std::collections::HashMap;
use std::fmt::Display;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// A subcommand and the flags it accepts.
struct Subcommand {
    name: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    /// Flags that take one value.
    values: &'static [&'static str],
    /// Flags that take none.
    switches: &'static [&'static str],
    /// Whether [`PARAM_FLAGS`] apply too.
    params: bool,
}

/// The parameter, device and fault-policy flags `cluster` and `serve`
/// share ([`params_from_flags`], [`devices`]), so an index built by one
/// is resumable by the other.
const PARAM_FLAGS: &[&str] = &[
    "seed",
    "kernel",
    "s1",
    "c1",
    "s2",
    "c2",
    "mem-budget",
    "shards",
    "devices",
    "inject-faults",
    "max-retries",
    "oom-backoff",
];

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "generate",
        run: cmd_generate,
        values: &["n", "seed", "out", "truth"],
        switches: &[],
        params: false,
    },
    Subcommand {
        name: "build-graph",
        run: cmd_build_graph,
        values: &["fasta", "out", "backend"],
        switches: &["loose"],
        params: false,
    },
    Subcommand {
        name: "cluster",
        run: cmd_cluster,
        values: &["graph", "out", "min-size", "checkpoint-dir", "inject-crash"],
        switches: &["serial", "resume", "no-degrade"],
        params: true,
    },
    Subcommand {
        name: "serve",
        run: cmd_serve,
        values: &["index-dir", "graph", "delta-batch"],
        switches: &["resume", "no-degrade"],
        params: true,
    },
    Subcommand {
        name: "stats",
        run: cmd_stats,
        values: &["graph"],
        switches: &[],
        params: false,
    },
    Subcommand {
        name: "quality",
        run: cmd_quality,
        values: &["test", "benchmark", "n"],
        switches: &[],
        params: false,
    },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match SUBCOMMANDS.iter().find(|c| c.name == cmd.as_str()) {
        Some(sub) => parse_flags(sub, rest).and_then(|args| (sub.run)(&args)),
        None if matches!(cmd.as_str(), "--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        None => Err(format!("unknown subcommand `{cmd}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
gpclust — GPU-accelerated protein family identification (reproduction)

subcommands:
  generate     synthesize a metagenome        (--n, --seed, --out, [--truth])
  build-graph  FASTA -> similarity graph      (--fasta, --out, [--loose],
                                               [--backend kmer|suffix])
  cluster      graph -> clusters              (--graph, --out, [--serial],
                                               [--devices N], [--seed],
                                               [--kernel select|sort] for the
                                               top-s extraction kernel
                                               (default select),
                                               [--mem-budget BYTES] out-of-core
                                               resident-byte budget (K/M/G
                                               suffixes; also env
                                               GPCLUST_MEM_BUDGET) — Pass I
                                               shards to that bound, spilling
                                               sorted runs to disk,
                                               [--shards N] to pin the shard
                                               count explicitly,
                                               [--s1/--c1/--s2/--c2],
                                               [--min-size],
                                               [--inject-faults seed:rate]
                                               deterministic fault injection
                                               (also env GPCLUST_INJECT_FAULTS),
                                               [--max-retries N],
                                               [--oom-backoff true|false],
                                               [--no-degrade] to forbid the
                                               per-batch host fallback,
                                               [--checkpoint-dir PATH] durable
                                               run manifest: sealed, checksummed
                                               spill runs + a journal of
                                               completed shards,
                                               [--resume] replay completed
                                               shards from the manifest
                                               (refuses on input or plan
                                               mismatch),
                                               [--inject-crash SPEC] seeded
                                               kill injection, SPEC =
                                               `seed:rate` or
                                               `site:occurrence,...` with sites
                                               shard-seal|manifest-commit|merge
                                               (also env GPCLUST_INJECT_CRASH))
  serve        long-running incremental       (--index-dir DIR durable shingle
               clustering engine               index + snapshots,
                                               --graph graph.bin base graph
                                               (bootstrap; omit with --resume),
                                               [--resume] reopen the last
                                               sealed generation (refuses on
                                               axes/fingerprint mismatch),
                                               [--delta-batch N] auto-flush
                                               once N edges are pending
                                               (default: explicit `flush`),
                                               plus the `cluster` parameter
                                               flags: --devices, --seed,
                                               --kernel, --mem-budget, --shards,
                                               --s1/--c1/--s2/--c2 and the
                                               fault-policy flags.
               stdin commands (one per line, replies on stdout):
                 vertices K   append K vertices      -> ok
                 add U V      insert edge (U,V)      -> ok (U, V below
                                                        n plus declared
                                                        vertices)
                 flush        apply pending delta    -> flushed gen=G n=N
                                                        touched=T path=P
                 query V      family membership      -> family <id> | none
                 dump PATH    write partition TSV    -> ok
                 crash        exit(137), no flush    (crash-recovery testing)
                 quit         exit cleanly
  stats        Table II statistics            (--graph)
  quality      score clusters vs a benchmark  (--test, --benchmark, --n)";

type Flags = HashMap<String, String>;

/// `--key value` pairs and `--switch`es, checked against what `sub`
/// accepts.
fn parse_flags(sub: &Subcommand, tokens: &[String]) -> Result<Flags, String> {
    let mut map = Flags::new();
    let mut it = tokens.iter();
    while let Some(tok) = it.next() {
        let Some(key) = tok.strip_prefix("--") else {
            return Err(format!("unexpected argument `{tok}` for {}", sub.name));
        };
        let value = if sub.switches.contains(&key) {
            String::from("true")
        } else if sub.values.contains(&key) || (sub.params && PARAM_FLAGS.contains(&key)) {
            match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("--{key} needs a value")),
            }
        } else {
            return Err(format!("unknown flag --{key} for {}", sub.name));
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn need(args: &Flags, key: &str) -> Result<String, String> {
    args.get(key)
        .cloned()
        .ok_or_else(|| format!("missing required flag --{key}"))
}

/// The value of `--key`, or `default` when the flag is absent; a value
/// that does not parse is an error naming the flag.
fn get<T: FromStr>(args: &Flags, key: &str, default: T) -> Result<T, String>
where
    T::Err: Display,
{
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| format!("--{key}: cannot parse `{v}`: {e}")),
    }
}

fn cmd_generate(args: &Flags) -> Result<(), String> {
    let n = get(args, "n", 5_000usize)?;
    let seed = get(args, "seed", 7u64)?;
    let out = need(args, "out")?;
    let mg = Metagenome::generate(&MetagenomeConfig::gos_2m_scaled(n, seed));
    fasta::write_file(&out, &mg.proteins).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} sequences ({} families, {} noise) to {out}",
        mg.len(),
        mg.n_families,
        mg.n_noise()
    );
    if let Some(truth_path) = args.get("truth") {
        let truth = Partition::from_membership(mg.truth.clone());
        write_partition(truth_path, &truth)?;
        eprintln!("wrote benchmark partition to {truth_path}");
    }
    Ok(())
}

fn cmd_build_graph(args: &Flags) -> Result<(), String> {
    let fasta_path = need(args, "fasta")?;
    let out = need(args, "out")?;
    let mut config = HomologyConfig::default();
    if args.contains_key("loose") {
        config.criteria = gpclust::align::AcceptCriteria::fast_default();
    }
    match args.get("backend").map(String::as_str) {
        None | Some("kmer") => {}
        Some("suffix") => config.backend = gpclust::homology::FilterBackend::SuffixArray,
        Some(other) => {
            return Err(format!(
                "--backend must be `kmer` or `suffix`, got `{other}`"
            ))
        }
    }
    let (graph, stats) = graph_from_fasta(&fasta_path, &config).map_err(|e| e.to_string())?;
    graph_io::write_file(&out, &graph).map_err(|e| e.to_string())?;
    eprintln!(
        "graph: {} vertices, {} edges ({} candidates aligned); written to {out}",
        graph.n(),
        graph.m(),
        stats.pairs.n_pairs
    );
    Ok(())
}

fn parse_kernel(args: &Flags, default: ShingleKernel) -> Result<ShingleKernel, String> {
    match args.get("kernel").map(String::as_str) {
        None => Ok(default),
        Some("sort") => Ok(ShingleKernel::SortCompact),
        Some("select") => Ok(ShingleKernel::FusedSelect),
        Some(other) => Err(format!(
            "--kernel must be `sort` (segmented sort + compaction) or \
             `select` (fused top-s selection), got `{other}`"
        )),
    }
}

/// `--mem-budget BYTES` (with `K`/`M`/`G` binary suffixes) and
/// `--shards N` fill in the out-of-core [`MemoryBudget`]; the
/// `GPCLUST_MEM_BUDGET` env fallback is applied later, at plan lowering.
fn parse_mem_budget(
    args: &Flags,
    default: gpclust::core::MemoryBudget,
) -> Result<gpclust::core::MemoryBudget, String> {
    let mut budget = default;
    if let Some(v) = args.get("mem-budget") {
        budget.bytes = Some(gpclust::core::parse_bytes(v).ok_or_else(|| {
            format!("--mem-budget expects bytes with an optional K/M/G suffix, got `{v}`")
        })?);
    }
    if let Some(v) = args.get("shards") {
        budget.shards = Some(
            v.parse()
                .map_err(|e| format!("--shards expects a shard count: {e}"))?,
        );
    }
    Ok(budget)
}

/// `--inject-faults seed:rate` (falling back to `GPCLUST_INJECT_FAULTS`
/// in the environment), parsed into a deterministic device fault plan.
fn fault_plan(args: &Flags) -> Result<Option<FaultPlan>, String> {
    match args.get("inject-faults") {
        Some(spec) => FaultPlan::parse(spec).map(Some),
        None => Ok(FaultPlan::from_env()),
    }
}

/// The resilience knobs shared by the CLI and the bench binaries. Flags
/// that were not passed keep `default` (the params constructors stay the
/// single source of defaults).
fn fault_policy(args: &Flags, default: FaultPolicy) -> Result<FaultPolicy, String> {
    Ok(FaultPolicy {
        max_retries: get(args, "max-retries", default.max_retries)?,
        oom_backoff: get(args, "oom-backoff", default.oom_backoff)?,
        degrade_to_host: default.degrade_to_host && !args.contains_key("no-degrade"),
    })
}

/// `--checkpoint-dir PATH` opens the durable run manifest there;
/// `--resume` replays completed shards from it; `--inject-crash SPEC`
/// (falling back to `GPCLUST_INJECT_CRASH` in the environment) arms the
/// seeded in-process kill used by the crash-recovery harness.
fn checkpoint_config(args: &Flags) -> Result<Option<CheckpointConfig>, String> {
    let crash = match args.get("inject-crash") {
        Some(spec) => Some(CrashPlan::parse(spec)?),
        None => CrashPlan::from_env(),
    };
    let Some(dir) = args.get("checkpoint-dir") else {
        if args.contains_key("resume") {
            return Err("--resume requires --checkpoint-dir".into());
        }
        if crash.is_some() && args.contains_key("inject-crash") {
            return Err("--inject-crash requires --checkpoint-dir".into());
        }
        return Ok(None);
    };
    let mut cfg = CheckpointConfig::new(dir);
    if args.contains_key("resume") {
        cfg = cfg.resuming();
    }
    if let Some(crash) = crash {
        cfg = cfg.with_crash(crash);
    }
    Ok(Some(cfg))
}

/// The shared flag → parameter resolution: paper defaults, every flag an
/// override. Used identically by `cluster` and `serve` so an index built
/// by one is resumable by the other.
fn params_from_flags(args: &Flags) -> Result<ShinglingParams, String> {
    let base = ShinglingParams::paper_default(get(args, "seed", 7u64)?);
    Ok(ShinglingParams {
        s1: get(args, "s1", base.s1)?,
        c1: get(args, "c1", base.c1)?,
        s2: get(args, "s2", base.s2)?,
        c2: get(args, "c2", base.c2)?,
        kernel: parse_kernel(args, base.kernel)?,
        fault: fault_policy(args, base.fault)?,
        mem_budget: parse_mem_budget(args, base.mem_budget)?,
        ..base
    })
}

fn cmd_cluster(args: &Flags) -> Result<(), String> {
    let graph_path = need(args, "graph")?;
    let out = need(args, "out")?;
    let params = params_from_flags(args)?;
    let ckpt = checkpoint_config(args)?;
    let min_size = get(args, "min-size", 1usize)?;

    let partition = if args.contains_key("serial") {
        if ckpt.is_some() {
            return Err("--checkpoint-dir applies to the device paths, not --serial".into());
        }
        let g = graph_io::read_file(&graph_path).map_err(|e| e.to_string())?;
        eprintln!("loaded graph: {} vertices, {} edges", g.n(), g.m());
        SerialShingling::new(params)?.cluster(&g)
    } else {
        // Only the offsets load here: the driver reads the graph itself,
        // shard by shard from the file under a bounded budget.
        let gpus = devices(args)?;
        let f = graph_io::CsrFile::open(&graph_path).map_err(|e| e.to_string())?;
        eprintln!(
            "opened graph: {} vertices, {} list elements",
            f.n(),
            f.n_targets()
        );
        let (exec_plan, _) =
            Plan::lower_auto(&params, &gpus, f.offsets(), f.n()).map_err(|e| e.to_string())?;
        eprintln!("plan: {}", exec_plan.describe());
        drop(f);
        let mut clust = MultiGpuClust::new(params, gpus)?;
        if let Some(cfg) = ckpt {
            clust = clust.with_checkpoint(cfg);
        }
        let report = clust
            .cluster_from_file(&graph_path)
            .map_err(|e| e.to_string())?;
        eprintln!("component times: {}", report.times);
        if report.times.recovery.any() {
            eprintln!("recovery: {}", report.times.recovery);
        }
        report.partition
    };
    let filtered = partition.filter_min_size(min_size);
    write_partition(&out, &filtered)?;
    let st = filtered.size_stats();
    eprintln!(
        "wrote {} clusters covering {} sequences (largest {}) to {out}",
        st.n_groups, st.n_assigned, st.largest
    );
    Ok(())
}

/// `--devices N` simulated K20 cards, each armed with its share of the
/// `--inject-faults` plan.
fn devices(args: &Flags) -> Result<Vec<Gpu>, String> {
    let plan = fault_plan(args)?;
    Ok((0..get(args, "devices", 1usize)?)
        .map(|d| {
            let gpu = Gpu::new(DeviceConfig::tesla_k20());
            if let Some(plan) = &plan {
                gpu.set_fault_plan(plan.clone().with_device(d as u32));
            }
            gpu
        })
        .collect())
}

fn cmd_serve(args: &Flags) -> Result<(), String> {
    let dir = need(args, "index-dir")?;
    let params = params_from_flags(args)?;
    // Refuse a malformed GPCLUST_MEM_BUDGET up front, as `cluster` does,
    // rather than as a device failure inside the first pass.
    params.mem_budget.or_env().map_err(|e| e.to_string())?;
    let gpus = devices(args)?;
    let store = IndexStore::new(&dir);
    let mut engine = if args.contains_key("resume") {
        let engine = IncrementalEngine::resume(&params, gpus, store).map_err(|e| e.to_string())?;
        eprintln!(
            "resumed generation {} from {dir} ({} vertices)",
            engine.generation(),
            engine.n_vertices()
        );
        engine
    } else {
        let graph_path = args
            .get("graph")
            .ok_or("bootstrapping requires --graph (or pass --resume)")?;
        let g = graph_io::read_file(graph_path).map_err(|e| e.to_string())?;
        eprintln!("loaded graph: {} vertices, {} edges", g.n(), g.m());
        let engine = IncrementalEngine::bootstrap(&params, gpus, g)
            .map_err(|e| e.to_string())?
            .with_store(store)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "bootstrapped generation {} into {dir} ({} vertices)",
            engine.generation(),
            engine.n_vertices()
        );
        engine
    };
    let delta_batch = get(args, "delta-batch", 0usize)?;

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut say = move |line: String| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut words = line.split_whitespace();
        match words.next() {
            None => {}
            // Vertex ids are u32 and an edge endpoint grows the graph up
            // to it, so the protocol only admits ids inside the declared
            // range, and only a range whose ids fit in u32.
            Some("vertices") => match words.next().and_then(|k| k.parse::<usize>().ok()) {
                Some(k) if engine.n_declared().saturating_add(k) > u32::MAX as usize => {
                    say(format!("error: vertices {k} would overflow u32 vertex ids"))?
                }
                Some(k) => {
                    engine.add_vertices(k);
                    say("ok".into())?;
                }
                None => say("error: usage `vertices K`".into())?,
            },
            Some("add") => {
                let (u, v) = (
                    words.next().and_then(|w| w.parse::<u32>().ok()),
                    words.next().and_then(|w| w.parse::<u32>().ok()),
                );
                let n = engine.n_declared();
                match (u, v) {
                    (Some(u), Some(v)) if u.max(v) as usize >= n => {
                        say(format!("error: vertex {} out of range", u.max(v)))?
                    }
                    (Some(u), Some(v)) => {
                        engine.add_edge(u, v);
                        say("ok".into())?;
                        if delta_batch > 0 && engine.pending_edges() >= delta_batch {
                            let d = engine.flush().map_err(|e| e.to_string())?;
                            say(flushed_line(&engine, &d))?;
                        }
                    }
                    _ => say("error: usage `add U V`".into())?,
                }
            }
            Some("flush") => {
                let d = engine.flush().map_err(|e| e.to_string())?;
                say(flushed_line(&engine, &d))?;
            }
            Some("query") => match words.next().and_then(|w| w.parse::<u32>().ok()) {
                Some(v) => match engine.query(v) {
                    Some(g) => say(format!("family {g}"))?,
                    None => say("none".into())?,
                },
                None => say("error: usage `query V`".into())?,
            },
            Some("dump") => match words.next() {
                Some(path) => {
                    write_partition(path, engine.partition())?;
                    say("ok".into())?;
                }
                None => say("error: usage `dump PATH`".into())?,
            },
            Some("crash") => {
                // Deterministic kill for the crash-recovery harness: no
                // flush, no teardown — pending deltas are lost, the last
                // sealed generation survives.
                std::process::exit(137);
            }
            Some("quit") => break,
            Some(other) => say(format!("error: unknown command `{other}`"))?,
        }
    }
    eprintln!(
        "serve: exiting at generation {} ({} vertices, {} pending edges dropped)",
        engine.generation(),
        engine.n_vertices(),
        engine.pending_edges()
    );
    Ok(())
}

/// The `flushed` reply: what happened and which path the engine took.
fn flushed_line(
    engine: &gpclust::core::IncrementalEngine,
    d: &gpclust::core::RefreshDecision,
) -> String {
    let path = if d.touched == 0 {
        "noop"
    } else if d.full {
        "full"
    } else {
        "delta"
    };
    format!(
        "flushed gen={} n={} touched={} path={path}",
        engine.generation(),
        d.n_vertices.max(engine.n_vertices()),
        d.touched
    )
}

fn cmd_stats(args: &Flags) -> Result<(), String> {
    let graph_path = need(args, "graph")?;
    let g = graph_io::read_file(&graph_path).map_err(|e| e.to_string())?;
    println!("{}", gpclust::graph::stats::GraphStats::of(&g));
    Ok(())
}

fn cmd_quality(args: &Flags) -> Result<(), String> {
    let n = get(args, "n", 0usize)?;
    if n == 0 {
        return Err("--n (total sequences) is required".into());
    }
    let test = read_partition(&need(args, "test")?, n)?;
    let benchmark = read_partition(&need(args, "benchmark")?, n)?;
    let counts = ConfusionCounts::count(&test, &benchmark);
    println!("{}", counts.scores());
    println!(
        "TP {}  FP {}  FN {}  TN {}",
        counts.tp, counts.fp, counts.fn_, counts.tn
    );
    Ok(())
}

fn write_partition(path: &str, p: &Partition) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut w = std::io::BufWriter::new(f);
    for (v, m) in p.membership().iter().enumerate() {
        if let Some(g) = m {
            writeln!(w, "{v}\t{g}").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn read_partition(path: &str, n: usize) -> Result<Partition, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut membership = vec![None; n];
    for (lineno, line) in std::io::BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (v, g) = line
            .split_once('\t')
            .ok_or_else(|| format!("{path}:{}: expected `vertex<TAB>cluster`", lineno + 1))?;
        let v: usize = v
            .trim()
            .parse()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let g: u32 = g
            .trim()
            .parse()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if v >= n {
            return Err(format!(
                "{path}:{}: vertex {v} out of range (n={n})",
                lineno + 1
            ));
        }
        membership[v] = Some(g);
    }
    Ok(Partition::from_membership(membership))
}
