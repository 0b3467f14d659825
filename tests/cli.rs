//! End-to-end tests of the `gpclust` CLI binary: generate → build-graph →
//! stats → cluster → quality, through real files and process invocations.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_gpclust")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpclust_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin()).args(args).output().expect("spawn CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_cli_workflow() {
    let dir = tmpdir("workflow");
    let faa = dir.join("mg.faa");
    let truth = dir.join("truth.tsv");
    let graph = dir.join("g.bin");
    let clusters = dir.join("clusters.tsv");

    let (ok, _, err) = run(&[
        "generate",
        "--n",
        "600",
        "--seed",
        "5",
        "--out",
        faa.to_str().unwrap(),
        "--truth",
        truth.to_str().unwrap(),
    ]);
    assert!(ok, "generate failed: {err}");
    assert!(faa.exists() && truth.exists());

    let (ok, _, err) = run(&[
        "build-graph",
        "--fasta",
        faa.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]);
    assert!(ok, "build-graph failed: {err}");

    let (ok, stdout, _) = run(&["stats", "--graph", graph.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("# Edges"), "stats output: {stdout}");

    let (ok, _, err) = run(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        clusters.to_str().unwrap(),
        "--c1",
        "50",
        "--c2",
        "25",
        "--min-size",
        "3",
    ]);
    assert!(ok, "cluster failed: {err}");
    let text = std::fs::read_to_string(&clusters).unwrap();
    assert!(!text.is_empty(), "no clusters written");
    assert!(text.lines().all(|l| l.split('\t').count() == 2));

    let (ok, stdout, err) = run(&[
        "quality",
        "--test",
        clusters.to_str().unwrap(),
        "--benchmark",
        truth.to_str().unwrap(),
        "--n",
        "600",
    ]);
    assert!(ok, "quality failed: {err}");
    assert!(stdout.contains("PPV"), "quality output: {stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serial_and_device_cli_agree() {
    let dir = tmpdir("agree");
    let faa = dir.join("mg.faa");
    let graph = dir.join("g.bin");
    run(&[
        "generate",
        "--n",
        "400",
        "--seed",
        "9",
        "--out",
        faa.to_str().unwrap(),
    ]);
    run(&[
        "build-graph",
        "--fasta",
        faa.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]);

    let a = dir.join("a.tsv");
    let b = dir.join("b.tsv");
    let (ok, _, err) = run(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        a.to_str().unwrap(),
        "--serial",
        "--c1",
        "40",
        "--c2",
        "20",
        "--seed",
        "3",
    ]);
    assert!(ok, "{err}");
    let (ok, _, err) = run(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        b.to_str().unwrap(),
        "--c1",
        "40",
        "--c2",
        "20",
        "--seed",
        "3",
    ]);
    assert!(ok, "{err}");
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
        "serial and device CLI paths must emit identical clusters"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_flags_recover_or_fail_typed() {
    let dir = tmpdir("faults");
    let faa = dir.join("mg.faa");
    let graph = dir.join("g.bin");
    run(&[
        "generate",
        "--n",
        "300",
        "--seed",
        "11",
        "--out",
        faa.to_str().unwrap(),
    ]);
    run(&[
        "build-graph",
        "--fasta",
        faa.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]);

    // Fault-free reference run.
    let clean = dir.join("clean.tsv");
    let (ok, _, err) = run(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        clean.to_str().unwrap(),
        "--c1",
        "40",
        "--c2",
        "20",
    ]);
    assert!(ok, "{err}");

    // Every device operation faults; the default policy recovers and the
    // clusters are bit-identical. The recovery line reports what happened.
    let faulty = dir.join("faulty.tsv");
    let (ok, _, err) = run(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        faulty.to_str().unwrap(),
        "--c1",
        "40",
        "--c2",
        "20",
        "--inject-faults",
        "7:1.0",
    ]);
    assert!(ok, "recovering run failed: {err}");
    assert!(err.contains("recovery:"), "no recovery line: {err}");
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&faulty).unwrap(),
        "faults must not change the clusters"
    );

    // With the policy disabled the same schedule is fatal: one-line typed
    // error on stderr, nonzero status, no panic backtrace.
    let (ok, _, err) = run(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        dir.join("strict.tsv").to_str().unwrap(),
        "--c1",
        "40",
        "--c2",
        "20",
        "--inject-faults",
        "7:1.0",
        "--max-retries",
        "0",
        "--no-degrade",
    ]);
    assert!(!ok, "strict run must fail");
    assert!(
        err.lines().any(|l| l.starts_with("error:")),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "panic leaked: {err}");

    // A malformed spec is rejected up front.
    let (ok, _, err) = run(&[
        "cluster",
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        dir.join("bad.tsv").to_str().unwrap(),
        "--inject-faults",
        "not-a-spec",
    ]);
    assert!(!ok);
    assert!(
        err.lines().any(|l| l.starts_with("error:")),
        "stderr: {err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn missing_required_flag_reports_error() {
    let (ok, _, err) = run(&["build-graph", "--fasta", "/nonexistent.faa"]);
    assert!(!ok);
    assert!(
        err.contains("--out") || err.contains("missing"),
        "stderr: {err}"
    );
}

/// Each subcommand accepts only its own flags, and a value that does not
/// parse is an error naming its flag: the removed schedule flags, a
/// misspelling and an unknown flag all exit 1, as does a malformed value,
/// for `cluster` and `serve` alike; an infeasible budget reads the same
/// from both — while a valid command still runs.
#[test]
fn unknown_flags_and_malformed_values_exit_1_naming_the_flag() {
    let dir = tmpdir("strict_flags");
    let graph = dir.join("g.bin");
    let out = dir.join("c.tsv");
    let mut el: gpclust::graph::EdgeList = (0..40u32).map(|v| (v, (v + 1) % 40)).collect();
    let g = gpclust::graph::Csr::from_edges(40, &mut el);
    gpclust::graph::io::write_file(&graph, &g).unwrap();
    let (graph, out) = (graph.to_str().unwrap(), out.to_str().unwrap());

    let exit = |args: &[&str]| {
        let o = Command::new(bin()).args(args).output().expect("spawn CLI");
        (
            o.status.code(),
            String::from_utf8_lossy(&o.stderr).into_owned(),
        )
    };
    let cluster = ["cluster", "--graph", graph, "--out", out];
    for (extra, named) in [
        (&["--overlap"][..], "unknown flag --overlap for cluster"),
        (
            &["--aggregate", "device"],
            "unknown flag --aggregate for cluster",
        ),
        (
            &["--components", "device"],
            "unknown flag --components for cluster",
        ),
        (&["--plan", "auto"], "unknown flag --plan for cluster"),
        (
            &["--par-sort-min", "0"],
            "unknown flag --par-sort-min for cluster",
        ),
        (
            &["--aggregation", "device"],
            "unknown flag --aggregation for cluster",
        ),
        (&["--bogus", "3"], "unknown flag --bogus for cluster"),
        (&["--devices", "two"], "--devices: cannot parse `two`"),
        (&["--seed", "abc"], "--seed: cannot parse `abc`"),
        (&["--kernel", "fast"], "--kernel must be"),
        (
            &["--mem-budget", "17179869184G"],
            "--mem-budget expects bytes with an optional K/M/G suffix, got `17179869184G`",
        ),
        (&["--seed"], "--seed needs a value"),
        (&["stray"], "unexpected argument `stray` for cluster"),
    ] {
        let args: Vec<&str> = cluster.iter().chain(extra).copied().collect();
        let (code, err) = exit(&args);
        assert_eq!(code, Some(1), "{extra:?} must exit 1: {err}");
        assert!(err.contains(&format!("error: {named}")), "{extra:?}: {err}");
    }
    let idx = dir.join("idx");
    let serve = [
        "serve",
        "--index-dir",
        idx.to_str().unwrap(),
        "--graph",
        graph,
    ];
    for (extra, named) in [
        (&["--overlap"][..], "unknown flag --overlap for serve"),
        (&["--plan", "auto"], "unknown flag --plan for serve"),
        (&["--refresh", "auto"], "unknown flag --refresh for serve"),
        (
            &["--par-sort-min", "0"],
            "unknown flag --par-sort-min for serve",
        ),
        (
            &["--delta-batch", "many"],
            "--delta-batch: cannot parse `many`",
        ),
    ] {
        let args: Vec<&str> = serve.iter().chain(extra).copied().collect();
        let (code, err) = exit(&args);
        assert_eq!(code, Some(1), "{extra:?} must exit 1: {err}");
        assert!(err.contains(&format!("error: {named}")), "{extra:?}: {err}");
    }
    // A malformed GPCLUST_MEM_BUDGET is refused like the flag, not
    // ignored into an unbounded run.
    for args in [&cluster[..], &serve[..]] {
        let o = Command::new(bin())
            .args(args)
            .env("GPCLUST_MEM_BUDGET", "16MB")
            .output()
            .expect("spawn CLI");
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{args:?} must exit 1: {err}");
        assert!(
            err.contains(
                "error: GPCLUST_MEM_BUDGET expects bytes with an optional K/M/G suffix, got `16MB`"
            ),
            "{args:?}: {err}"
        );
    }
    // An infeasible budget is a host-side refusal, not a device failure:
    // both commands print the same first `error:` line.
    let refusals: Vec<String> = [&cluster[..], &serve[..]]
        .iter()
        .map(|args| {
            let args: Vec<&str> = args.iter().chain(&["--mem-budget", "1"]).copied().collect();
            let (code, err) = exit(&args);
            assert_eq!(code, Some(1), "{args:?} must exit 1: {err}");
            let first = err.lines().find(|l| l.starts_with("error: "));
            first.unwrap_or_default().to_string()
        })
        .collect();
    assert!(
        refusals[0].starts_with("error: memory budget of 1 bytes is infeasible"),
        "{refusals:?}"
    );
    assert_eq!(refusals[0], refusals[1]);

    let valid: Vec<&str> = cluster
        .iter()
        .chain(&["--devices", "2", "--kernel", "select", "--seed", "3"])
        .copied()
        .collect();
    let (code, err) = exit(&valid);
    assert_eq!(code, Some(0), "{err}");
    assert!(std::fs::metadata(out).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A graph file whose header claims more than the file holds, or whose
/// lists name a vertex the graph does not have, is refused with a typed
/// error naming the byte offset — on every path that loads a graph, not
/// by an allocation abort or a union–find panic.
#[test]
fn corrupt_graph_files_exit_1_naming_the_byte() {
    let dir = tmpdir("corrupt_graph");
    let out = dir.join("c.tsv");
    let out = out.to_str().unwrap();

    // A 24-byte header claiming 2^40 vertices and no targets.
    let huge = dir.join("huge.bin");
    let mut bytes = b"GPCLGRF1".to_vec();
    bytes.extend((1u64 << 40).to_le_bytes());
    bytes.extend(0u64.to_le_bytes());
    std::fs::write(&huge, &bytes).unwrap();

    // A 40-vertex clique whose last list also names vertex 4 000 000 000.
    let bad_target = dir.join("bad_target.bin");
    let mut el: gpclust::graph::EdgeList = (0..40u32)
        .flat_map(|a| (a + 1..40).map(move |b| (a, b)))
        .collect();
    let g = gpclust::graph::Csr::from_edges(40, &mut el);
    gpclust::graph::io::write_file(&bad_target, &g).unwrap();
    let mut bytes = std::fs::read(&bad_target).unwrap();
    let at = bytes.len() - 4;
    bytes[at..].copy_from_slice(&4_000_000_000u32.to_le_bytes());
    std::fs::write(&bad_target, &bytes).unwrap();

    for (graph, modes) in [
        (
            &huge,
            &[&["--serial"][..], &[], &["--mem-budget", "1K"]][..],
        ),
        (
            &bad_target,
            &[
                &["--serial"][..],
                &[],
                &["--devices", "2", "--kernel", "sort"],
                &["--mem-budget", "16K"],
            ],
        ),
    ] {
        for flags in modes {
            let mut args = vec!["cluster", "--graph", graph.to_str().unwrap(), "--out", out];
            args.extend(flags.iter());
            let o = Command::new(bin()).args(&args).output().expect("spawn CLI");
            let err = String::from_utf8_lossy(&o.stderr);
            assert_eq!(o.status.code(), Some(1), "{args:?}: {err}");
            assert!(
                err.lines()
                    .any(|l| l.starts_with("error: graph file corrupt at byte ")),
                "{args:?}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_graph_shapes_match_the_serial_oracle() {
    use gpclust::graph::{io::write_file, Csr, EdgeList};
    let dir = tmpdir("hostile_shapes");

    // Degree-(n−1) star: vertex 0 lists every other vertex.
    let n_star = 300u32;
    let mut star: EdgeList = (1..n_star).map(|v| (0, v)).collect();
    // Five 12-vertex groups whose lists name every group member twice,
    // the vertex itself included, in descending order; vertex 60 lists
    // only itself, three times.
    let (mut offsets, mut targets) = (vec![0u64], Vec::new());
    for v in 0..60u32 {
        let group = v / 12 * 12..v / 12 * 12 + 12;
        targets.extend(group.clone().rev().chain(group.rev()));
        offsets.push(targets.len() as u64);
    }
    targets.extend([60, 60, 60]);
    offsets.push(targets.len() as u64);
    let graphs = [
        ("empty", Csr::from_raw(vec![0], Vec::new())),
        ("isolated", Csr::from_raw(vec![0; 51], Vec::new())),
        ("star", Csr::from_edges(n_star as usize, &mut star)),
        ("dup_self", Csr::from_raw(offsets, targets)),
    ];

    for (name, g) in graphs {
        let graph = dir.join(format!("{name}.bin"));
        write_file(&graph, &g).unwrap();
        let cluster = |out: &str, flags: &[&str]| {
            let out = dir.join(out);
            let mut args = vec![
                "cluster",
                "--graph",
                graph.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--min-size",
                "1",
            ];
            args.extend(flags);
            let (ok, _, err) = run(&args);
            assert!(ok, "{name} {flags:?}: {err}");
            std::fs::read(out).unwrap()
        };
        let oracle = cluster("oracle.tsv", &["--serial"]);
        let ckpt = dir.join(format!("{name}.ckpt"));
        for flags in [
            &[][..],
            &["--devices", "2"],
            &["--kernel", "sort"],
            &[
                "--mem-budget",
                "64K",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
            ],
        ] {
            assert!(
                cluster("device.tsv", flags) == oracle,
                "{name} {flags:?} differs from --serial"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
