//! End-to-end test of `gpclust serve`: bootstrap an index from a base
//! graph, apply a scripted delta stream over stdin, kill the server
//! mid-stream (the `crash` command — pending deltas lost, sealed
//! generation durable), resume from the index directory, finish the
//! stream, and diff the dumped partition against a from-scratch
//! `gpclust cluster` run on the union graph. This is the same lifecycle
//! the CI `test-incremental` job scripts; a second lifecycle crashes after
//! a flush that seals a delta segment and after one that compacts.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use gpclust::graph::generate::{planted_partition, PlantedConfig};
use gpclust::graph::io as graph_io;
use gpclust::graph::{Csr, EdgeList, VertexId};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_gpclust")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpclust_serve_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The schedule/parameter flags shared by every invocation — an index
/// bootstrapped by one run must be resumable by the next, so `serve`
/// and `cluster` must agree on them.
const PARAM_FLAGS: &[&str] = &["--seed", "9", "--c1", "40", "--c2", "20"];

/// Run `serve` with `extra` flags, feeding `script` on stdin; returns
/// (exit_code, stdout, stderr).
fn serve(dir: &Path, extra: &[&str], script: &str) -> (Option<i32>, String, String) {
    let mut child = Command::new(bin())
        .arg("serve")
        .args(["--index-dir", dir.join("idx").to_str().unwrap()])
        .args(extra)
        .args(PARAM_FLAGS)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // A session that refuses exits without reading its script, so the
    // write may meet a closed pipe; the exit code and stderr say why.
    if let Err(e) = child.stdin.take().unwrap().write_all(script.as_bytes()) {
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::BrokenPipe,
            "write script: {e}"
        );
    }
    let out = child.wait_with_output().expect("wait serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `gpclust cluster --min-size 1` of the graph at `graph`: the TSV a
/// served partition of the same graph must equal byte for byte.
fn scratch_cluster(dir: &Path, graph: &Path) -> String {
    let full = dir.join("scratch.tsv");
    let status = Command::new(bin())
        .arg("cluster")
        .args(["--graph", graph.to_str().unwrap()])
        .args(["--out", full.to_str().unwrap()])
        .args(["--min-size", "1"])
        .args(PARAM_FLAGS)
        .output()
        .expect("spawn cluster");
    assert!(
        status.status.success(),
        "cluster failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let tsv = std::fs::read_to_string(&full).unwrap();
    assert!(!tsv.is_empty());
    tsv
}

/// The canonical (v < u) edge list of `g`.
fn edges_of(g: &Csr) -> Vec<(VertexId, VertexId)> {
    g.iter()
        .flat_map(|(v, ns)| {
            ns.iter()
                .filter(move |&&u| v < u)
                .map(move |&u| (v, u))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn serve_stream_crash_resume_matches_from_scratch_cluster() {
    let dir = tmpdir("lifecycle");
    let union = planted_partition(&PlantedConfig {
        group_sizes: vec![40, 30, 30, 20],
        n_noise_vertices: 30,
        p_intra: 0.8,
        max_intra_degree: 12.0,
        inter_edges_per_vertex: 0.3,
        seed: 41,
    })
    .graph;
    let all = edges_of(&union);
    let cut = all.len() * 9 / 10;
    let (base_edges, delta) = all.split_at(cut);
    let mut el: EdgeList = base_edges.iter().copied().collect();
    let base = Csr::from_edges(union.n(), &mut el);
    let base_path = dir.join("base.bin");
    let union_path = dir.join("union.bin");
    graph_io::write_file(&base_path, &base).unwrap();
    graph_io::write_file(&union_path, &union).unwrap();

    // Session 1: bootstrap, stream the first half of the delta, flush
    // (seals a generation), stream part of the rest WITHOUT flushing,
    // then crash — the unflushed tail must be lost, the sealed
    // generation must survive.
    let half = delta.len() / 2;
    let mut script = String::new();
    for (a, b) in &delta[..half] {
        script.push_str(&format!("add {a} {b}\n"));
    }
    script.push_str("flush\n");
    for (a, b) in &delta[half..] {
        script.push_str(&format!("add {a} {b}\n"));
    }
    script.push_str("crash\n");
    let (code, stdout, stderr) = serve(&dir, &["--graph", base_path.to_str().unwrap()], &script);
    assert_eq!(code, Some(137), "crash must exit 137: {stderr}");
    assert!(
        stderr.contains("bootstrapped generation 1"),
        "bootstrap banner missing: {stderr}"
    );
    assert!(
        stdout.contains("flushed gen=2"),
        "mid-stream flush must seal generation 2: {stdout}"
    );

    // Session 2: resume from the sealed generation and re-apply the
    // lost tail (the client's job — the server told it what was
    // dropped), flush, answer a query, dump the partition.
    let mut script = String::new();
    for (a, b) in &delta[half..] {
        script.push_str(&format!("add {a} {b}\n"));
    }
    script.push_str("flush\n");
    script.push_str("query 0\n");
    let dump = dir.join("served.tsv");
    script.push_str(&format!("dump {}\nquit\n", dump.display()));
    let (code, stdout, stderr) = serve(&dir, &["--resume"], &script);
    assert_eq!(code, Some(0), "resume session failed: {stderr}");
    assert!(
        stderr.contains("resumed generation 2"),
        "resume banner missing: {stderr}"
    );
    assert!(
        stdout.contains("flushed gen=3"),
        "post-resume flush must advance the generation: {stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("family ") || l == "none"),
        "query must answer from the cached partition: {stdout}"
    );

    // From-scratch run on the union graph: the streamed partition must
    // be bit-identical (same group ids, same TSV bytes; --min-size 1
    // keeps the full partition).
    let served = std::fs::read_to_string(&dump).unwrap();
    let scratch = scratch_cluster(&dir, &union_path);
    assert_eq!(
        served, scratch,
        "streamed partition must be bit-identical to the from-scratch run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The index directory's manifest lists a base run and the delta segments
/// flushed since; a flush that passes the compaction fraction seals a new
/// base. Crash after a flush that sealed a segment and after one that
/// compacted, resume each time, and the dump still equals a from-scratch
/// `cluster` of the union graph.
#[test]
fn serve_resumes_across_a_segment_and_a_compaction() {
    let dir = tmpdir("compaction");
    let union = planted_partition(&PlantedConfig {
        group_sizes: vec![40, 30, 30, 20],
        n_noise_vertices: 30,
        p_intra: 0.8,
        max_intra_degree: 12.0,
        inter_edges_per_vertex: 0.3,
        seed: 45,
    })
    .graph;
    let all = edges_of(&union);
    let cut = all.len() * 4 / 5;
    let mut el: EdgeList = all[..cut].iter().copied().collect();
    let base = Csr::from_edges(union.n(), &mut el);
    let base_path = dir.join("base.bin");
    graph_io::write_file(&base_path, &base).unwrap();
    let (code, _, stderr) = serve(&dir, &["--graph", base_path.to_str().unwrap()], "quit\n");
    assert_eq!(code, Some(0), "bootstrap session failed: {stderr}");
    let segments = || {
        let text = std::fs::read_to_string(dir.join("idx").join("index-manifest.json")).unwrap();
        let manifest = gpclust_support::json::parse(&text).unwrap();
        manifest.get("segments").unwrap().as_arr().unwrap().len()
    };
    assert_eq!(segments(), 0);

    // One session per flush of four edges, each killed right after its
    // flush sealed, until a flush compacts.
    let mut streamed = cut;
    let mut most = 0;
    for (i, batch) in all[cut..].chunks(4).enumerate() {
        let mut script = String::new();
        for (a, b) in batch {
            script.push_str(&format!("add {a} {b}\n"));
        }
        script.push_str("flush\ncrash\n");
        let (code, stdout, stderr) = serve(&dir, &["--resume"], &script);
        assert_eq!(code, Some(137), "crash must exit 137: {stderr}");
        assert!(
            stdout.contains(&format!("flushed gen={}", i + 2)),
            "{stdout}"
        );
        streamed += batch.len();
        let k = segments();
        assert!(k == most + 1 || k == 0, "{most} segments, then {k}");
        if k == 0 {
            break;
        }
        most = k;
    }
    assert!(most >= 1, "the first flush must seal a segment");
    assert_eq!(
        segments(),
        0,
        "no flush compacted in {} edges",
        all.len() - cut
    );

    let dump = dir.join("served.tsv");
    let script = format!("dump {}\nquit\n", dump.display());
    let (code, _, stderr) = serve(&dir, &["--resume"], &script);
    assert_eq!(code, Some(0), "resume session failed: {stderr}");
    let mut el: EdgeList = all[..streamed].iter().copied().collect();
    let grown = Csr::from_edges(union.n(), &mut el);
    let grown_path = dir.join("grown.bin");
    graph_io::write_file(&grown_path, &grown).unwrap();
    assert_eq!(
        std::fs::read_to_string(&dump).unwrap(),
        scratch_cluster(&dir, &grown_path)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_stale_index() {
    let dir = tmpdir("stale");
    let union = planted_partition(&PlantedConfig {
        group_sizes: vec![20, 15],
        n_noise_vertices: 10,
        p_intra: 0.85,
        max_intra_degree: 10.0,
        inter_edges_per_vertex: 0.2,
        seed: 42,
    })
    .graph;
    let path = dir.join("g.bin");
    graph_io::write_file(&path, &union).unwrap();
    let (code, _, stderr) = serve(&dir, &["--graph", path.to_str().unwrap()], "quit\n");
    assert_eq!(code, Some(0), "bootstrap session failed: {stderr}");

    // A resume under a different seed must be a typed refusal naming
    // the axis, not a silent re-bootstrap.
    let mut child = Command::new(bin())
        .arg("serve")
        .args(["--index-dir", dir.join("idx").to_str().unwrap()])
        .args(["--resume", "--seed", "11", "--c1", "40", "--c2", "20"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    // The refusal may exit before reading stdin (see `serve`).
    if let Err(e) = child.stdin.take().unwrap().write_all(b"quit\n") {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "write: {e}");
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stale resume must fail");
    assert!(
        stderr.contains("seed"),
        "refusal must name the mismatched axis: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_hostile_lines_and_keeps_serving() {
    let dir = tmpdir("hostile");
    let base = planted_partition(&PlantedConfig {
        group_sizes: vec![25, 20, 15],
        n_noise_vertices: 10,
        p_intra: 0.8,
        max_intra_degree: 10.0,
        inter_edges_per_vertex: 0.3,
        seed: 43,
    })
    .graph;
    let n = base.n() as u32;
    let base_path = dir.join("base.bin");
    graph_io::write_file(&base_path, &base).unwrap();

    // Two declared vertices, joined to the first planted group; every
    // hostile line sits between the good ones.
    let good = [(n, n + 1), (n, 0), (n, 1), (n + 1, 2), (n + 1, 3)];
    let mut script = String::new();
    let mut expected: Vec<String> = Vec::new();
    let mut line = |cmd: String, reply: &str| {
        script.push_str(&cmd);
        script.push('\n');
        expected.push(reply.to_string());
    };
    line(
        "add 5 4294967295".into(),
        "error: vertex 4294967295 out of range",
    );
    line(
        format!("add 0 {n}"),
        &format!("error: vertex {n} out of range"),
    );
    line(
        "vertices 4294967295".into(),
        "error: vertices 4294967295 would overflow u32 vertex ids",
    );
    line("vertices 2".into(), "ok");
    for (a, b) in good {
        line(format!("add {a} {b}"), "ok");
    }
    line(
        format!("add {} 4", n + 2),
        &format!("error: vertex {} out of range", n + 2),
    );
    let dump = dir.join("served.tsv");
    line("flush".into(), "");
    line(format!("dump {}", dump.display()), "ok");
    script.push_str("quit\n");

    let (code, stdout, stderr) = serve(&dir, &["--graph", base_path.to_str().unwrap()], &script);
    assert_eq!(
        code,
        Some(0),
        "hostile lines must not end the session: {stderr}"
    );
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        replies.len(),
        expected.len(),
        "one reply per line: {stdout}"
    );
    for (reply, want) in replies.iter().zip(&expected) {
        match want.as_str() {
            "" => assert!(
                reply.starts_with(&format!("flushed gen=2 n={}", n + 2)),
                "{reply}"
            ),
            want => assert_eq!(*reply, want),
        }
    }

    // The session's partition is the from-scratch one on the union of the
    // base graph and the good lines.
    let mut el: EdgeList = edges_of(&base).into_iter().chain(good).collect();
    let union = Csr::from_edges(base.n() + 2, &mut el);
    let union_path = dir.join("union.bin");
    graph_io::write_file(&union_path, &union).unwrap();
    let served = std::fs::read_to_string(&dump).unwrap();
    assert_eq!(served, scratch_cluster(&dir, &union_path));

    let _ = std::fs::remove_dir_all(&dir);
}

/// An index sealed in the format written before the pipeline-mode,
/// aggregation, components and kernel axes were removed records those
/// axes in its manifest. `serve --resume` compares only the axes this
/// build records, so it reopens the index under either kernel and serves
/// the same partition as a from-scratch `cluster`.
#[test]
fn serve_resumes_an_index_recording_removed_axes() {
    let dir = tmpdir("removed-axes");
    let g = planted_partition(&PlantedConfig {
        group_sizes: vec![25, 20, 15],
        n_noise_vertices: 10,
        p_intra: 0.8,
        max_intra_degree: 10.0,
        inter_edges_per_vertex: 0.3,
        seed: 44,
    })
    .graph;
    let path = dir.join("g.bin");
    graph_io::write_file(&path, &g).unwrap();
    let (code, _, stderr) = serve(&dir, &["--graph", path.to_str().unwrap()], "quit\n");
    assert_eq!(code, Some(0), "bootstrap session failed: {stderr}");

    // The axes object as the older format wrote it for PARAM_FLAGS under
    // `--overlap --aggregate device --components device`.
    let legacy = "\"axes\": {\"aggregation\": \"Device\",\"budget_bytes\": \"none\",\
                  \"budget_shards\": \"none\",\"c1\": \"40\",\"c2\": \"20\",\
                  \"components\": \"Device\",\"kernel\": \"SortCompact\",\
                  \"mode\": \"Overlapped\",\"n_devices\": \"1\",\"par_sort_min\": \"32768\",\
                  \"s1\": \"2\",\"s2\": \"2\",\"seed\": \"9\"}";
    let manifest = dir.join("idx").join("index-manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let start = text.find("\"axes\": {").expect("manifest records axes");
    let end = start + text[start..].find('}').unwrap() + 1;
    std::fs::write(
        &manifest,
        format!("{}{legacy}{}", &text[..start], &text[end..]),
    )
    .unwrap();

    let full = scratch_cluster(&dir, &path);

    // The legacy record names the sort kernel and the index was sealed
    // under the default fused one; the kernel is no axis, so the index
    // resumes under either.
    for kernel in ["sort", "select"] {
        let dump = dir.join(format!("served-{kernel}.tsv"));
        let script = format!("dump {}\nquit\n", dump.display());
        let (code, _, stderr) = serve(&dir, &["--resume", "--kernel", kernel], &script);
        assert_eq!(
            code,
            Some(0),
            "resume under --kernel {kernel} failed: {stderr}"
        );
        assert!(stderr.contains("resumed generation 1"), "{stderr}");
        assert_eq!(std::fs::read_to_string(&dump).unwrap(), full, "{kernel}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
