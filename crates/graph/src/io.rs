//! Adjacency-list serialization — the pipeline's disk I/O stage.
//!
//! Algorithm 2 begins with "CPU loads graph from disk I/O"; the time spent
//! here is the *Disk I/O* column of Table I. Two formats:
//!
//! * **text** — one line per vertex: `vertex: n1 n2 n3 ...` (only vertices
//!   with neighbors are written). Human-inspectable; used in examples.
//! * **binary** — little-endian framing:
//!   `[n: u64][m2: u64][offsets: (n+1) × u64][targets: m2 × u32]`. This is
//!   the fast path for the large benchmark graphs.
//!
//! Both binary readers stream in fixed-size chunks — no `m2 × 4`-byte
//! staging buffer — and [`CsrFile`] keeps only the offsets resident,
//! reading target windows on demand for the out-of-core sharded passes.

use crate::csr::Csr;
use crate::edgelist::EdgeList;
use crate::VertexId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic header for the binary format.
const MAGIC: &[u8; 8] = b"GPCLGRF1";

/// Staging-buffer size for the chunked binary reads (bytes).
const READ_CHUNK: usize = 1 << 20;

/// Write a graph as text adjacency lists.
pub fn write_text<W: Write>(writer: W, g: &Csr) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for (v, ns) in g.iter() {
        if ns.is_empty() {
            continue;
        }
        write!(w, "{v}:")?;
        for &u in ns {
            write!(w, " {u}")?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Read a text adjacency-list graph. `n` must cover all referenced vertices.
pub fn read_text<R: Read>(reader: R, n: usize) -> io::Result<Csr> {
    let r = BufReader::new(reader);
    let mut edges = EdgeList::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, rest) = line.split_once(':').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: missing ':'", lineno + 1),
            )
        })?;
        let v: VertexId = head.trim().parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad vertex id: {e}", lineno + 1),
            )
        })?;
        for tok in rest.split_whitespace() {
            let u: VertexId = tok.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad neighbor id: {e}", lineno + 1),
                )
            })?;
            edges.push(v, u);
        }
    }
    Ok(Csr::from_edges(n, &mut edges))
}

/// Write a graph in the binary format.
pub fn write_binary<W: Write>(writer: W, g: &Csr) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&(g.n() as u64).to_le_bytes())?;
    w.write_all(&(g.targets().len() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &t in g.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    w.flush()
}

/// Byte length of the binary header (magic + `n` + `m2`).
const HEADER_LEN: u64 = 24;

/// A malformed-graph error naming the byte offset the decoder gave up at
/// — `truncated` distinguishes files that simply end early
/// ([`io::ErrorKind::UnexpectedEof`]) from structural corruption
/// ([`io::ErrorKind::InvalidData`]).
fn corrupt(offset: u64, truncated: bool, detail: impl std::fmt::Display) -> io::Error {
    let kind = if truncated {
        io::ErrorKind::UnexpectedEof
    } else {
        io::ErrorKind::InvalidData
    };
    io::Error::new(
        kind,
        format!("graph file corrupt at byte {offset}: {detail}"),
    )
}

/// Parse the binary header, returning `(n, m2)`. The byte length the
/// header implies must be representable, so a count no file can hold is
/// refused before anything is sized by it.
fn read_header<R: Read>(reader: &mut R) -> io::Result<(usize, usize)> {
    let mut header = [0u8; HEADER_LEN as usize];
    reader.read_exact(&mut header).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            corrupt(0, true, "truncated header (need 24 bytes)")
        } else {
            e
        }
    })?;
    let magic = &header[..8];
    if magic != MAGIC {
        return Err(corrupt(
            0,
            false,
            format!("bad magic {magic:02x?} (expected {MAGIC:02x?})"),
        ));
    }
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let (n, m2) = (word(8), word(16));
    let end = n
        .checked_add(1)
        .and_then(|w| w.checked_mul(8))
        .and_then(|o| o.checked_add(m2.checked_mul(4)?))
        .and_then(|b| b.checked_add(HEADER_LEN))
        .filter(|&end| usize::try_from(end).is_ok());
    if end.is_none() {
        return Err(corrupt(
            8,
            false,
            format!("header claims {n} vertices and {m2} targets, more than a file can hold"),
        ));
    }
    Ok((n as usize, m2 as usize))
}

/// Byte position of `targets[0]` in a file of `n` vertices.
fn targets_start(n: usize) -> u64 {
    HEADER_LEN + 8 * (n as u64 + 1)
}

/// Read `count` little-endian `W`-byte words in [`READ_CHUNK`]-sized
/// chunks. The output grows only as chunks arrive, so a count the input
/// cannot back allocates no more than the input held. `base` is the byte
/// position of the first word, for error reporting.
fn read_words<R: Read, T, const W: usize>(
    reader: &mut R,
    count: usize,
    base: u64,
    decode: fn([u8; W]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::new();
    let mut raw = vec![0u8; READ_CHUNK.min(count.max(1) * W)];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(raw.len() / W);
        let buf = &mut raw[..take * W];
        let read_at = base + ((count - remaining) * W) as u64;
        reader.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(
                    read_at,
                    true,
                    format!(
                        "truncated: {remaining} of {count} {}-bit words missing",
                        W * 8
                    ),
                )
            } else {
                e
            }
        })?;
        out.extend(
            buf.chunks_exact(W)
                .map(|w| decode(w.try_into().expect("W-byte chunk"))),
        );
        remaining -= take;
    }
    Ok(out)
}

/// Reject a target that names no vertex of an `n`-vertex graph. `base`
/// is the byte position of `targets[0]`.
fn validate_targets(targets: &[VertexId], n: usize, base: u64) -> io::Result<()> {
    match targets.iter().position(|&t| t as usize >= n) {
        None => Ok(()),
        Some(i) => Err(corrupt(
            base + 4 * i as u64,
            false,
            format!("target {} is not a vertex (n = {n})", targets[i]),
        )),
    }
}

/// Validate a decoded offset array against the header's target count:
/// `offsets[0] == 0`, monotonically non-decreasing, ending at `m2`. Error
/// offsets point at the offending word on disk.
fn validate_offsets(offsets: &[u64], m2: usize) -> io::Result<()> {
    match offsets.first() {
        Some(0) => {}
        Some(&o) => {
            return Err(corrupt(
                HEADER_LEN,
                false,
                format!("offsets[0] is {o}, not 0"),
            ))
        }
        None => return Err(corrupt(HEADER_LEN, false, "empty offset array")),
    }
    for (i, w) in offsets.windows(2).enumerate() {
        if w[1] < w[0] {
            return Err(corrupt(
                HEADER_LEN + 8 * (i as u64 + 1),
                false,
                format!("offsets[{}] = {} < offsets[{i}] = {}", i + 1, w[1], w[0]),
            ));
        }
    }
    let last = *offsets.last().unwrap();
    if last != m2 as u64 {
        return Err(corrupt(
            HEADER_LEN + 8 * (offsets.len() as u64 - 1),
            false,
            format!("offsets end at {last} but the header claims {m2} targets"),
        ));
    }
    Ok(())
}

/// Read a graph in the binary format. Streams in bounded chunks — the
/// staging buffer never exceeds `READ_CHUNK` bytes regardless of the
/// graph size (the decoded CSR itself is of course fully materialized;
/// use [`CsrFile`] to avoid that too). Truncated or structurally
/// malformed input yields a typed [`io::Error`] naming the byte offset,
/// never a panic.
pub fn read_binary<R: Read>(mut reader: R) -> io::Result<Csr> {
    let (n, m2) = read_header(&mut reader)?;
    let offsets = read_words(&mut reader, n + 1, HEADER_LEN, u64::from_le_bytes)?;
    validate_offsets(&offsets, m2)?;
    let targets = read_words(&mut reader, m2, targets_start(n), u32::from_le_bytes)?;
    validate_targets(&targets, n, targets_start(n))?;
    Ok(Csr::from_raw(offsets, targets))
}

/// An opened binary graph whose **targets stay on disk**: only the
/// `(n+1) × 8`-byte offset array is resident, and the out-of-core sharded
/// passes read each shard's target window on demand with
/// [`CsrFile::read_targets`]. This is tentpole piece (3): the input graph
/// itself never needs to be fully resident.
#[derive(Debug)]
pub struct CsrFile {
    file: std::fs::File,
    offsets: Vec<u64>,
    /// Byte position of `targets[0]` within the file.
    targets_start: u64,
}

impl CsrFile {
    /// Open `path` and read the header + offsets (targets stay on disk).
    /// The file size is checked against the arrays the header promises
    /// before the offsets are read, and the offsets are validated up front
    /// (monotone, ending at the header's target count), so a truncated or
    /// bit-damaged file is refused here — with the byte offset — rather
    /// than surfacing mid-pass as a short window read.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<CsrFile> {
        let mut file = std::fs::File::open(path)?;
        let (n, m2) = read_header(&mut file)?;
        let targets_start = targets_start(n);
        let need = targets_start + 4 * m2 as u64;
        let actual = file.metadata()?.len();
        if actual < need {
            return Err(corrupt(
                actual,
                true,
                format!("file is {actual} bytes but the target array ends at {need}"),
            ));
        }
        let offsets = read_words(&mut file, n + 1, HEADER_LEN, u64::from_le_bytes)?;
        validate_offsets(&offsets, m2)?;
        Ok(CsrFile {
            file,
            offsets,
            targets_start,
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The resident `n + 1` offset array.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Total target entries on disk (2·|E|).
    pub fn n_targets(&self) -> u64 {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Read the target window `[lo, hi)` (global element positions). A
    /// window outside the target array, or a target that names no vertex,
    /// is a typed [`io::Error`], not a panic.
    pub fn read_targets(&self, lo: u64, hi: u64) -> io::Result<Vec<VertexId>> {
        if lo > hi || hi > self.n_targets() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "target window [{lo}, {hi}) out of bounds (file holds {} targets)",
                    self.n_targets()
                ),
            ));
        }
        let base = self.targets_start + lo * 4;
        let mut f = &self.file;
        f.seek(SeekFrom::Start(base))?;
        let targets = read_words(&mut f, (hi - lo) as usize, base, u32::from_le_bytes)?;
        validate_targets(&targets, self.n(), base)?;
        Ok(targets)
    }

    /// Materialize the whole graph (the unbounded-budget fallback).
    pub fn read_all(&self) -> io::Result<Csr> {
        let targets = self.read_targets(0, self.n_targets())?;
        Ok(Csr::from_raw(self.offsets.clone(), targets))
    }
}

/// Stream a text adjacency-list file into a CSR with two line-buffered
/// passes — degree counting, then direct placement — so no intermediate
/// edge list is ever materialized (the historical [`read_text`] path holds
/// an 8-byte packed entry per edge *and* sorts it). Semantics match
/// [`read_text`] exactly: undirected, self-loops dropped, duplicate edges
/// deduplicated, and parse errors report the offending line.
pub fn read_text_file<P: AsRef<Path>>(path: P, n: usize) -> io::Result<Csr> {
    // Pass 1: count both endpoints of every listed edge.
    let mut degree = vec![0u64; n];
    for_each_text_edge(&path, n, |v, u| {
        degree[v as usize] += 1;
        degree[u as usize] += 1;
    })?;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for d in &degree {
        acc += d;
        offsets.push(acc);
    }
    // Pass 2: place each edge at both endpoints' cursors.
    let mut cursor: Vec<u64> = offsets[..n].to_vec();
    let mut targets = vec![0 as VertexId; acc as usize];
    for_each_text_edge(&path, n, |v, u| {
        targets[cursor[v as usize] as usize] = u;
        cursor[v as usize] += 1;
        targets[cursor[u as usize] as usize] = v;
        cursor[u as usize] += 1;
    })?;
    // Sort + dedup each list in place, compacting the offsets.
    let mut write = 0u64;
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0);
    for v in 0..n {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        let mut list = targets[lo..hi].to_vec();
        list.sort_unstable();
        list.dedup();
        let w = write as usize;
        targets[w..w + list.len()].copy_from_slice(&list);
        write += list.len() as u64;
        new_offsets.push(write);
    }
    targets.truncate(write as usize);
    Ok(Csr::from_raw(new_offsets, targets))
}

/// Drive `emit(v, u)` over every undirected edge of a text adjacency-list
/// file, line-buffered, with the same tolerances and line-numbered errors
/// as [`read_text`]. Self-loops are skipped; each listed `v: u` pair is
/// emitted once (callers handle symmetrization).
fn for_each_text_edge<P: AsRef<Path>>(
    path: P,
    n: usize,
    mut emit: impl FnMut(VertexId, VertexId),
) -> io::Result<()> {
    let r = BufReader::new(std::fs::File::open(&path)?);
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, rest) = line.split_once(':').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: missing ':'", lineno + 1),
            )
        })?;
        let v: VertexId = head.trim().parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad vertex id: {e}", lineno + 1),
            )
        })?;
        if v as usize >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: vertex id {v} out of range (n = {n})", lineno + 1),
            ));
        }
        for tok in rest.split_whitespace() {
            let u: VertexId = tok.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad neighbor id: {e}", lineno + 1),
                )
            })?;
            if u as usize >= n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "line {}: neighbor id {u} out of range (n = {n})",
                        lineno + 1
                    ),
                ));
            }
            if u != v {
                emit(v, u);
            }
        }
    }
    Ok(())
}

/// Write a graph to `path`, choosing format by extension (`.txt` → text,
/// anything else → binary).
pub fn write_file<P: AsRef<Path>>(path: P, g: &Csr) -> io::Result<()> {
    let f = std::fs::File::create(&path)?;
    if path.as_ref().extension().is_some_and(|e| e == "txt") {
        write_text(f, g)
    } else {
        write_binary(f, g)
    }
}

/// Read a binary graph from `path`.
pub fn read_file<P: AsRef<Path>>(path: P) -> io::Result<Csr> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut el: EdgeList = [(0, 1), (1, 2), (0, 2), (2, 3)].into_iter().collect();
        Csr::from_edges(5, &mut el)
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &g).unwrap();
        let g2 = read_text(&buf[..], g.n()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    /// Every way a binary graph file can be malformed maps to a typed
    /// error naming the byte offset — never a panic, never a silently
    /// short graph.
    #[test]
    fn binary_malformations_yield_typed_errors_with_byte_offsets() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();

        // Truncated header: file ends inside the 24-byte preamble.
        let err = read_binary(&buf[..10]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(err.to_string().contains("at byte 0"), "{err}");
        assert!(err.to_string().contains("truncated header"), "{err}");

        // Truncated offsets: file ends inside the offset array.
        let err = read_binary(&buf[..HEADER_LEN as usize + 12]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(err.to_string().contains("at byte 24"), "{err}");
        assert!(err.to_string().contains("64-bit words missing"), "{err}");

        // Truncated targets: file ends inside the target array.
        let err = read_binary(&buf[..buf.len() - 2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(err.to_string().contains("32-bit words missing"), "{err}");

        // Non-monotone offsets: decreasing entry named by index + offset.
        let mut bad = buf.clone();
        let at = HEADER_LEN as usize + 8; // offsets[1]
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary(&bad[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("offsets[2]"), "{err}");

        // Size mismatch: header's target count disagrees with the
        // offsets' end.
        let mut bad = buf.clone();
        bad[16..24].copy_from_slice(&999u64.to_le_bytes());
        let err = read_binary(&bad[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("999 targets"), "{err}");

        // Counts no file can hold: refused before anything is sized by
        // them, and a huge count on a short file ends at its last byte.
        let mut bad = buf[..HEADER_LEN as usize].to_vec();
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary(&bad[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("more than a file can hold"),
            "{err}"
        );
        bad[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        bad[16..24].copy_from_slice(&0u64.to_le_bytes());
        let err = read_binary(&bad[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");

        // A target naming no vertex, at its byte offset.
        let mut bad = buf.clone();
        let at = bad.len() - 4; // the last target
        bad[at..].copy_from_slice(&4_000_000_000u32.to_le_bytes());
        let err = read_binary(&bad[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&format!("at byte {at}")), "{err}");
        assert!(err.to_string().contains("not a vertex"), "{err}");
    }

    /// [`CsrFile::open`] runs the same validations up front, plus the
    /// file-size check no streaming reader gets for free, and an
    /// out-of-bounds window is an error rather than a panic.
    #[test]
    fn csr_file_refuses_malformed_files_up_front() {
        let dir = std::env::temp_dir().join("gpclust_graph_io_malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = sample();
        write_file(&path, &g).unwrap();
        let mut buf = std::fs::read(&path).unwrap();

        // Pristine file: opens, but a window past the end is refused.
        let f = CsrFile::open(&path).unwrap();
        let m = f.n_targets();
        let err = f.read_targets(0, m + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("out of bounds"), "{err}");
        let err = f.read_targets(2, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        drop(f);

        // A target naming no vertex: refused by the window that reads it.
        let mut bad = buf.clone();
        let at = bad.len() - 4;
        bad[at..].copy_from_slice(&4_000_000_000u32.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let f = CsrFile::open(&path).unwrap();
        assert!(f.read_targets(0, m - 1).is_ok());
        let err = f.read_targets(0, m).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&format!("at byte {at}")), "{err}");
        drop(f);

        // Truncated target array: refused at open with the byte count.
        std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        let err = CsrFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(err.to_string().contains("target array ends at"), "{err}");

        // Non-monotone offsets: refused at open.
        let at = HEADER_LEN as usize + 8;
        buf[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &buf).unwrap();
        let err = CsrFile::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let text = b"# comment\n\n0: 1 2\n1: 0\n2: 0\n";
        let g = read_text(&text[..], 3).unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text(&b"nonsense\n"[..], 3).is_err());
        assert!(read_text(&b"0: x\n"[..], 3).is_err());
    }

    #[test]
    fn file_roundtrip_binary() {
        let dir = std::env::temp_dir().join("gpclust_graph_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        let g = sample();
        write_file(&path, &g).unwrap();
        let g2 = read_file(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let mut el = EdgeList::new();
        let g = Csr::from_edges(0, &mut el);
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }

    /// A graph big enough that the chunked readers refill several times.
    fn big_sample(n: usize) -> Csr {
        let mut el = EdgeList::new();
        for v in 0..n as VertexId {
            el.push(v, (v + 1) % n as VertexId);
            el.push(v, (v * 7 + 3) % n as VertexId);
        }
        Csr::from_edges(n, &mut el)
    }

    #[test]
    fn chunked_binary_read_crosses_chunk_boundaries() {
        // READ_CHUNK is 1 MiB; ~300K offsets (2.4 MB) force refills.
        let g = big_sample(300_000);
        let mut buf = Vec::new();
        write_binary(&mut buf, &g).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
    }

    #[test]
    fn csr_file_windows_match_the_resident_graph() {
        let g = sample();
        let dir = std::env::temp_dir().join("gpclust_graph_io_csrfile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
        write_file(&path, &g).unwrap();
        let f = CsrFile::open(&path).unwrap();
        assert_eq!(f.n(), g.n());
        assert_eq!(f.offsets(), g.offsets());
        assert_eq!(f.n_targets() as usize, g.targets().len());
        assert_eq!(f.read_all().unwrap(), g);
        // Every window, including empty and full ones.
        let m = g.targets().len() as u64;
        for lo in 0..=m {
            for hi in lo..=m {
                assert_eq!(
                    f.read_targets(lo, hi).unwrap(),
                    &g.targets()[lo as usize..hi as usize],
                    "window [{lo}, {hi})"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_text_loader_matches_read_text() {
        let g = big_sample(500);
        let dir = std::env::temp_dir().join("gpclust_graph_io_text");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        {
            let f = std::fs::File::create(&path).unwrap();
            write_text(f, &g).unwrap();
        }
        let streamed = read_text_file(&path, g.n()).unwrap();
        assert_eq!(streamed, g);

        // One-directional listings still symmetrize, and duplicates dedup,
        // exactly as the EdgeList-based reader does.
        std::fs::write(&path, "0: 1 1 2\n2: 0\n").unwrap();
        let streamed = read_text_file(&path, 4).unwrap();
        let oracle = read_text(&b"0: 1 1 2\n2: 0\n"[..], 4).unwrap();
        assert_eq!(streamed, oracle);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_text_loader_reports_the_offending_line() {
        let dir = std::env::temp_dir().join("gpclust_graph_io_badtext");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.txt");
        std::fs::write(&path, "0: 1\n1: zap\n").unwrap();
        let err = read_text_file(&path, 3).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::write(&path, "0: 9\n").unwrap();
        let err = read_text_file(&path, 3).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
