//! Spill-to-disk sorted runs and the one k-way record merge — the
//! out-of-core half of the aggregation layer.
//!
//! Host aggregation reduces each batch (or shard) of pass records to a
//! [`SortedRun`] — packed `(key << 64 | node << 32 | local-index)` u128s
//! plus `s` element ids per record. Every merge of such runs is one
//! streaming heap pass, `merge_runs`: Pass I's runs into the shingle
//! graph ([`merge_external_runs`]), and the shingle index's update and
//! inversion. The merge only ever looks at each run's *frontier* record,
//! so a run does not need to be resident: this module writes finished
//! runs to framed temp files ([`SpilledRun`]), and an [`ExternalRun`]
//! input is either resident or spilled.
//!
//! ## On-disk format (v2, framed + checksummed)
//!
//! A run file opens with a 24-byte header — magic `GPCLRUN2`, the record
//! count (u64), the shingle size `s` (u32), and a CRC-32 of those twenty
//! bytes — followed by one *frame* per replay chunk: `[n: u32][len: u32]
//! [crc: u32]` then `len = n × (16 + 4s)` payload bytes holding `n`
//! interleaved little-endian records (16 bytes of packed key/node/local-
//! index, then `s × 4` bytes of element ids), in ascending packed order.
//! Frames are exactly the replay granularity, so every refill verifies
//! its own length framing and checksum before a single record is
//! surfaced: a truncated or bit-flipped spill file is *detected* — a
//! typed [`io::ErrorKind::InvalidData`] error naming the byte offset —
//! never silently merged. The whole-payload CRC ([`SpilledRun::crc`])
//! additionally names the run in checkpoint and index manifests.
//!
//! ## One checksum pass per frame
//!
//! The CRC touches each payload byte once per write and once per read.
//! A writer checksums each frame once and folds that CRC into the run
//! CRC with `checkpoint::crc32_combine`, so the run CRC is the
//! CRC of the concatenated payloads without a second pass over them. A
//! reader ([`SpilledRun::reopen`], `SpilledRun::load`, a replay)
//! verifies each frame into one reused buffer and combines the run CRC
//! the same way; `SpilledRun::load` decodes the records in that same
//! pass.
//!
//! ## Lifetime
//!
//! Scratch runs live in a per-process directory ([`spill_dir`]) and are
//! removed when the [`SpilledRun`] drops — on success *and* on error
//! paths, including half-written files abandoned by a failed write.
//! Checkpointed runs ([`SpilledRun::write_at`] / [`SpilledRun::reopen`])
//! opt out of drop-removal: they are sealed (synced) into a checkpoint
//! directory and owned by the manifest journal, which sweeps them when
//! the run finalizes.
//!
//! ## Bit-identity
//!
//! `merge_runs` pops records in ascending `(key, node)` order with ties
//! broken by run index — the order of the host oracle's global sort —
//! whatever mix of resident and spilled runs it reads, and hands them to
//! one of two sinks: the inverter every aggregation path builds its graph
//! through, or the canonical run builder. Where the records sleep between
//! production and merge changes nothing about the sequence, so the
//! out-of-core path is bit-identical to the resident one
//! (`tests/oocore_properties.rs` pins it).

use crate::aggregate::{SortedRun, StreamInverter};
use crate::checkpoint::{crc32, crc32_combine};
use gpclust_graph::VertexId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Records per replay chunk — and per on-disk frame: bounds the merge
/// frontier at `runs × CHUNK × (16 + 4s)` bytes (≈ 384 KiB per run at
/// `s = 2`) and scopes each checksum to one refill's worth of data.
const REPLAY_CHUNK: usize = 1 << 14;

const MAGIC: &[u8; 8] = b"GPCLRUN2";
const HEADER_LEN: usize = 24;
const FRAME_HEADER: usize = 12;

/// Monotone counter making spill file names unique within the process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The per-process scratch directory temp spills live in. Keeping them
/// under one pid-stamped directory (rather than loose in the system temp
/// dir) lets tests assert the RAII cleanup story: after a run completes,
/// this directory is empty.
pub fn spill_dir() -> PathBuf {
    std::env::temp_dir().join(format!("gpclust-spill-{}", std::process::id()))
}

/// Wall-clock seconds and byte volume of spill traffic, folded into
/// [`crate::timing::StageTimes`] by the out-of-core drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpillStats {
    /// Bytes written to (and later read back from) spill files.
    pub bytes: u64,
    /// Wall seconds spent writing spill files.
    pub write_seconds: f64,
    /// Wall seconds spent reading them back during the merge.
    pub read_seconds: f64,
}

impl SpillStats {
    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &SpillStats) {
        self.bytes += other.bytes;
        self.write_seconds += other.write_seconds;
        self.read_seconds += other.read_seconds;
    }
}

/// Removes a half-written file if the write that created it fails —
/// the error-path half of the spill cleanup guarantee.
struct PathGuard {
    path: PathBuf,
    armed: bool,
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn header_bytes(records: u64, s: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..16].copy_from_slice(&records.to_le_bytes());
    h[16..20].copy_from_slice(&s.to_le_bytes());
    let crc = crc32(&h[..20]);
    h[20..24].copy_from_slice(&crc.to_le_bytes());
    h
}

fn corrupt(path: &Path, offset: u64, detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "spilled run {} corrupt at byte {offset}: {detail}",
            path.display()
        ),
    )
}

/// A [`SortedRun`] spilled to a framed, checksummed file, replayable as a
/// sequential record stream. Scratch spills delete their file on drop;
/// checkpointed spills (`keep = true`) leave it for the manifest to own.
#[derive(Debug)]
pub struct SpilledRun {
    path: PathBuf,
    records: usize,
    s: usize,
    crc: u32,
    disk_bytes: u64,
    keep: bool,
}

impl SpilledRun {
    /// Write `run` (shingle size `s`) to a fresh scratch file under
    /// [`spill_dir`] in bounded chunks, tallying the traffic into
    /// `stats`. The file is removed when the returned run drops.
    pub fn write(s: usize, run: &SortedRun, stats: &mut SpillStats) -> io::Result<SpilledRun> {
        let dir = spill_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.run", SPILL_SEQ.fetch_add(1, Ordering::Relaxed)));
        SpilledRun::write_impl(path, s, run, stats, false, false)
    }

    /// Seal `run` into `path` for a checkpoint: the file is synced to
    /// disk before returning (the manifest's commit contract) and is
    /// *not* removed on drop — the checkpoint journal owns it.
    pub fn write_at(
        path: PathBuf,
        s: usize,
        run: &SortedRun,
        stats: &mut SpillStats,
        durable: bool,
    ) -> io::Result<SpilledRun> {
        SpilledRun::write_impl(path, s, run, stats, durable, true)
    }

    fn write_impl(
        path: PathBuf,
        s: usize,
        run: &SortedRun,
        stats: &mut SpillStats,
        durable: bool,
        keep: bool,
    ) -> io::Result<SpilledRun> {
        assert_eq!(run.elements.len(), run.len() * s, "run/elements mismatch");
        let t0 = Instant::now();
        let mut guard = PathGuard {
            path: path.clone(),
            armed: true,
        };
        // Nothing is retained per record: the writer's resident footprint
        // is one frame, assembled with its header in front and handed to
        // the file in one write.
        let mut file = File::create(&path)?;
        file.write_all(&header_bytes(run.len() as u64, s as u32))?;
        let stride = 16 + 4 * s;
        let mut run_crc = 0; // CRC-32 of the empty payload
        let mut disk_bytes = HEADER_LEN as u64;
        let mut frame_buf =
            Vec::with_capacity(FRAME_HEADER + stride * REPLAY_CHUNK.min(run.len().max(1)));
        for frame in run.packed.chunks(REPLAY_CHUNK) {
            frame_buf.clear();
            frame_buf.resize(FRAME_HEADER, 0);
            for &p in frame {
                frame_buf.extend_from_slice(&p.to_le_bytes());
                let rep = (p & 0xFFFF_FFFF) as usize;
                for &e in &run.elements[rep * s..(rep + 1) * s] {
                    frame_buf.extend_from_slice(&e.to_le_bytes());
                }
            }
            let payload = &frame_buf[FRAME_HEADER..];
            let (len, crc) = (payload.len(), crc32(payload));
            run_crc = crc32_combine(run_crc, crc, len as u64);
            frame_buf[..4].copy_from_slice(&(frame.len() as u32).to_le_bytes());
            frame_buf[4..8].copy_from_slice(&(len as u32).to_le_bytes());
            frame_buf[8..12].copy_from_slice(&crc.to_le_bytes());
            file.write_all(&frame_buf)?;
            disk_bytes += frame_buf.len() as u64;
        }
        if durable {
            file.sync_all()?;
        }
        guard.armed = false;
        stats.bytes += disk_bytes;
        stats.write_seconds += t0.elapsed().as_secs_f64();
        Ok(SpilledRun {
            path,
            records: run.len(),
            s,
            crc: run_crc,
            disk_bytes,
            keep,
        })
    }

    /// Reopen a sealed run from a checkpoint directory, re-verifying the
    /// header, every frame's length framing and checksum, and the exact
    /// end-of-file — the resume-time proof that the survivor is intact.
    /// The reopened run is checkpoint-owned (`keep = true`).
    pub fn reopen(path: PathBuf) -> io::Result<SpilledRun> {
        SpilledRun::scan(FrameReader::open(path)?, |_| {})
    }

    /// [`SpilledRun::reopen`] that also decodes the records as it verifies
    /// them, in one read of the file: the sealed run plus its records as
    /// a resident [`SortedRun`] whose local indices are record positions.
    pub(crate) fn load(path: PathBuf) -> io::Result<(SpilledRun, SortedRun)> {
        let frames = FrameReader::open(path)?;
        // The header's record count sizes the buffers only as far as the
        // file's length can back it.
        let stride = 16 + 4 * frames.s as u64;
        let fits = frames.reader.metadata()?.len() / stride;
        let cap = frames.remaining.min(fits as usize);
        let mut run = SortedRun {
            packed: Vec::with_capacity(cap),
            elements: Vec::with_capacity(cap * frames.s),
        };
        let sealed = SpilledRun::scan(frames, |frame| {
            frame.decode(&mut run.packed, &mut run.elements);
        })?;
        for (i, p) in run.packed.iter_mut().enumerate() {
            *p = ((*p >> 32) << 32) | i as u128;
        }
        Ok((sealed, run))
    }

    /// Verify every remaining frame in order, handing each to `visit` once
    /// its checksum holds, then check the end-of-file. The run CRC is
    /// combined from the frame CRCs, not recomputed.
    fn scan(mut frames: FrameReader, mut visit: impl FnMut(&Frame)) -> io::Result<SpilledRun> {
        let (records, s) = (frames.remaining, frames.s);
        let mut run_crc = 0;
        while let Some(frame) = frames.next()? {
            run_crc = crc32_combine(run_crc, frame.crc, frame.payload.len() as u64);
            visit(&frame);
        }
        let disk_bytes = frames.finish()?;
        Ok(SpilledRun {
            path: frames.path,
            records,
            s,
            crc: run_crc,
            disk_bytes,
            keep: true,
        })
    }

    /// Number of records in the spilled run.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True if the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Shingle size the records carry.
    pub fn s(&self) -> usize {
        self.s
    }

    /// CRC-32 over the run's payload bytes (frame payloads concatenated).
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// On-disk size in bytes, framing included.
    pub fn bytes(&self) -> u64 {
        self.disk_bytes
    }

    /// The file the run lives in.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Open a sequential replay over the run's records.
    pub fn replay(&self) -> io::Result<RunReplay> {
        let frames = FrameReader::open(self.path.clone())?;
        if frames.remaining != self.records || frames.s != self.s {
            return Err(corrupt(
                &self.path,
                8,
                "header disagrees with the sealed run",
            ));
        }
        let chunk = REPLAY_CHUNK.min(self.records);
        Ok(RunReplay {
            frames,
            packed: Vec::with_capacity(chunk),
            elements: Vec::with_capacity(chunk * self.s),
            pos: 0,
        })
    }
}

impl Drop for SpilledRun {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// One verified frame: its checksum and payload.
struct Frame<'a> {
    crc: u32,
    stride: usize,
    payload: &'a [u8],
}

impl Frame<'_> {
    /// Append the frame's records to `packed` and their element ids to
    /// `elements`.
    fn decode(&self, packed: &mut Vec<u128>, elements: &mut Vec<u32>) {
        for rec in self.payload.chunks_exact(self.stride) {
            packed.push(u128::from_le_bytes(rec[..16].try_into().unwrap()));
            elements.extend(
                rec[16..]
                    .chunks_exact(4)
                    .map(|e| u32::from_le_bytes(e.try_into().unwrap())),
            );
        }
    }
}

/// A run file read front to back one frame at a time into one reused
/// buffer, straight from the file (a frame is one read, so a second
/// buffer would only add a copy); no payload byte is surfaced before its
/// frame's length framing and CRC are checked.
#[derive(Debug)]
struct FrameReader {
    reader: File,
    path: PathBuf,
    s: usize,
    /// Records the header promises that no frame has delivered yet.
    remaining: usize,
    offset: u64,
    buf: Vec<u8>,
}

impl FrameReader {
    /// Open `path` and verify its header.
    fn open(path: PathBuf) -> io::Result<FrameReader> {
        let mut reader = File::open(&path)?;
        let mut header = [0u8; HEADER_LEN];
        reader
            .read_exact(&mut header)
            .map_err(|_| corrupt(&path, 0, "truncated header"))?;
        if &header[..8] != MAGIC {
            return Err(corrupt(&path, 0, "bad magic"));
        }
        if crc32(&header[..20]) != u32::from_le_bytes(header[20..24].try_into().unwrap()) {
            return Err(corrupt(&path, 20, "header CRC mismatch"));
        }
        Ok(FrameReader {
            reader,
            path,
            remaining: u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize,
            s: u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize,
            offset: HEADER_LEN as u64,
            buf: Vec::new(),
        })
    }

    /// The next verified frame, or `None` once the header's record count
    /// is delivered.
    fn next(&mut self) -> io::Result<Option<Frame<'_>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut fh = [0u8; FRAME_HEADER];
        self.reader
            .read_exact(&mut fh)
            .map_err(|_| corrupt(&self.path, self.offset, "truncated frame header"))?;
        let n = u32::from_le_bytes(fh[..4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(fh[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(fh[8..12].try_into().unwrap());
        let stride = 16 + 4 * self.s;
        if n == 0 || n > REPLAY_CHUNK || n > self.remaining || len != n * stride {
            return Err(corrupt(&self.path, self.offset, "bad frame framing"));
        }
        let at = self.offset + FRAME_HEADER as u64;
        self.buf.resize(len, 0);
        self.reader
            .read_exact(&mut self.buf)
            .map_err(|_| corrupt(&self.path, at, "truncated frame"))?;
        if crc32(&self.buf) != crc {
            return Err(corrupt(&self.path, at, "frame CRC mismatch"));
        }
        self.remaining -= n;
        self.offset = at + len as u64;
        Ok(Some(Frame {
            crc,
            stride,
            payload: &self.buf,
        }))
    }

    /// Check that nothing follows the last frame and return the file's
    /// length.
    fn finish(&mut self) -> io::Result<u64> {
        if self.reader.read(&mut [0u8; 1])? != 0 {
            return Err(corrupt(
                &self.path,
                self.offset,
                "trailing bytes after last frame",
            ));
        }
        Ok(self.offset)
    }
}

/// A bounded-memory cursor over a [`SpilledRun`]'s records, refilled one
/// verified frame (`REPLAY_CHUNK` records) at a time.
#[derive(Debug)]
pub struct RunReplay {
    frames: FrameReader,
    packed: Vec<u128>,
    elements: Vec<u32>,
    pos: usize,
}

impl RunReplay {
    /// The current frontier record, refilling the chunk buffer if it is
    /// exhausted. `None` once the run is drained.
    pub fn peek(&mut self) -> io::Result<Option<u128>> {
        if self.pos == self.packed.len() {
            self.refill()?;
        }
        Ok(self.packed.get(self.pos).copied())
    }

    /// The current frontier record's element ids (valid after a
    /// successful [`RunReplay::peek`]).
    pub fn elements(&self) -> &[u32] {
        let s = self.frames.s;
        &self.elements[self.pos * s..(self.pos + 1) * s]
    }

    /// Advance past the current frontier record.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    fn refill(&mut self) -> io::Result<()> {
        self.packed.clear();
        self.elements.clear();
        self.pos = 0;
        if let Some(frame) = self.frames.next()? {
            frame.decode(&mut self.packed, &mut self.elements);
        }
        Ok(())
    }
}

/// One run of the record merge: resident or spilled.
#[derive(Debug)]
pub enum ExternalRun {
    /// A run kept in memory: a resident Pass I's runs, a delta pass's,
    /// the shingle index's own.
    Mem(SortedRun),
    /// A run spilled to disk: every run of a spilled Pass I, its shards'
    /// finalized fragments included.
    Disk(SpilledRun),
}

impl ExternalRun {
    /// Number of records in the run.
    pub fn len(&self) -> usize {
        match self {
            ExternalRun::Mem(r) => r.len(),
            ExternalRun::Disk(r) => r.len(),
        }
    }

    /// True if the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where the record merge sends its records, in merge order.
pub(crate) trait RecordSink {
    /// An empty sink for up to `records` records of `s` element ids.
    fn sized(s: usize, records: usize) -> Self;
    /// Take the next record: its `(key << 32 | node)` and element ids.
    fn record(&mut self, key_node: u128, elements: &[u32]);
}

/// The graph sink: records group into the bipartite shingle graph.
impl RecordSink for StreamInverter {
    fn sized(s: usize, records: usize) -> Self {
        StreamInverter::new(s, records)
    }

    #[inline(always)]
    fn record(&mut self, key_node: u128, elements: &[u32]) {
        self.push(key_node << 32, |out| out.extend_from_slice(elements));
    }
}

/// The canonical run builder: a record's local index is its position,
/// and its element ids are stored in that same order.
impl RecordSink for SortedRun {
    fn sized(s: usize, records: usize) -> Self {
        assert!(records < (1 << 32), "too many shingle records");
        SortedRun {
            packed: Vec::with_capacity(records),
            elements: Vec::with_capacity(records * s),
        }
    }

    #[inline]
    fn record(&mut self, key_node: u128, elements: &[u32]) {
        self.packed
            .push((key_node << 32) | self.packed.len() as u128);
        self.elements.extend_from_slice(elements);
    }
}

/// Vertex ids below a bound as a bitmap with one bit per id up to the
/// largest, so it takes them in any order and with duplicates.
pub(crate) struct NodeSet(Vec<u64>);

impl NodeSet {
    /// The ids in `ids` below `bound`; the rest are left out before the
    /// bitmap is sized, so it never outgrows the bound.
    fn of(ids: &[VertexId], bound: u64) -> NodeSet {
        let kept = || ids.iter().filter(|&&v| (v as u64) < bound);
        let words = kept().max().map_or(0, |&v| v as usize / 64 + 1);
        let mut bits = vec![0u64; words];
        for &v in kept() {
            bits[v as usize / 64] |= 1 << (v % 64);
        }
        NodeSet(bits)
    }

    /// The bitmap of the ids of `retract` within the first of `runs`'
    /// node range, or `None` when none is. Only the first
    /// input's records are retracted, so an id past its node range needs
    /// no bit: a resident first input bounds the bitmap by its largest
    /// node id; a spilled one cannot be scanned ahead of the merge.
    pub(crate) fn retraction(runs: &[Cursor<'_>], retract: &[VertexId]) -> Option<NodeSet> {
        if retract.is_empty() {
            return None;
        }
        let bound = match runs.first() {
            Some(Cursor::Mem { run, .. }) => run
                .packed
                .iter()
                .map(|&p| (p >> 32) as u32 as u64 + 1)
                .max()
                .unwrap_or(0),
            Some(Cursor::Disk(_)) => u64::MAX,
            None => 0,
        };
        Some(NodeSet::of(retract, bound)).filter(|set| !set.0.is_empty())
    }

    /// Ids the bitmap has room for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        64 * self.0.len()
    }

    #[inline]
    fn contains(&self, v: VertexId) -> bool {
        self.0
            .get(v as usize / 64)
            .is_some_and(|w| (w >> (v % 64)) & 1 != 0)
    }
}

/// One input of the record merge, read front to back.
pub(crate) enum Cursor<'a> {
    /// A resident run.
    Mem { run: &'a SortedRun, pos: usize },
    /// A spilled run, one verified frame resident at a time.
    Disk(RunReplay),
}

impl<'a> Cursor<'a> {
    pub(crate) fn mem(run: &'a SortedRun) -> Cursor<'a> {
        debug_assert!(run.packed.windows(2).all(|w| w[0] <= w[1]), "unsorted run");
        Cursor::Mem { run, pos: 0 }
    }

    pub(crate) fn of(run: &'a ExternalRun) -> io::Result<Cursor<'a>> {
        Ok(match run {
            ExternalRun::Mem(run) => Cursor::mem(run),
            ExternalRun::Disk(spilled) => Cursor::Disk(spilled.replay()?),
        })
    }

    /// Records not yet read.
    fn len(&self) -> usize {
        match self {
            Cursor::Mem { run, pos } => run.len() - pos,
            Cursor::Disk(r) => r.frames.remaining + r.packed.len() - r.pos,
        }
    }

    /// The resident records (the whole run, or the current frame, read
    /// in once the last one is drained), their element ids by local
    /// index, and the read position, which equals the record count once
    /// the run is drained.
    fn chunk(&mut self) -> io::Result<(&[u128], &[u32], &mut usize)> {
        match self {
            Cursor::Mem { run, pos } => Ok((&run.packed, &run.elements, pos)),
            Cursor::Disk(r) => {
                if r.pos == r.packed.len() {
                    r.refill()?;
                    // A frame stores element ids in record order.
                    for (i, p) in r.packed.iter_mut().enumerate() {
                        *p = ((*p >> 32) << 32) | i as u128;
                    }
                }
                Ok((&r.packed, &r.elements, &mut r.pos))
            }
        }
    }
}

/// The one k-way record merge behind every run merge: Pass I's runs into
/// the shingle graph, the shingle index's update, its inversion.
///
/// Records pop in ascending `(key, node)` order, ties broken by input
/// order. Runs arrive in batch order and their local indices in
/// emission order, so this is record for record the sequence the host
/// oracle's global `(key << 64 | node << 32 | record-index)` sort
/// produces, whatever the split and wherever each run resides. Records
/// of a vertex in `retract` (any order, duplicates allowed) are dropped
/// from the first input only: the later inputs hold those vertices'
/// fresh records.
///
/// The minimum run is drained in a tight loop while its next record
/// stays below every other run's frontier (the heap's top), so a long
/// stretch of one run pays no heap traffic and a switch costs one sift.
/// Host memory holds one frame per spilled run plus the sink. The wall
/// time counts as spill reading only when a run is on disk.
pub(crate) fn merge_runs<S: RecordSink>(
    s: usize,
    mut runs: Vec<Cursor<'_>>,
    retract: &[VertexId],
    stats: &mut SpillStats,
) -> io::Result<S> {
    let t0 = Instant::now();
    let mut sink = S::sized(s, runs.iter().map(Cursor::len).sum());
    let retract = NodeSet::retraction(&runs, retract);
    // A lone resident run streams straight through: measured, the
    // general loop reads it a fifth slower.
    if let ([Cursor::Mem { run, .. }], None) = (runs.as_slice(), &retract) {
        drain(
            s,
            &run.packed,
            &run.elements,
            u128::MAX,
            |_| true,
            &mut sink,
        );
        return Ok(sink);
    }
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (ri, run) in runs.iter_mut().enumerate() {
        let (packed, _, pos) = run.chunk()?;
        if let Some(&p) = packed.get(*pos) {
            heap.push(Reverse((p >> 32, ri)));
        }
    }
    let mut next = heap.pop();
    while let Some(Reverse((_, ri))) = next {
        // Records below `stop` precede every other run's frontier; a
        // tie goes to the earlier run.
        let stop = heap.peek().map_or(u128::MAX, |&Reverse((key_node, rj))| {
            key_node + (ri < rj) as u128
        });
        let retract = retract.as_ref().filter(|_| ri == 0);
        next = loop {
            let (packed, elements, pos) = runs[ri].chunk()?;
            let stretch = &packed[*pos..];
            if stretch.is_empty() {
                break heap.pop(); // drained
            }
            // One loop, compiled with and without the retraction filter.
            let end = match retract {
                Some(r) => drain(s, stretch, elements, stop, |v| !r.contains(v), &mut sink),
                None => drain(s, stretch, elements, stop, |_| true, &mut sink),
            };
            *pos += end;
            if let Some(&p) = stretch.get(end) {
                // No longer the minimum: trade places with the heap's top.
                let mut top = heap.peek_mut().expect("a stop implies another run");
                break Some(std::mem::replace(&mut *top, Reverse((p >> 32, ri))));
            }
        };
    }
    if runs.iter().any(|r| matches!(r, Cursor::Disk(_))) {
        stats.read_seconds += t0.elapsed().as_secs_f64();
    }
    Ok(sink)
}

/// Hand `sink` the leading records of `stretch` below `stop` whose
/// generator `keep` accepts; returns how many records were read.
#[inline(always)]
fn drain<S: RecordSink>(
    s: usize,
    stretch: &[u128],
    elements: &[u32],
    stop: u128,
    keep: impl Fn(VertexId) -> bool,
    sink: &mut S,
) -> usize {
    for (k, &p) in stretch.iter().enumerate() {
        let key_node = p >> 32;
        if key_node >= stop {
            return k;
        }
        if keep(key_node as VertexId) {
            let rep = p as u32 as usize;
            sink.record(key_node, &elements[rep * s..(rep + 1) * s]);
        }
    }
    stretch.len()
}

/// Merge resident and spilled sorted runs into the bipartite shingle
/// graph through `merge_runs`; read time is tallied into `stats` when
/// a run is on disk.
pub fn merge_external_runs(
    s: usize,
    runs: Vec<ExternalRun>,
    stats: &mut SpillStats,
) -> io::Result<gpclust_graph::ShingleGraph> {
    let cursors = runs.iter().map(Cursor::of).collect::<io::Result<_>>()?;
    Ok(merge_runs::<StreamInverter>(s, cursors, &[], stats)?.finish())
}

/// Surface a spill/scratch I/O failure through the drivers' device-error
/// channel ([`gpclust_gpu::DeviceError::HostIo`]).
pub(crate) fn io_to_device(e: io::Error) -> gpclust_gpu::DeviceError {
    gpclust_gpu::DeviceError::HostIo {
        detail: format!("host spill I/O failed: {e}"),
    }
}

/// Resident bytes of a [`SortedRun`] (packed u128s + element ids) — what
/// the [`crate::timing::ResidentGauge`] charges while a run awaits its
/// spill.
pub(crate) fn run_bytes(run: &SortedRun) -> u64 {
    (run.packed.len() * 16 + run.elements.len() * 4) as u64
}

/// The shingle graph of resident runs: [`merge_external_runs`] over
/// [`ExternalRun::Mem`] runs.
#[cfg(test)]
pub(crate) fn merge_resident(s: usize, runs: Vec<SortedRun>) -> gpclust_graph::ShingleGraph {
    let runs = runs.into_iter().map(ExternalRun::Mem).collect();
    merge_external_runs(s, runs, &mut SpillStats::default()).expect("a resident merge does no I/O")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::StreamAggregator;
    use crate::minwise::{pack, unpack_element};
    use crate::shingle::shingle_key;

    /// Pack one grouped record the way a device run does (run-local idx).
    fn push_run_record(run: &mut SortedRun, trial: u32, node: u32, pairs: &[u64]) {
        let s = pairs.len();
        let idx = (run.elements.len() / s) as u128;
        for &p in pairs {
            run.elements.push(unpack_element(p));
        }
        let key = shingle_key(trial, pairs.iter().map(|&p| unpack_element(p)));
        run.packed
            .push(((key as u128) << 64) | ((node as u128) << 32) | idx);
    }

    fn sample_runs(n_runs: usize, n_records: u32) -> Vec<SortedRun> {
        let mut runs = vec![SortedRun::default(); n_runs];
        for i in 0..n_records {
            let trial = i % 5;
            let e = i % 37;
            let pairs = [pack(e, e), pack(e + 1, e + 1)];
            let run = (i as usize * n_runs) / n_records as usize;
            push_run_record(&mut runs[run], trial, i, &pairs);
        }
        for run in &mut runs {
            run.packed.sort_unstable();
        }
        runs
    }

    #[test]
    fn spill_roundtrip_replays_every_record() {
        let run = sample_runs(1, 1000).pop().unwrap();
        let mut stats = SpillStats::default();
        let spilled = SpilledRun::write(2, &run, &mut stats).unwrap();
        assert_eq!(spilled.len(), 1000);
        // One frame: 24-byte header + 12-byte frame header + payload.
        assert_eq!(spilled.bytes(), 24 + 12 + 1000 * 24);
        assert_eq!(stats.bytes, spilled.bytes());
        assert!(stats.write_seconds >= 0.0);
        let mut replay = spilled.replay().unwrap();
        for (i, &p) in run.packed.iter().enumerate() {
            assert_eq!(replay.peek().unwrap(), Some(p), "record {i}");
            let rep = (p & 0xFFFF_FFFF) as usize;
            assert_eq!(replay.elements(), &run.elements[rep * 2..rep * 2 + 2]);
            replay.advance();
        }
        assert_eq!(replay.peek().unwrap(), None);
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let run = sample_runs(1, 10).pop().unwrap();
        let mut stats = SpillStats::default();
        let spilled = SpilledRun::write(2, &run, &mut stats).unwrap();
        let path = spilled.path.clone();
        assert!(path.exists());
        drop(spilled);
        assert!(!path.exists());
    }

    #[test]
    fn sealed_run_survives_drop_and_reopens_verified() {
        let run = sample_runs(1, 500).pop().unwrap();
        let mut stats = SpillStats::default();
        let path = spill_dir().join("sealed-test.run");
        std::fs::create_dir_all(spill_dir()).unwrap();
        let sealed = SpilledRun::write_at(path.clone(), 2, &run, &mut stats, true).unwrap();
        let crc = sealed.crc();
        drop(sealed);
        assert!(path.exists(), "keep = true must survive the drop");
        let back = SpilledRun::reopen(path.clone()).unwrap();
        assert_eq!(back.len(), 500);
        assert_eq!(back.s(), 2);
        assert_eq!(back.crc(), crc);
        let mut replay = back.replay().unwrap();
        let mut count = 0;
        while replay.peek().unwrap().is_some() {
            replay.advance();
            count += 1;
        }
        assert_eq!(count, 500);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_and_truncation_are_detected_not_merged() {
        let run = sample_runs(1, 300).pop().unwrap();
        let mut stats = SpillStats::default();
        let path = spill_dir().join("corrupt-test.run");
        std::fs::create_dir_all(spill_dir()).unwrap();
        let sealed = SpilledRun::write_at(path.clone(), 2, &run, &mut stats, false).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Bit-flip deep in the payload: reopen and replay both reject.
        let mut flipped = clean.clone();
        let mid = clean.len() - 100;
        flipped[mid] ^= 0x04;
        std::fs::write(&path, &flipped).unwrap();
        let err = SpilledRun::reopen(path.clone()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte"), "{err}");
        let mut replay = sealed.replay().unwrap();
        assert!(replay.peek().is_err(), "replay must verify frames too");

        // Truncation mid-frame.
        std::fs::write(&path, &clean[..clean.len() / 2]).unwrap();
        assert!(SpilledRun::reopen(path.clone()).is_err());
        let mut replay = sealed.replay().unwrap();
        assert!(replay.peek().is_err());

        // Header damage.
        let mut bad_magic = clean.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(SpilledRun::reopen(path.clone()).is_err());

        // Trailing garbage after the last frame.
        let mut padded = clean.clone();
        padded.push(0xAB);
        std::fs::write(&path, &padded).unwrap();
        assert!(SpilledRun::reopen(path.clone()).is_err());

        // The pristine bytes still verify.
        std::fs::write(&path, &clean).unwrap();
        assert_eq!(SpilledRun::reopen(path.clone()).unwrap().len(), 300);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_crosses_chunk_boundaries() {
        // More records than one replay chunk, so refill() runs mid-stream
        // and the file carries multiple frames.
        let n = (REPLAY_CHUNK + REPLAY_CHUNK / 3) as u32;
        let run = sample_runs(1, n).pop().unwrap();
        let mut stats = SpillStats::default();
        let spilled = SpilledRun::write(2, &run, &mut stats).unwrap();
        assert_eq!(
            spilled.bytes(),
            24 + 2 * 12 + n as u64 * 24,
            "two frames expected"
        );
        let mut replay = spilled.replay().unwrap();
        let mut count = 0usize;
        while replay.peek().unwrap().is_some() {
            replay.advance();
            count += 1;
        }
        assert_eq!(count, n as usize);
    }

    /// A seeded run at s = 2: random `(key, node)` pairs in ascending
    /// order, local indices in emission order, random element ids.
    fn seeded_run(seed: u64, n: usize) -> SortedRun {
        let mut rng = gpclust_support::rng::StdRng::seed_from_u64(seed);
        let mut run = SortedRun::default();
        for i in 0..n {
            let key_node = ((rng.gen::<u64>() as u128) << 32) | rng.gen::<u32>() as u128;
            run.packed.push((key_node << 32) | i as u128);
            run.elements.extend([rng.gen::<u32>(), rng.gen::<u32>()]);
        }
        run.packed.sort_unstable();
        run
    }

    #[test]
    fn sealed_bytes_and_crcs_are_pinned() {
        // The on-disk format and every recorded CRC are a compatibility
        // contract with runs and manifests sealed by earlier builds: these
        // constants were recorded from the byte-at-a-time CRC.
        let run = seeded_run(25, 2 * REPLAY_CHUNK + 17);
        let mut stats = SpillStats::default();
        let spilled = SpilledRun::write(2, &run, &mut stats).unwrap();
        let bytes = std::fs::read(spilled.path()).unwrap();
        let mut frame_crcs = Vec::new();
        let mut offset = HEADER_LEN;
        while offset < bytes.len() {
            let len = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            frame_crcs.push(u32::from_le_bytes(
                bytes[offset + 8..offset + 12].try_into().unwrap(),
            ));
            offset += FRAME_HEADER + len as usize;
        }
        assert_eq!(offset, bytes.len());
        assert_eq!(bytes.len(), 24 + 3 * 12 + run.len() * 24);
        assert_eq!(frame_crcs, [0x3c6d_7d44, 0x6c20_f1ba, 0x8c34_52ce]);
        assert_eq!(spilled.crc(), 0xfda7_9af5);
    }

    /// The one merge against the host oracle's global sort: random
    /// record streams split into 1–8 runs, each resident or spilled (a
    /// long stream spills multi-frame runs), with empty runs, `(key,
    /// node)` ties across runs and a random retraction set on run 0 (in
    /// any order, with duplicates and ids no record carries).
    #[test]
    fn one_merge_matches_the_global_sort_oracle() {
        gpclust_support::check::check(64, |case| {
            let s = case.range(1..4usize);
            let long = case.range(0..16u32) == 0;
            let n_runs = if long {
                case.range(1..3usize)
            } else {
                case.range(1..9usize)
            };
            let n = if long {
                3 * REPLAY_CHUNK
            } else {
                case.size(0..600)
            };
            let n_nodes = case.range(1..40u32);
            // Records as emitted: `(trial, node, elements)` per run.
            let mut emitted: Vec<Vec<(u32, u32, Vec<u32>)>> = vec![Vec::new(); n_runs];
            for _ in 0..n {
                let ri = case.range(0..n_runs);
                let trial = case.range(0..4u32);
                let node = case.range(0..n_nodes);
                let elements = (0..s).map(|_| case.range(0..5u32)).collect();
                emitted[ri].push((trial, node, elements));
            }
            let retract: Vec<VertexId> = case.vec(0..8, |c| c.range(0..n_nodes + 4));
            let dropped = NodeSet::of(&retract, u64::MAX);

            // The global sort over the surviving records, absorbed in run
            // order: once for the graph, once for the run.
            let mut oracle = [StreamAggregator::new(s), StreamAggregator::new(s)];
            let mut stats = SpillStats::default();
            let mut spilled = false;
            let mut runs = Vec::new();
            for (ri, records) in emitted.iter().enumerate() {
                let mut run = SortedRun::default();
                for (i, (trial, node, elements)) in records.iter().enumerate() {
                    let key = shingle_key(*trial, elements.iter().copied());
                    run.packed
                        .push(((key as u128) << 64) | ((*node as u128) << 32) | i as u128);
                    run.elements.extend_from_slice(elements);
                    if ri > 0 || !dropped.contains(*node) {
                        for o in &mut oracle {
                            o.push(*trial, *node, elements.iter().copied());
                        }
                    }
                }
                run.packed.sort_unstable();
                runs.push(if case.bool() {
                    spilled = true;
                    ExternalRun::Disk(SpilledRun::write(s, &run, &mut stats).unwrap())
                } else {
                    ExternalRun::Mem(run)
                });
            }
            let [oracle_graph, oracle_run] = oracle;
            let cursors = || {
                runs.iter()
                    .map(Cursor::of)
                    .collect::<io::Result<_>>()
                    .unwrap()
            };
            let graph = merge_runs::<StreamInverter>(s, cursors(), &retract, &mut stats)
                .unwrap()
                .finish();
            assert_eq!(graph, oracle_graph.finish());
            let run: SortedRun = merge_runs(s, cursors(), &retract, &mut stats).unwrap();
            if !spilled {
                assert_eq!(stats.read_seconds, 0.0, "a resident merge reads no disk");
            }

            // The oracle's run, re-ranked into canonical form.
            let mut canonical = SortedRun::default();
            let sorted = oracle_run.into_run();
            for &p in &sorted.packed {
                let rep = p as u32 as usize;
                canonical.record(p >> 32, &sorted.elements[rep * s..(rep + 1) * s]);
            }
            assert_eq!(run, canonical);
            assert!(run
                .packed
                .iter()
                .enumerate()
                .all(|(i, &p)| p as u32 as usize == i));
            assert!(run.packed.windows(2).all(|w| w[0] < w[1]));
            let inverted = merge_external_runs(s, vec![ExternalRun::Mem(run)], &mut stats).unwrap();
            assert_eq!(inverted, graph);
            if retract.is_empty() {
                assert_eq!(merge_external_runs(s, runs, &mut stats).unwrap(), graph);
            }
        });
        let mut stats = SpillStats::default();
        assert!(merge_external_runs(2, Vec::new(), &mut stats)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn spill_stats_accumulate() {
        let mut a = SpillStats {
            bytes: 10,
            write_seconds: 1.0,
            read_seconds: 2.0,
        };
        a.merge(&SpillStats {
            bytes: 5,
            write_seconds: 0.5,
            read_seconds: 0.25,
        });
        assert_eq!(a.bytes, 15);
        assert!((a.write_seconds - 1.5).abs() < 1e-12);
        assert!((a.read_seconds - 2.25).abs() < 1e-12);
    }
}
