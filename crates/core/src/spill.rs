//! Spill-to-disk sorted runs and the external k-way merge — the
//! out-of-core half of the aggregation layer.
//!
//! Host aggregation reduces each batch (or shard) of pass records to a
//! [`SortedRun`] — packed `(key << 64 | node << 32 | local-index)` u128s
//! plus `s` element ids per record — and
//! [`crate::aggregate::merge_sorted_runs`] reconstructs the shingle graph
//! from any set of such runs in one streaming heap pass. That merge only
//! ever looks at each run's *frontier* record, so a run does not need to
//! be resident: this module writes finished runs to framed temp files
//! ([`SpilledRun`]) and generalizes the binary-heap merge into
//! [`merge_external_runs`] over any mix of in-memory and on-disk runs.
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
//! [`merge_external_runs`] pops records in exactly the order
//! [`crate::aggregate::merge_sorted_runs`] does — ascending `(key, node)`
//! with ties broken by run index — and feeds the same inverter. Where the
//! records sleep between production and merge changes nothing about the
//! sequence, so the out-of-core path inherits the in-memory path's
//! bit-identity proof (`tests/oocore_properties.rs` pins it).

use crate::aggregate::{SortedRun, StreamInverter};
use crate::checkpoint::{crc32, crc32_combine};
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

/// One run of the external merge: resident or spilled.
#[derive(Debug)]
pub enum ExternalRun {
    /// A run kept in memory, merged beside spilled ones. The driver's
    /// spilled Pass I seals every run, its shards' finalized fragments
    /// included, so it passes only [`ExternalRun::Disk`].
    Mem(SortedRun),
    /// A run spilled to disk.
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

/// Per-run cursor state of the external merge.
enum Cursor {
    Mem { run: SortedRun, pos: usize },
    Disk { replay: RunReplay },
}

impl Cursor {
    fn peek(&mut self) -> io::Result<Option<u128>> {
        match self {
            Cursor::Mem { run, pos } => Ok(run.packed.get(*pos).copied()),
            Cursor::Disk { replay } => replay.peek(),
        }
    }
}

/// Merge resident and spilled sorted runs into the bipartite shingle
/// graph — [`crate::aggregate::merge_sorted_runs`] generalized over run
/// residency.
///
/// Entries pop in ascending `((key, node), run-index)` order, exactly the
/// in-memory merge's sequence, so the result is bit-identical to merging
/// the same runs resident. Host memory holds one `REPLAY_CHUNK`-record
/// frontier per on-disk run plus the growing output graph; read traffic
/// is tallied into `stats`.
///
/// [`merge_sorted_runs`]: crate::aggregate::merge_sorted_runs
pub fn merge_external_runs(
    s: usize,
    runs: Vec<ExternalRun>,
    stats: &mut SpillStats,
) -> io::Result<gpclust_graph::ShingleGraph> {
    let t0 = Instant::now();
    let runs: Vec<ExternalRun> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert!(total < (1 << 32), "too many shingle records");
    let mut inv = StreamInverter::new(s, total);
    let mut cursors: Vec<Cursor> = runs
        .into_iter()
        .map(|r| match r {
            ExternalRun::Mem(run) => Ok(Cursor::Mem { run, pos: 0 }),
            ExternalRun::Disk(spilled) => Ok(Cursor::Disk {
                replay: spilled.replay()?,
            }),
        })
        .collect::<io::Result<_>>()?;

    use std::cmp::Reverse;
    // Heap keys strip the run-local index (low 32 bits) and tie-break on
    // the run index — the same order [`merge_sorted_runs`] restores.
    let mut heap: BinaryHeap<Reverse<(u128, usize)>> = BinaryHeap::with_capacity(cursors.len());
    for (ri, c) in cursors.iter_mut().enumerate() {
        if let Some(p) = c.peek()? {
            heap.push(Reverse((p >> 32, ri)));
        }
    }
    while let Some(Reverse((_, ri))) = heap.pop() {
        let cursor = &mut cursors[ri];
        match cursor {
            Cursor::Mem { run, pos } => {
                let p = run.packed[*pos];
                let rep = (p & 0xFFFF_FFFF) as usize;
                // Split borrows: elements slice is read inside the push.
                let elems = &run.elements[rep * s..(rep + 1) * s];
                inv.push(p, |out| out.extend_from_slice(elems));
                *pos += 1;
            }
            Cursor::Disk { replay } => {
                let p = replay.peek()?.expect("heap entry implies a record");
                inv.push(p, |out| out.extend_from_slice(replay.elements()));
                replay.advance();
            }
        }
        if let Some(next) = cursor.peek()? {
            heap.push(Reverse((next >> 32, ri)));
        }
    }
    stats.read_seconds += t0.elapsed().as_secs_f64();
    Ok(inv.finish())
}

/// Merge resident and spilled sorted runs into one in-memory
/// [`SortedRun`] — [`crate::aggregate::merge_runs_to_run`] generalized
/// over run residency, for when the merged records must outlive the merge
/// (the incremental engine folds delta-pass shard runs into its persistent
/// shingle index this way). Pops in exactly [`merge_external_runs`]'s
/// order, so collapsing through this run first then inverting is
/// bit-identical to inverting the runs directly.
pub fn merge_external_to_run(
    s: usize,
    runs: Vec<ExternalRun>,
    stats: &mut SpillStats,
) -> io::Result<SortedRun> {
    let t0 = Instant::now();
    let runs: Vec<ExternalRun> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert!(total < (1 << 32), "too many shingle records");
    let mut out = SortedRun {
        packed: Vec::with_capacity(total),
        elements: Vec::with_capacity(total * s),
    };
    let mut cursors: Vec<Cursor> = runs
        .into_iter()
        .map(|r| match r {
            ExternalRun::Mem(run) => Ok(Cursor::Mem { run, pos: 0 }),
            ExternalRun::Disk(spilled) => Ok(Cursor::Disk {
                replay: spilled.replay()?,
            }),
        })
        .collect::<io::Result<_>>()?;

    use std::cmp::Reverse;
    let mut heap: BinaryHeap<Reverse<(u128, usize)>> = BinaryHeap::with_capacity(cursors.len());
    for (ri, c) in cursors.iter_mut().enumerate() {
        if let Some(p) = c.peek()? {
            heap.push(Reverse((p >> 32, ri)));
        }
    }
    while let Some(Reverse((key_node, ri))) = heap.pop() {
        let cursor = &mut cursors[ri];
        let idx = out.packed.len() as u128;
        out.packed.push((key_node << 32) | idx);
        match cursor {
            Cursor::Mem { run, pos } => {
                let p = run.packed[*pos];
                let rep = (p & 0xFFFF_FFFF) as usize;
                out.elements
                    .extend_from_slice(&run.elements[rep * s..(rep + 1) * s]);
                *pos += 1;
            }
            Cursor::Disk { replay } => {
                replay.peek()?.expect("heap entry implies a record");
                out.elements.extend_from_slice(replay.elements());
                replay.advance();
            }
        }
        if let Some(next) = cursor.peek()? {
            heap.push(Reverse((next >> 32, ri)));
        }
    }
    stats.read_seconds += t0.elapsed().as_secs_f64();
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::merge_sorted_runs;
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

    #[test]
    fn external_merge_matches_in_memory_merge() {
        // Every residency mix of the same runs must reproduce the
        // in-memory k-way merge bit for bit.
        for n_runs in [1usize, 2, 3, 7] {
            let runs = sample_runs(n_runs, 2_000);
            let oracle = merge_sorted_runs(2, runs.clone());
            for spill_mask in 0..(1u32 << n_runs) {
                let mut stats = SpillStats::default();
                let ext: Vec<ExternalRun> = runs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        if spill_mask & (1 << i) != 0 {
                            Ok(ExternalRun::Disk(SpilledRun::write(2, r, &mut stats)?))
                        } else {
                            Ok(ExternalRun::Mem(r.clone()))
                        }
                    })
                    .collect::<io::Result<_>>()
                    .unwrap();
                let merged = merge_external_runs(2, ext, &mut stats).unwrap();
                assert_eq!(merged, oracle, "{n_runs} runs, mask {spill_mask:b}");
            }
        }
    }

    #[test]
    fn external_merge_handles_empty_and_unbalanced_runs() {
        let mut big = SortedRun::default();
        let mut small = SortedRun::default();
        for i in 0..100u32 {
            let pairs = [pack(i % 9, i % 9)];
            push_run_record(if i < 99 { &mut big } else { &mut small }, 0, i, &pairs);
        }
        big.packed.sort_unstable();
        small.packed.sort_unstable();
        let oracle = merge_sorted_runs(1, vec![big.clone(), small.clone()]);
        let mut stats = SpillStats::default();
        let ext = vec![
            ExternalRun::Mem(SortedRun::default()),
            ExternalRun::Disk(SpilledRun::write(1, &big, &mut stats).unwrap()),
            ExternalRun::Mem(SortedRun::default()),
            ExternalRun::Mem(small),
        ];
        assert_eq!(merge_external_runs(1, ext, &mut stats).unwrap(), oracle);
        assert!(merge_external_runs(1, Vec::new(), &mut stats)
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
