//! Thrust-like data-parallel kernels, each issued on a [`Stream`].
//!
//! The paper implements its GPU shingling with the Thrust template library,
//! naming two workhorses: `thrust::transform` (the per-element min-wise
//! hash) and sorting (the segmented sort that orders each permuted
//! adjacency list). This module provides those two kernels over
//! [`DeviceBuffer`]s, plus the fused hash + segmented top-s selection
//! ([`transform_select_on`]) that replaces the transform → segmented sort
//! → compaction chain with one launch per group of trials, and its
//! reduction ([`transform_select_mark_on`]) to one selected-position mark
//! per element over every trial of a batch. Each launch
//! executes in parallel on the SM pool and charges modeled device time via
//! its [`KernelCost`] to the stream's cursor.
//!
//! All kernels are deterministic and independent of the worker count:
//! work is partitioned into disjoint output ranges, so any schedule
//! produces identical buffers.
//!
//! **Fault injection** (see [`crate::fault`]): every launch funnels
//! through [`Stream::launch`], so an injected kernel fault skips the
//! launch's work and parks as a sticky pending error for the caller's next
//! [`crate::simt::Gpu::take_fault`] / [`Stream::try_dtoh_async`]
//! synchronization point — the CUDA `cudaGetLastError` contract.

use crate::memory::{DeviceBuffer, Pod};
use crate::simt::KernelCost;
use crate::stream::Stream;
use std::ops::Range;

/// Elements per thread-block task; one task ≈ one block batch.
const BLOCK_ELEMS: usize = 64 * 1024;

/// Build the per-block tasks of an elementwise map.
fn transform_tasks<'a, T: Pod, U: Pod, F>(
    input: &'a DeviceBuffer<T>,
    output: &'a mut DeviceBuffer<U>,
    f: &'a F,
) -> Vec<Box<dyn FnOnce() + Send + 'a>>
where
    F: Fn(T) -> U + Sync,
{
    assert_eq!(input.len(), output.len(), "transform length mismatch");
    input
        .device_slice()
        .chunks(BLOCK_ELEMS)
        .zip(output.device_slice_mut().chunks_mut(BLOCK_ELEMS))
        .map(|(src, dst)| {
            Box::new(move || {
                for (s, d) in src.iter().zip(dst.iter_mut()) {
                    *d = f(*s);
                }
            }) as Box<dyn FnOnce() + Send + 'a>
        })
        .collect()
}

/// Elementwise map `output[i] = f(input[i])` (like `thrust::transform`).
///
/// # Panics
/// Panics if the buffers differ in length.
pub fn transform_on<T: Pod, U: Pod, F>(
    stream: &Stream,
    input: &DeviceBuffer<T>,
    output: &mut DeviceBuffer<U>,
    f: F,
) where
    F: Fn(T) -> U + Sync,
{
    let n = input.len();
    let tasks = transform_tasks(input, output, &f);
    stream.launch(n, &KernelCost::transform(), tasks);
}

/// Split the segments delimited by `seg_offsets` into contiguous groups
/// of at most `budget` elements; a segment longer than `budget` forms a
/// group of its own. Grouping keeps tasks balanced even when segment
/// sizes are heavily skewed.
fn segment_groups(seg_offsets: &[u64], budget: usize) -> Vec<Range<usize>> {
    let n_segs = seg_offsets.len().saturating_sub(1);
    let mut groups = Vec::new();
    let mut lo = 0usize;
    while lo < n_segs {
        let mut hi = lo + 1;
        while hi < n_segs && (seg_offsets[hi + 1] - seg_offsets[lo]) as usize <= budget {
            hi += 1;
        }
        groups.push(lo..hi);
        lo = hi;
    }
    groups
}

/// Build the per-block tasks of a segmented sort: one task per
/// ~[`BLOCK_ELEMS`]-element segment group.
fn segmented_sort_tasks<'a, T: Pod + Ord>(
    buf: &'a mut DeviceBuffer<T>,
    seg_offsets: &'a [u64],
) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
    assert!(!seg_offsets.is_empty(), "offsets must contain at least [0]");
    assert_eq!(
        *seg_offsets.last().unwrap() as usize,
        buf.len(),
        "offsets must cover the buffer"
    );
    // Tasks borrow their offset windows — no per-task allocation (this
    // runs once per random trial, over millions of segments at scale).
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::new();
    let mut rest = buf.device_slice_mut();
    for segs in segment_groups(seg_offsets, BLOCK_ELEMS) {
        let start = seg_offsets[segs.start] as usize;
        let end = seg_offsets[segs.end] as usize;
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
        rest = tail;
        let window = &seg_offsets[segs.start..=segs.end];
        tasks.push(Box::new(move || {
            for w in window.windows(2) {
                head[w[0] as usize - start..w[1] as usize - start].sort_unstable();
            }
        }));
    }
    tasks
}

/// Sort each segment of `buf` independently (the *segmented sorting* of
/// Figure 4). `seg_offsets` holds `k + 1` monotone offsets delimiting the
/// `k` segments (adjacency-list boundaries, the "auxiliary data structure
/// on the device").
///
/// # Panics
/// Panics if the offsets don't cover the buffer.
pub fn segmented_sort_on<T: Pod + Ord>(
    stream: &Stream,
    buf: &mut DeviceBuffer<T>,
    seg_offsets: &[u64],
) {
    let n = buf.len();
    let tasks = segmented_sort_tasks(buf, seg_offsets);
    stream.launch(n, &KernelCost::segmented_sort(), tasks);
}

/// Write the `w.len()` smallest 64-bit keys `f(x)` over `seg`, ascending,
/// into `w` — the top-s selection of a min-wise trial, shared by the
/// fused kernel, the serial oracle and the host degrade path. The keys
/// are concrete `u64`s (the packed `(hash, element)` layout): over a
/// generic `Ord` key the compiler kept the two registers below in memory
/// and the loop ran about three times slower. For `k = 2` (the
/// paper default `s1 = s2 = 2`) the two smallest keys live in two
/// registers and each further element costs one `v < m1` test. Any
/// other `k` keeps an insertion-sorted k-buffer, the paper's own top-s
/// approach ("the small values of s expected to be used in practice,
/// typically under 10, justify a simple insertion sort-based approach").
/// Keys that tie keep the same multiset the sort-then-truncate oracle
/// keeps, so `w` is bit-identical to sorting `seg`'s keys and taking the
/// prefix.
///
/// # Panics
/// Panics if `w` is longer than `seg`.
#[inline]
pub fn select_smallest_into<T: Copy, F>(seg: &[T], w: &mut [u64], f: F)
where
    F: Fn(T) -> u64,
{
    select_smallest_keys(seg.iter().map(|&x| f(x)), w);
}

/// [`select_smallest_into`] by `(hash, position)`: the `w.len()` smallest
/// keys `hash(seg[i]) << 32 | i`, ascending, into `w`, so `w[j] as u32`
/// is the position of the `j`-th selected element. On a strictly
/// ascending segment this orders exactly like the packed `(hash,
/// element)` key, so it selects the same elements in the same order.
///
/// # Panics
/// Panics if `w` is longer than `seg`.
#[inline]
pub fn select_positions_into<T: Copy, F>(seg: &[T], w: &mut [u64], hash: F)
where
    F: Fn(T) -> u32,
{
    select_smallest_keys(
        seg.iter()
            .enumerate()
            .map(|(i, &x)| (hash(x) as u64) << 32 | i as u64),
        w,
    );
}

/// The segment body both selections share: the `w.len()` smallest of
/// `keys`, ascending, into `w`.
#[inline(always)]
fn select_smallest_keys(mut keys: impl ExactSizeIterator<Item = u64>, w: &mut [u64]) {
    let k = w.len();
    assert!(
        k <= keys.len(),
        "selection count {k} exceeds segment length {}",
        keys.len()
    );
    if let [w0, w1] = w {
        let (a, b) = (keys.next().unwrap(), keys.next().unwrap());
        let (mut m0, mut m1) = if b < a { (b, a) } else { (a, b) };
        for v in keys {
            if v < m1 {
                if v < m0 {
                    m1 = m0;
                    m0 = v;
                } else {
                    m1 = v;
                }
            }
        }
        (*w0, *w1) = (m0, m1);
    } else {
        insertion_select(keys, w);
    }
}

/// The insertion-sorted k-buffer behind [`select_smallest_into`] for
/// every `k ≠ 2`; `w.len() ≤ keys.len()`.
fn insertion_select(keys: impl Iterator<Item = u64>, w: &mut [u64]) {
    let k = w.len();
    if k == 0 {
        return;
    }
    for (filled, v) in keys.enumerate() {
        let mut i = if filled < k {
            filled
        } else if v < w[k - 1] {
            k - 1
        } else {
            continue;
        };
        while i > 0 && w[i - 1] > v {
            w[i] = w[i - 1];
            i -= 1;
        }
        w[i] = v;
    }
}

/// One task of the fused select kernel's grid: a contiguous group of
/// segments, run for a contiguous range of the launch's trials.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SelectTask {
    segs: Range<usize>,
    trials: Range<usize>,
}

/// The task grid of a fused select launch over `trials` trials. Each
/// task covers about [`BLOCK_ELEMS`] element-trials: segments group into
/// runs of at most `BLOCK_ELEMS / trials` elements, so a group usually
/// takes every trial, and a group larger than that (one long segment)
/// splits its trial range across tasks. No task exceeds
/// `max(its longest segment, BLOCK_ELEMS)` element-trials.
fn select_grid(seg_offsets: &[u64], trials: usize) -> Vec<SelectTask> {
    let mut grid = Vec::new();
    if trials == 0 {
        return grid;
    }
    for segs in segment_groups(seg_offsets, (BLOCK_ELEMS / trials).max(1)) {
        let elems = (seg_offsets[segs.end] - seg_offsets[segs.start]) as usize;
        let per_task = (BLOCK_ELEMS / elems.max(1)).clamp(1, trials);
        let mut t = 0;
        while t < trials {
            let end = (t + per_task).min(trials);
            grid.push(SelectTask {
                segs: segs.clone(),
                trials: t..end,
            });
            t = end;
        }
    }
    grid
}

/// Build the per-block tasks of a fused transform + segmented top-k
/// selection over a group of `trials` maps, on the [`select_grid`]. A
/// task walks its segments once and, for each segment, runs every trial
/// of its range while the segment is hot in cache. The output stays
/// trial-major: a task borrows one disjoint window per trial.
fn transform_select_tasks<'a, T: Pod, U: Pod, F, P>(
    input: &'a DeviceBuffer<T>,
    seg_offsets: &'a [u64],
    out_offsets: &'a [usize],
    trials: usize,
    out: &'a mut DeviceBuffer<U>,
    (key, project): (&'a F, &'a P),
) -> Vec<Box<dyn FnOnce() + Send + 'a>>
where
    F: Fn(usize, T) -> u64 + Sync,
    P: Fn(u64) -> U + Sync,
{
    check_selection(seg_offsets, input.len(), out_offsets);
    let out_total = *out_offsets.last().unwrap();
    assert_eq!(
        trials * out_total,
        out.len(),
        "output offsets must cover the output buffer once per trial"
    );
    let grid = select_grid(seg_offsets, trials);
    // Cut each trial's slice of the output into one window per segment
    // group: `windows[group]` holds that group's windows in trial order.
    let mut groups: Vec<Range<usize>> = grid.iter().map(|task| task.segs.clone()).collect();
    groups.dedup();
    let mut windows: Vec<Vec<&'a mut [U]>> = groups.iter().map(|_| Vec::new()).collect();
    let mut rest = out.device_slice_mut();
    for _ in 0..trials {
        for (segs, group_windows) in groups.iter().zip(windows.iter_mut()) {
            let len = out_offsets[segs.end] - out_offsets[segs.start];
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            group_windows.push(head);
        }
    }
    let mut windows: Vec<_> = windows.into_iter().map(Vec::into_iter).collect();
    let src = input.device_slice();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::with_capacity(grid.len());
    let mut group = 0usize;
    for task in grid {
        if task.segs != groups[group] {
            group += 1;
        }
        let mut trial_windows: Vec<&'a mut [U]> =
            windows[group].by_ref().take(task.trials.len()).collect();
        let seg_window = &seg_offsets[task.segs.start..=task.segs.end];
        let out_window = &out_offsets[task.segs.start..=task.segs.end];
        let t0 = task.trials.start;
        tasks.push(Box::new(move || {
            let out_start = out_window[0];
            // The segment's selected keys, in registers on a device.
            let mut keys: Vec<u64> = Vec::new();
            for i in 0..seg_window.len() - 1 {
                let (lo, hi) = (out_window[i] - out_start, out_window[i + 1] - out_start);
                if lo == hi {
                    continue;
                }
                let seg = &src[seg_window[i] as usize..seg_window[i + 1] as usize];
                keys.resize(hi - lo, 0);
                for (t, w) in (t0..).zip(trial_windows.iter_mut()) {
                    select_smallest_into(seg, &mut keys, |x| key(t, x));
                    for (slot, &k) in w[lo..hi].iter_mut().zip(&keys) {
                        *slot = project(k);
                    }
                }
            }
        }));
    }
    tasks
}

/// Fused elementwise map + segmented top-k selection for a **group of
/// trials in one kernel launch**: for each trial `t < trials` and each
/// segment `i` of `input` (delimited by `seg_offsets`), select the
/// `out_offsets[i+1] - out_offsets[i]` smallest 64-bit keys
/// `key(t, element)` with [`select_smallest_into`] and write their
/// projections `project(key)`, in ascending key order,
/// into trial `t`'s slice of the dense, trial-major `out`
/// (`trials × out_offsets.last()` slots). The projection lets a wide
/// selection key (a packed `(hash, element)`) leave the device as a
/// narrow value (the element alone). Replaces the transform →
/// segmented-sort → compaction trio of the shingling hot path with a
/// single `O(d)`-per-segment launch per trial group, and never
/// materializes the keys of non-selected elements — there is no
/// full-width packed workspace. The launch charges `trials × input.len()`
/// elements at [`KernelCost::segmented_select`], so a group pays the
/// fixed launch overhead once.
///
/// Per-segment selection counts may be any value `≤` the segment length
/// (zero skips the segment entirely).
///
/// # Panics
/// Panics if the offsets don't cover the buffers or a selection count
/// exceeds its segment length.
#[allow(clippy::too_many_arguments)] // input, two offset arrays, group, output, key, projection
pub fn transform_select_on<T: Pod, U: Pod, F, P>(
    stream: &Stream,
    input: &DeviceBuffer<T>,
    seg_offsets: &[u64],
    out_offsets: &[usize],
    trials: usize,
    out: &mut DeviceBuffer<U>,
    key: F,
    project: P,
) where
    F: Fn(usize, T) -> u64 + Sync,
    P: Fn(u64) -> U + Sync,
{
    let n = input.len() * trials;
    let tasks = transform_select_tasks(
        input,
        seg_offsets,
        out_offsets,
        trials,
        out,
        (&key, &project),
    );
    stream.launch(n, &KernelCost::segmented_select(), tasks);
}

/// Check that `seg_offsets` cover an input of `len` elements and that
/// `sel_offsets` select, per segment, monotone counts no longer than the
/// segment.
fn check_selection(seg_offsets: &[u64], len: usize, sel_offsets: &[usize]) {
    assert!(!seg_offsets.is_empty(), "offsets must contain at least [0]");
    assert_eq!(
        *seg_offsets.last().unwrap() as usize,
        len,
        "offsets must cover the buffer"
    );
    assert_eq!(
        sel_offsets.len(),
        seg_offsets.len(),
        "one output offset per segment boundary"
    );
    for (i, (s, o)) in seg_offsets
        .windows(2)
        .zip(sel_offsets.windows(2))
        .enumerate()
    {
        let seg_len = (s[1] - s[0]) as usize;
        let k = o[1]
            .checked_sub(o[0])
            .expect("output offsets must be monotone");
        assert!(
            k <= seg_len,
            "segment {i}: selection count {k} exceeds segment length {seg_len}"
        );
    }
}

/// Build the per-block tasks of [`transform_select_mark_on`]: one task
/// per segment group of at most `BLOCK_ELEMS / trials` elements, running
/// every trial, so no two tasks write the same mark. A task borrows its
/// group's marks and, when the group holds written segments, one output
/// window per trial.
#[allow(clippy::too_many_arguments)] // the arguments of transform_select_mark_on
fn transform_mark_tasks<'a, T: Pod, F>(
    input: &'a DeviceBuffer<T>,
    seg_offsets: &'a [u64],
    sel_offsets: &'a [usize],
    marked: Range<usize>,
    trials: usize,
    out: &'a mut DeviceBuffer<T>,
    marks: &'a mut DeviceBuffer<u8>,
    hash: &'a F,
) -> Vec<Box<dyn FnOnce() + Send + 'a>>
where
    F: Fn(usize, T) -> u32 + Sync,
{
    check_selection(seg_offsets, input.len(), sel_offsets);
    assert_eq!(marks.len(), input.len(), "one mark per input element");
    let written = |segs: Range<usize>| -> usize {
        segs.filter(|i| !marked.contains(i))
            .map(|i| sel_offsets[i + 1] - sel_offsets[i])
            .sum()
    };
    assert_eq!(
        trials * written(0..seg_offsets.len() - 1),
        out.len(),
        "unmarked selections must cover the output buffer once per trial"
    );
    let groups = segment_groups(seg_offsets, (BLOCK_ELEMS / trials.max(1)).max(1));
    let lens: Vec<usize> = groups.iter().map(|segs| written(segs.clone())).collect();
    // `windows[group]`: that group's output windows in trial order, none
    // for a group that writes nothing.
    let mut windows: Vec<Vec<&'a mut [T]>> = groups.iter().map(|_| Vec::new()).collect();
    let mut rest = out.device_slice_mut();
    for _ in 0..trials {
        for (&len, group_windows) in lens.iter().zip(windows.iter_mut()) {
            if len > 0 {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                group_windows.push(head);
            }
        }
    }
    let src = input.device_slice();
    let mut marks_rest = marks.device_slice_mut();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::with_capacity(groups.len());
    for (segs, mut trial_windows) in groups.into_iter().zip(windows) {
        let seg_window = &seg_offsets[segs.start..=segs.end];
        let sel_window = &sel_offsets[segs.start..=segs.end];
        let base = seg_window[0];
        let (group_marks, tail) = std::mem::take(&mut marks_rest)
            .split_at_mut((seg_window[seg_window.len() - 1] - base) as usize);
        marks_rest = tail;
        let marked = marked.clone();
        tasks.push(Box::new(move || {
            group_marks.fill(0);
            // The segment's selected keys, in registers on a device.
            let mut keys: Vec<u64> = Vec::new();
            let mut cursor = 0;
            for (j, i) in segs.enumerate() {
                let k = sel_window[j + 1] - sel_window[j];
                if k == 0 {
                    continue;
                }
                let (lo, hi) = (seg_window[j] as usize, seg_window[j + 1] as usize);
                let seg = &src[lo..hi];
                keys.resize(k, 0);
                if marked.contains(&i) {
                    let seg_marks = &mut group_marks[lo - base as usize..hi - base as usize];
                    for t in 0..trials {
                        select_positions_into(seg, &mut keys, |x| hash(t, x));
                        for &key in &keys {
                            seg_marks[key as u32 as usize] = 1;
                        }
                    }
                } else {
                    for (t, w) in trial_windows.iter_mut().enumerate() {
                        select_positions_into(seg, &mut keys, |x| hash(t, x));
                        for (slot, &key) in w[cursor..cursor + k].iter_mut().zip(&keys) {
                            *slot = seg[key as u32 as usize];
                        }
                    }
                    cursor += k;
                }
            }
        }));
    }
    tasks
}

/// Fused hash + segmented top-k selection of **every trial in one
/// launch**, reduced on the device to what a union needs: for each trial
/// `t < trials` and segment `i`, select the `sel_offsets[i+1] -
/// sel_offsets[i]` smallest `(hash(t, element), position)` keys with
/// [`select_positions_into`]. A segment in `marked` sets `marks[p] = 1`
/// at every position `p` some trial selected (every other mark of the
/// segment reads 0); any other segment writes its selected elements, in
/// key order, into trial `t`'s slice of the dense, trial-major `out`,
/// whose per-trial layout holds the unmarked segments' selections in
/// segment order. `marks` holds one byte per input element; every byte
/// is written.
///
/// On strictly ascending segments the `(hash, position)` key orders
/// exactly like the packed `(hash, element)` key of
/// [`transform_select_on`], so the marks are the union over trials of the
/// positions that kernel selects, and the written elements are its
/// bytes. A long segment's trials are not split across tasks, so no two
/// tasks write one segment's marks. The launch charges
/// `trials × input.len()` elements at [`KernelCost::segmented_select`]:
/// one launch overhead for all the trials.
///
/// # Panics
/// Panics if the offsets don't cover the buffers or a selection count
/// exceeds its segment length.
#[allow(clippy::too_many_arguments)] // input, two offset arrays, marked range, trials, two outputs, hash
pub fn transform_select_mark_on<T: Pod, F>(
    stream: &Stream,
    input: &DeviceBuffer<T>,
    seg_offsets: &[u64],
    sel_offsets: &[usize],
    marked: Range<usize>,
    trials: usize,
    out: &mut DeviceBuffer<T>,
    marks: &mut DeviceBuffer<u8>,
    hash: F,
) where
    F: Fn(usize, T) -> u32 + Sync,
{
    let n = input.len() * trials;
    let tasks = transform_mark_tasks(
        input,
        seg_offsets,
        sel_offsets,
        marked,
        trials,
        out,
        marks,
        &hash,
    );
    stream.launch(n, &KernelCost::segmented_select(), tasks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::simt::Gpu;
    use gpclust_support::rng::StdRng;

    fn gpu() -> Gpu {
        Gpu::with_workers(DeviceConfig::tesla_k20(), 3)
    }

    /// Segmented sort of `data` on a fresh stream of `g`, read back.
    fn seg_sort(g: &Gpu, data: &[u64], offsets: &[u64]) -> Vec<u64> {
        let s = g.stream("compute");
        let mut buf = s.htod_async(data).unwrap();
        segmented_sort_on(&s, &mut buf, offsets);
        s.dtoh_async(&buf)
    }

    /// Per-segment output offsets for a uniform top-`k` selection: segment
    /// `i` contributes `min(k, |segment i|)` output slots.
    fn select_out_offsets(seg_offsets: &[u64], k: usize) -> Vec<usize> {
        let mut out = vec![0usize];
        for w in seg_offsets.windows(2) {
            out.push(out.last().unwrap() + ((w[1] - w[0]) as usize).min(k));
        }
        out
    }

    /// Fused `f` + top-k selection of `data` on a fresh stream, read back.
    fn select<T: Pod, F: Fn(T) -> u64 + Sync>(
        g: &Gpu,
        data: &[T],
        offsets: &[u64],
        out_offsets: &[usize],
        f: F,
    ) -> Vec<u64> {
        let s = g.stream("compute");
        let input = s.htod_async(data).unwrap();
        let mut out = g.alloc::<u64>(*out_offsets.last().unwrap()).unwrap();
        transform_select_on(
            &s,
            &input,
            offsets,
            out_offsets,
            1,
            &mut out,
            |_, x| f(x),
            |k| k,
        );
        s.dtoh_async(&out)
    }

    /// Sort-then-truncate oracle for the select kernel.
    fn select_oracle(data: &[u64], offsets: &[u64], k: usize) -> Vec<u64> {
        let mut expected = Vec::new();
        for w in offsets.windows(2) {
            let mut seg = data[w[0] as usize..w[1] as usize].to_vec();
            seg.sort_unstable();
            seg.truncate(k);
            expected.extend(seg);
        }
        expected
    }

    #[test]
    fn transform_applies_function() {
        let g = gpu();
        let s = g.stream("compute");
        let data: Vec<u64> = (0..200_000).collect();
        let input = s.htod_async(&data).unwrap();
        let mut output = g.alloc::<u64>(data.len()).unwrap();
        transform_on(&s, &input, &mut output, |x| x * 3 + 1);
        let host = s.dtoh_async(&output);
        assert!(host.iter().enumerate().all(|(i, &x)| x == i as u64 * 3 + 1));
        assert_eq!(g.counters().kernel_launches, 1);
    }

    #[test]
    fn segmented_sort_sorts_within_segments_only() {
        let g = gpu();
        let data = vec![5u64, 3, 9, /*|*/ 2, 1, /*|*/ 8, 7, 6, 0];
        let offsets = vec![0u64, 3, 5, 9];
        assert_eq!(
            seg_sort(&g, &data, &offsets),
            vec![3, 5, 9, 1, 2, 0, 6, 7, 8]
        );
    }

    #[test]
    fn segmented_sort_random_against_oracle() {
        let g = gpu();
        let mut rng = StdRng::seed_from_u64(5);
        // Random segment structure incl. empty segments.
        let mut offsets = vec![0u64];
        let mut data: Vec<u64> = Vec::new();
        for _ in 0..500 {
            let len = rng.gen_range(0..40);
            for _ in 0..len {
                data.push(rng.gen_range(0..10_000));
            }
            offsets.push(data.len() as u64);
        }
        let mut expected = data.clone();
        for w in offsets.windows(2) {
            expected[w[0] as usize..w[1] as usize].sort_unstable();
        }
        assert_eq!(seg_sort(&g, &data, &offsets), expected);
    }

    #[test]
    fn segmented_sort_single_huge_segment() {
        let g = gpu();
        let mut rng = StdRng::seed_from_u64(6);
        let mut data: Vec<u64> = (0..200_000).map(|_| rng.gen()).collect();
        let offsets = vec![0u64, data.len() as u64];
        let got = seg_sort(&g, &data, &offsets);
        data.sort_unstable();
        assert_eq!(got, data);
    }

    #[test]
    #[should_panic(expected = "cover the buffer")]
    fn segmented_sort_rejects_bad_offsets() {
        seg_sort(&gpu(), &[1, 2, 3], &[0, 2]);
    }

    #[test]
    fn segmented_select_matches_sort_truncate_oracle() {
        let g = gpu();
        let mut rng = StdRng::seed_from_u64(21);
        // Random segment structure incl. empty segments and duplicates.
        let mut offsets = vec![0u64];
        let mut data: Vec<u64> = Vec::new();
        for _ in 0..500 {
            let len = rng.gen_range(0..40);
            for _ in 0..len {
                data.push(rng.gen_range(0..50)); // tight range → many duplicates
            }
            offsets.push(data.len() as u64);
        }
        for k in [1usize, 2, 3, 7] {
            let out_offsets = select_out_offsets(&offsets, k);
            assert_eq!(
                select(&g, &data, &offsets, &out_offsets, |x| x),
                select_oracle(&data, &offsets, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn segmented_select_k_larger_than_segment_yields_whole_segment_sorted() {
        let g = gpu();
        let data = vec![5u64, 3, 9, /*|*/ 2, 1, /*|*/ 8];
        let offsets = vec![0u64, 3, 5, 6];
        // k = 10 > every segment length: each segment comes back whole,
        // sorted — min(k, |segment|) slots per segment.
        let out_offsets = select_out_offsets(&offsets, 10);
        assert_eq!(out_offsets, vec![0, 3, 5, 6]);
        assert_eq!(
            select(&g, &data, &offsets, &out_offsets, |x| x),
            vec![3, 5, 9, 1, 2, 8]
        );
    }

    #[test]
    fn segmented_select_empty_segments_and_empty_input() {
        let g = gpu();
        // All-empty segments.
        let offsets = vec![0u64, 0, 0, 0];
        let out_offsets = select_out_offsets(&offsets, 2);
        assert_eq!(out_offsets, vec![0, 0, 0, 0]);
        assert!(select::<u64, _>(&g, &[], &offsets, &out_offsets, |x| x).is_empty());
        // Empty segments interleaved with real ones.
        let offsets = vec![0u64, 0, 3, 3];
        let out_offsets = select_out_offsets(&offsets, 2);
        assert_eq!(
            select(&g, &[4u64, 2, 9], &offsets, &out_offsets, |x| x),
            vec![2, 4]
        );
    }

    #[test]
    fn segmented_select_single_huge_segment() {
        let g = gpu();
        let mut rng = StdRng::seed_from_u64(22);
        let data: Vec<u64> = (0..200_000).map(|_| rng.gen()).collect();
        let offsets = vec![0u64, data.len() as u64];
        let out_offsets = select_out_offsets(&offsets, 5);
        assert_eq!(
            select(&g, &data, &offsets, &out_offsets, |x| x),
            select_oracle(&data, &offsets, 5)
        );
    }

    #[test]
    fn segmented_select_deterministic_across_worker_counts() {
        let mut rng = StdRng::seed_from_u64(23);
        let data: Vec<u64> = (0..50_000).map(|_| rng.gen_range(0..100)).collect();
        let offsets: Vec<u64> = (0..=100).map(|i| i * 500).collect();
        let out_offsets = select_out_offsets(&offsets, 2);
        let results: Vec<Vec<u64>> = [1usize, 2, 7]
            .into_iter()
            .map(|workers| {
                let g = Gpu::with_workers(DeviceConfig::tesla_k20(), workers);
                select(&g, &data, &offsets, &out_offsets, |x| x)
            })
            .collect();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn transform_select_fuses_map_and_selection() {
        let g = gpu();
        let mut rng = StdRng::seed_from_u64(24);
        let data: Vec<u32> = (0..30_000).map(|_| rng.gen()).collect();
        let offsets: Vec<u64> = (0..=60).map(|i| i * 500).collect();
        let f = |v: u32| ((v.wrapping_mul(2_654_435_761) as u64) << 32) | v as u64;
        // Oracle: transform into a full workspace, segmented sort, truncate.
        let mapped: Vec<u64> = data.iter().map(|&v| f(v)).collect();
        let expected = select_oracle(&mapped, &offsets, 2);
        let out_offsets = select_out_offsets(&offsets, 2);
        assert_eq!(select(&g, &data, &offsets, &out_offsets, f), expected);
    }

    /// Selecting by a packed `(hash, element)` key and projecting to the
    /// element writes the element half of the packed selection, in key
    /// order, at 4 bytes a slot.
    #[test]
    fn transform_select_writes_the_projection_in_key_order() {
        let g = gpu();
        let mut rng = StdRng::seed_from_u64(26);
        let data: Vec<u32> = (0..30_000).map(|_| rng.gen()).collect();
        let offsets: Vec<u64> = (0..=60).map(|i| i * 500).collect();
        let out_offsets = select_out_offsets(&offsets, 3);
        let f = |v: u32| ((v.wrapping_mul(2_654_435_761) as u64) << 32) | v as u64;
        let packed = select(&g, &data, &offsets, &out_offsets, f);
        let s = g.stream("compute");
        let input = s.htod_async(&data).unwrap();
        let slots = *out_offsets.last().unwrap();
        let mut out = g.alloc::<u32>(slots).unwrap();
        let (key, project) = (|_, v: u32| f(v), |k: u64| k as u32);
        transform_select_on(
            &s,
            &input,
            &offsets,
            &out_offsets,
            1,
            &mut out,
            key,
            project,
        );
        g.reset_counters();
        let elements: Vec<u32> = packed.iter().map(|&p| p as u32).collect();
        assert_eq!(s.dtoh_async(&out), elements);
        assert_eq!(g.counters().d2h_bytes, 4 * slots as u64);
    }

    #[test]
    fn transform_select_honors_per_segment_zero_counts() {
        let g = gpu();
        let data = vec![7u32, 1, 9, /*|*/ 4, 2, /*|*/ 8, 3];
        let offsets = vec![0u64, 3, 5, 7];
        // Middle segment skipped entirely (k = 0), as the shingling pass
        // does for interior segments shorter than s.
        let out_offsets = vec![0usize, 2, 2, 4];
        assert_eq!(
            select(&g, &data, &offsets, &out_offsets, |v| v as u64),
            vec![1, 7, 3, 8]
        );
    }

    /// A trial group is one launch charged at `trials × n` elements, and
    /// its trial-major output is the concatenation of the single-trial
    /// selections.
    #[test]
    fn transform_select_runs_a_trial_group_in_one_launch() {
        let g = gpu();
        let mut rng = StdRng::seed_from_u64(25);
        let data: Vec<u32> = (0..150_000).map(|_| rng.gen()).collect();
        // Skewed segments, so each trial spans several block tasks.
        let offsets = vec![0u64, 3, 100_000, 120_000, 120_001, 150_000];
        let out_offsets = select_out_offsets(&offsets, 3);
        let map = |t: usize, v: u32| (v as u64).wrapping_mul(2 * t as u64 + 1) % 1_000_003;
        let trials = 5;
        let expected: Vec<u64> = (0..trials)
            .flat_map(|t| select(&g, &data, &offsets, &out_offsets, |v| map(t, v)))
            .collect();
        let s = g.stream("compute");
        let input = s.htod_async(&data).unwrap();
        let mut out = g
            .alloc::<u64>(trials * out_offsets.last().unwrap())
            .unwrap();
        g.reset_counters();
        transform_select_on(
            &s,
            &input,
            &offsets,
            &out_offsets,
            trials,
            &mut out,
            map,
            |k| k,
        );
        let snap = g.counters();
        assert_eq!(s.dtoh_async(&out), expected);
        assert_eq!(snap.kernel_launches, 1);
        let charged = g.model_kernel_seconds(trials * data.len(), &KernelCost::segmented_select());
        // The device clock keeps whole nanoseconds.
        assert!((snap.kernel_seconds - charged).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cover the buffer")]
    fn segmented_select_rejects_bad_seg_offsets() {
        select(&gpu(), &[1u64, 2, 3], &[0, 2], &[0, 2], |x| x);
    }

    #[test]
    #[should_panic(expected = "exceeds segment length")]
    fn segmented_select_rejects_overlong_selection() {
        // Asks for 5 outputs from a 3-element segment.
        select(&gpu(), &[1u64, 2, 3], &[0, 3], &[0, 5], |x| x);
    }

    #[test]
    #[should_panic(expected = "cover the output buffer")]
    fn segmented_select_rejects_mismatched_output() {
        let g = gpu();
        let s = g.stream("compute");
        let input = s.htod_async(&[1u64, 2, 3]).unwrap();
        let mut out = g.alloc::<u64>(3).unwrap();
        transform_select_on(&s, &input, &[0, 3], &[0, 2], 1, &mut out, |_, x| x, |k| k);
    }

    /// Sort-then-truncate oracle for one segment.
    fn sorted_prefix(seg: &[u64], k: usize) -> Vec<u64> {
        select_oracle(seg, &[0, seg.len() as u64], k)
    }

    #[test]
    fn select_smallest_matches_full_sort() {
        let mut rng = StdRng::seed_from_u64(7);
        for s in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 5, 50, 500] {
                let vals: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                let mut top = vec![0u64; s.min(n)];
                select_smallest_into(&vals, &mut top, |x| x);
                assert_eq!(top, sorted_prefix(&vals, s), "s={s}, n={n}");
            }
        }
    }

    #[test]
    fn select_smallest_fills_exactly_the_window() {
        // A window as long as the segment returns it whole and sorted; a
        // shorter one keeps the smallest.
        let mut w = [0u64; 3];
        select_smallest_into(&[5u64, 2, 9], &mut w, |x| x);
        assert_eq!(w, [2, 5, 9]);
        select_smallest_into(&[5u64, 2, 9, 1], &mut w, |x| x);
        assert_eq!(w, [1, 2, 5]);
    }

    #[test]
    fn select_smallest_reuses_its_window() {
        // Nothing of an earlier selection leaks into the next one.
        let mut w = [0u64; 2];
        select_smallest_into(&[3u64, 1], &mut w, |x| x);
        assert_eq!(w, [1, 3]);
        select_smallest_into(&[10u64, 20, 30], &mut w, |x| x);
        assert_eq!(w, [10, 20]);
        select_smallest_into(&[10u64], &mut w[..1], |x| x);
        assert_eq!(w[..1], [10]);
        select_smallest_into(&[] as &[u64], &mut w[..0], |x| x);
    }

    #[test]
    #[should_panic(expected = "exceeds segment length")]
    fn select_smallest_rejects_a_window_longer_than_the_segment() {
        select_smallest_into(&[1u64], &mut [0u64; 2], |x| x);
    }

    /// The two-register `k = 2` path keeps what the generic buffer and
    /// the sort-then-truncate oracle keep: on two-element segments,
    /// all-equal keys, and duplicate-heavy segments.
    #[test]
    fn select_two_registers_match_generic_and_oracle() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut segs: Vec<Vec<u64>> = vec![
            vec![4, 4],
            vec![9, 1],
            vec![1, 9],
            vec![7; 2],
            vec![7; 50],
            vec![3, 3, 1, 1, 2, 2],
            vec![u64::MAX, 0, u64::MAX, 0],
        ];
        for _ in 0..500 {
            let len = rng.gen_range(2..40);
            let range = rng.gen_range(1..6u64);
            segs.push((0..len).map(|_| rng.gen_range(0..range)).collect());
        }
        for seg in &segs {
            let mut two = [0u64; 2];
            select_smallest_into(seg, &mut two, |x| x);
            assert_eq!(two.to_vec(), sorted_prefix(seg, 2), "{seg:?}");
            let mut generic = [0u64; 2];
            insertion_select(seg.iter().copied(), &mut generic);
            assert_eq!(two, generic, "{seg:?}");
        }
    }

    /// The fused kernel's task grid: a hub segment splits its trials
    /// across tasks, small segments group under one task per trial
    /// range, and no task is larger than `max(segment, BLOCK_ELEMS)`
    /// element-trials.
    #[test]
    fn select_grid_bounds_every_task() {
        let check = |offsets: &[u64], trials: usize| -> Vec<SelectTask> {
            let grid = select_grid(offsets, trials);
            // The grid covers every (segment, trial) cell exactly once.
            let n_segs = offsets.len() - 1;
            let mut cells = vec![0u32; n_segs * trials];
            for task in &grid {
                let elems = (offsets[task.segs.end] - offsets[task.segs.start]) as usize;
                let longest = task
                    .segs
                    .clone()
                    .map(|i| (offsets[i + 1] - offsets[i]) as usize)
                    .max()
                    .unwrap();
                assert!(
                    elems * task.trials.len() <= longest.max(BLOCK_ELEMS),
                    "{task:?}: {elems} elems × {} trials",
                    task.trials.len()
                );
                for seg in task.segs.clone() {
                    for t in task.trials.clone() {
                        cells[seg * trials + t] += 1;
                    }
                }
            }
            assert!(cells.iter().all(|&c| c == 1), "grid must tile the cells");
            grid
        };
        // One 200K-element hub segment, 5 trials: at least one task each.
        let grid = check(&[0, 200_000], 5);
        assert!(grid.len() >= 5, "{grid:?}");
        // A hub beside small segments.
        check(&[0, 3, 100_000, 120_000, 120_001, 150_000], 5);
        // Many small segments, 20 trials: every task ≤ BLOCK_ELEMS.
        let mut rng = StdRng::seed_from_u64(28);
        let mut offsets = vec![0u64];
        for _ in 0..50_000 {
            offsets.push(offsets.last().unwrap() + rng.gen_range(0..19u64));
        }
        let grid = check(&offsets, 20);
        assert!(grid.len() > 1);
        for task in &grid {
            let elems = (offsets[task.segs.end] - offsets[task.segs.start]) as usize;
            assert!(elems * task.trials.len() <= BLOCK_ELEMS, "{task:?}");
        }
        // Degenerate shapes.
        assert!(select_grid(&[0], 4).is_empty());
        assert!(select_grid(&[0, 5], 0).is_empty());
        check(&[0, 0, 0], 3);
    }

    #[test]
    fn select_cost_model_beats_sort_path() {
        // The whole point of the fused kernel: per element it must be
        // modeled far cheaper than transform + segmented sort + gather.
        let g = gpu();
        let n = 10_000_000usize;
        let sort_path = g.model_kernel_seconds(n, &KernelCost::transform())
            + g.model_kernel_seconds(n, &KernelCost::segmented_sort())
            + g.model_kernel_seconds(n / 10, &KernelCost::gather());
        let select_path = g.model_kernel_seconds(n, &KernelCost::segmented_select());
        assert!(
            select_path * 3.0 < sort_path,
            "fused select {select_path} not ≪ sort path {sort_path}"
        );
    }

    #[test]
    fn kernels_charge_device_time_to_the_stream() {
        let g = gpu();
        let s = g.stream("compute");
        let input = s.htod_async(&vec![1u64; 500_000]).unwrap();
        let mut buf = g.alloc::<u64>(input.len()).unwrap();
        g.reset_counters();
        let before = s.completed_seconds();
        transform_on(&s, &input, &mut buf, |x| x ^ 0xff);
        segmented_sort_on(&s, &mut buf, &[0, 500_000]);
        let snap = g.counters();
        assert_eq!(snap.kernel_launches, 2);
        assert!(snap.kernel_seconds > 0.0);
        assert!((s.completed_seconds() - before - snap.kernel_seconds).abs() < 1e-6);
    }
}
