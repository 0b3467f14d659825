//! Thrust-like data-parallel kernels, each issued on a [`Stream`].
//!
//! The paper implements its GPU shingling with the Thrust template library,
//! naming two workhorses: `thrust::transform` (the per-element min-wise
//! hash) and sorting (the segmented sort that orders each permuted
//! adjacency list). This module provides those two kernels over
//! [`DeviceBuffer`]s, plus the fused hash + segmented top-s selection
//! ([`transform_select_on`]) that replaces the transform → segmented sort
//! → compaction chain in one launch. Each launch executes in parallel on
//! the SM pool and charges modeled device time via its [`KernelCost`] to
//! the stream's cursor.
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

/// Build the per-block tasks of a segmented sort.
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
    // Partition segments into contiguous groups of ~BLOCK_ELEMS elements so
    // tasks are balanced even when segment sizes are heavily skewed. Tasks
    // borrow their offset windows — no per-task allocation (this runs once
    // per random trial, over millions of segments at scale).
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::new();
    let mut rest = buf.device_slice_mut();
    let mut consumed = 0usize;
    let mut seg_lo = 0usize;
    while seg_lo + 1 < seg_offsets.len() {
        let mut seg_hi = seg_lo + 1;
        while seg_hi + 1 < seg_offsets.len()
            && (seg_offsets[seg_hi] - seg_offsets[seg_lo]) < BLOCK_ELEMS as u64
        {
            seg_hi += 1;
        }
        let start = seg_offsets[seg_lo] as usize;
        let end = seg_offsets[seg_hi] as usize;
        let (head, tail) = rest.split_at_mut(end - consumed);
        rest = tail;
        let window = &seg_offsets[seg_lo..=seg_hi];
        debug_assert_eq!(consumed, start);
        consumed = end;
        tasks.push(Box::new(move || {
            for w in window.windows(2) {
                head[w[0] as usize - start..w[1] as usize - start].sort_unstable();
            }
        }));
        seg_lo = seg_hi;
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

/// Write the `w.len()` smallest mapped values of `seg`, ascending, into
/// `w`. An insertion-sorted k-buffer — the paper's own top-s approach
/// ("the small values of s expected to be used in practice, typically
/// under 10, justify a simple insertion sort-based approach"), here run
/// per segment inside the kernel instead of after a full sort. For values
/// that tie, the result is the same multiset the sort-then-truncate oracle
/// keeps, so outputs are bit-identical to sorting and taking the prefix.
fn select_smallest_into<T: Pod, U: Pod + Ord, F>(seg: &[T], w: &mut [U], f: &F)
where
    F: Fn(T) -> U,
{
    let k = w.len();
    if k == 0 {
        return;
    }
    let mut filled = 0usize;
    for &x in seg {
        let v = f(x);
        if filled < k {
            let mut i = filled;
            while i > 0 && w[i - 1] > v {
                w[i] = w[i - 1];
                i -= 1;
            }
            w[i] = v;
            filled += 1;
        } else if v < w[k - 1] {
            let mut i = k - 1;
            while i > 0 && w[i - 1] > v {
                w[i] = w[i - 1];
                i -= 1;
            }
            w[i] = v;
        }
    }
    debug_assert_eq!(filled, k, "selection count exceeds segment length");
}

/// Build the per-block tasks of a fused transform + segmented top-k
/// selection. Segments are grouped into contiguous
/// ~[`BLOCK_ELEMS`]-input-element tasks, exactly like
/// [`segmented_sort_on`], so skewed segment sizes stay balanced; each task
/// borrows a disjoint window of the dense output.
fn transform_select_tasks<'a, T: Pod, U: Pod + Ord, F>(
    input: &'a DeviceBuffer<T>,
    seg_offsets: &'a [u64],
    out_offsets: &'a [usize],
    out: &'a mut DeviceBuffer<U>,
    f: &'a F,
) -> Vec<Box<dyn FnOnce() + Send + 'a>>
where
    F: Fn(T) -> U + Sync,
{
    assert!(!seg_offsets.is_empty(), "offsets must contain at least [0]");
    assert_eq!(
        *seg_offsets.last().unwrap() as usize,
        input.len(),
        "offsets must cover the buffer"
    );
    assert_eq!(
        out_offsets.len(),
        seg_offsets.len(),
        "one output offset per segment boundary"
    );
    assert_eq!(
        *out_offsets.last().unwrap(),
        out.len(),
        "output offsets must cover the output buffer"
    );
    for (i, (s, o)) in seg_offsets
        .windows(2)
        .zip(out_offsets.windows(2))
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
    let src = input.device_slice();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::new();
    let mut rest = out.device_slice_mut();
    let mut consumed_out = 0usize;
    let mut seg_lo = 0usize;
    while seg_lo + 1 < seg_offsets.len() {
        let mut seg_hi = seg_lo + 1;
        while seg_hi + 1 < seg_offsets.len()
            && (seg_offsets[seg_hi] - seg_offsets[seg_lo]) < BLOCK_ELEMS as u64
        {
            seg_hi += 1;
        }
        let out_start = out_offsets[seg_lo];
        let (head, tail) = rest.split_at_mut(out_offsets[seg_hi] - consumed_out);
        rest = tail;
        debug_assert_eq!(consumed_out, out_start);
        consumed_out = out_offsets[seg_hi];
        let seg_window = &seg_offsets[seg_lo..=seg_hi];
        let out_window = &out_offsets[seg_lo..=seg_hi];
        tasks.push(Box::new(move || {
            for i in 0..seg_window.len() - 1 {
                let seg = &src[seg_window[i] as usize..seg_window[i + 1] as usize];
                let w = &mut head[out_window[i] - out_start..out_window[i + 1] - out_start];
                select_smallest_into(seg, w, f);
            }
        }));
        seg_lo = seg_hi;
    }
    tasks
}

/// Fused elementwise map + segmented top-k selection in **one kernel
/// pass**: for each segment `i` of `input` (delimited by `seg_offsets`),
/// write the `out_offsets[i+1] - out_offsets[i]` smallest values of
/// `f(element)`, ascending, into the dense `out`. Replaces the
/// transform → segmented-sort → compaction trio of the shingling hot path
/// with a single `O(d)`-per-segment launch, and never materializes the
/// mapped values of non-selected elements — there is no full-width packed
/// workspace.
///
/// Per-segment selection counts may be any value `≤` the segment length
/// (zero skips the segment entirely).
///
/// # Panics
/// Panics if the offsets don't cover the buffers or a selection count
/// exceeds its segment length.
pub fn transform_select_on<T: Pod, U: Pod + Ord, F>(
    stream: &Stream,
    input: &DeviceBuffer<T>,
    seg_offsets: &[u64],
    out_offsets: &[usize],
    out: &mut DeviceBuffer<U>,
    f: F,
) where
    F: Fn(T) -> U + Sync,
{
    let n = input.len();
    let tasks = transform_select_tasks(input, seg_offsets, out_offsets, out, &f);
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
        transform_select_on(&s, &input, offsets, out_offsets, &mut out, f);
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
        transform_select_on(&s, &input, &[0, 3], &[0, 2], &mut out, |x| x);
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
