//! Internal device-pass helpers shared by the [`crate::exec`] executor.
//!
//! This module used to enumerate the schedule cross-product as ~13
//! public `gpu_shingle_pass*` entry points; those collapsed into the
//! single [`crate::exec::Executor::run`] interpreter over a
//! [`crate::plan::PassPlan`]. What remains here is the trial-invariant
//! batch arithmetic both executor loop bodies compose:
//!
//! * [`BatchPlan`]/[`plan_batch`] — one batch's segment offsets, fragment
//!   flags, selection and output layouts, and task groups, computed once
//!   and reused across trials. Interior segments shorter than `s` are
//!   skipped (they can never yield a shingle); boundary segments are kept
//!   regardless, because they may be fragments of lists split across
//!   batches (possibly across devices). A batch planned for marks
//!   reduces its complete segments to one selected-position mark per
//!   element, and only its boundary segments write element ids.
//! * [`compaction_tasks`] — step 2c of Algorithm 1: write the element
//!   ids of each written segment's sorted prefix into the dense output
//!   buffer, and mark the positions of each marked segment's prefix.
//! * [`host_trial_out`] / [`host_trial_marks`] — the degradation path:
//!   one `(batch, trial)` on the CPU, producing **exactly the bytes** the
//!   device pipeline's D2H would have delivered, so records and marks
//!   stay bit-identical under faults.
//!
//! Both kernels download 4-byte element ids in hash order, not the packed
//! `(hash, element)` pairs they select by: the host reads only the
//! elements of a complete record, and re-derives the hashes of the
//! boundary fragments it merges from the trial's `<A, B>`.

// The refactor deletes superseded entry points rather than deprecating
// them; anything unreferenced in here is a bug.
#![deny(dead_code)]

use crate::batch::Batch;
use crate::minwise::{hash_with, pack, unpack_element};
use gpclust_gpu::thrust::{select_positions_into, select_smallest_into};
use std::ops::Range;

/// Trial-invariant shape of one batch, computed once up front: segment
/// offsets, fragment flags, selection and output layouts and task groups.
pub(crate) struct BatchPlan {
    pub(crate) local_offsets: Vec<u64>,
    pub(crate) nodes: Vec<u32>,
    pub(crate) first_frag: bool,
    pub(crate) last_frag: bool,
    /// Planned for marks: the executor reduces the complete segments'
    /// selections to marks ([`BatchPlan::marked`]).
    pub(crate) marks: bool,
    /// Per-segment selection offsets (`n_segs + 1` values): how many of
    /// each segment's elements a trial selects.
    pub(crate) sel_offsets: Vec<usize>,
    /// The complete segments whose selections reduce to marks — every
    /// segment but the boundary fragments in a batch planned for marks,
    /// none otherwise.
    pub(crate) marked: Range<usize>,
    /// Per-segment output slot offsets (`n_segs + 1` values): the
    /// selections of the segments outside `marked`, which a trial writes
    /// as element ids.
    pub(crate) out_offsets: Vec<usize>,
    pub(crate) out_total: usize,
    /// Segments that write at least one element id.
    pub(crate) emit_segs: Vec<u32>,
    /// Compaction task groups: contiguous segment ranges covering
    /// ~`GROUP_OUT` selected elements each.
    pub(crate) groups: Vec<(usize, usize)>,
}

impl BatchPlan {
    /// Elements one trial selects over the whole batch.
    pub(crate) fn sel_total(&self) -> usize {
        self.sel_offsets[self.nodes.len()]
    }
}

/// Output elements per compaction task (one thread-block-batch per group,
/// not per segment).
const GROUP_OUT: usize = 64 * 1024;

/// Plan `batch` for top-`s` selections; with `marks`, its complete
/// segments reduce to selected-position marks.
pub(crate) fn plan_batch(batch: &Batch, offsets: &[u64], s: usize, marks: bool) -> BatchPlan {
    let (local_offsets, nodes) = batch.segments(offsets);
    // Loop-invariant fragment flags, computed once per batch (not per
    // segment): which segments can contribute — interior segments need
    // ≥ s elements; the first/last segment may be a fragment and is always
    // kept (its |list| may exceed s globally).
    let first_frag = batch.first_is_fragment(offsets);
    let last_frag = batch.last_is_fragment(offsets);
    let n_segs = nodes.len();
    let marked = match marks {
        true => {
            let lo = usize::from(first_frag);
            lo..n_segs.saturating_sub(usize::from(last_frag)).max(lo)
        }
        false => 0..0,
    };
    let mut sel_offsets = Vec::with_capacity(n_segs + 1);
    let mut out_offsets = Vec::with_capacity(n_segs + 1);
    sel_offsets.push(0usize);
    out_offsets.push(0usize);
    for i in 0..n_segs {
        let len = (local_offsets[i + 1] - local_offsets[i]) as usize;
        let boundary = (i == 0 && first_frag) || (i == n_segs - 1 && last_frag);
        let k = if boundary || len >= s { len.min(s) } else { 0 };
        sel_offsets.push(sel_offsets[i] + k);
        out_offsets.push(out_offsets[i] + if marked.contains(&i) { 0 } else { k });
    }
    let out_total = out_offsets[n_segs];
    let emit_segs: Vec<u32> = (0..n_segs)
        .filter(|&i| out_offsets[i + 1] > out_offsets[i])
        .map(|i| i as u32)
        .collect();
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < n_segs {
        let start_sel = sel_offsets[i];
        let mut j = i + 1;
        while j < n_segs && sel_offsets[j + 1] - start_sel < GROUP_OUT {
            j += 1;
        }
        groups.push((i, j));
        i = j;
    }
    BatchPlan {
        local_offsets,
        nodes,
        first_frag,
        last_frag,
        marks,
        sel_offsets,
        marked,
        out_offsets,
        out_total,
        emit_segs,
        groups,
    }
}

/// Build the compaction tasks (one per plan group) over the sorted packed
/// pairs `src` of one trial: write the element ids of the top `k` pairs
/// of each written segment into the dense `dst`, and set `marks` (one
/// byte per batch element) at the position in `elems` of each marked
/// segment's top `k` elements. Marks are ORed in, so one buffer
/// collects every trial of a batch; a batch without marked segments
/// takes an empty `marks`.
pub(crate) fn compaction_tasks<'a>(
    plan: &'a BatchPlan,
    src: &'a [u64],
    dst: &'a mut [u32],
    elems: &'a [u32],
    marks: &'a mut [u8],
) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::with_capacity(plan.groups.len());
    let mut rest = dst;
    let mut marks_rest = marks;
    for &(i, j) in &plan.groups {
        let start_out = plan.out_offsets[i];
        let (head, tail) = rest.split_at_mut(plan.out_offsets[j] - start_out);
        rest = tail;
        let local_offsets = &plan.local_offsets;
        let start_elem = local_offsets[i] as usize;
        let mark_len = match plan.marked.is_empty() {
            true => 0,
            false => local_offsets[j] as usize - start_elem,
        };
        let (group_marks, tail) = std::mem::take(&mut marks_rest).split_at_mut(mark_len);
        marks_rest = tail;
        tasks.push(Box::new(move || {
            for seg in i..j {
                let k = plan.sel_offsets[seg + 1] - plan.sel_offsets[seg];
                if k == 0 {
                    continue;
                }
                let (seg_lo, seg_hi) =
                    (local_offsets[seg] as usize, local_offsets[seg + 1] as usize);
                let top = &src[seg_lo..seg_lo + k];
                if plan.marked.contains(&seg) {
                    // A member list is strictly ascending, so an element
                    // has one position.
                    let list = &elems[seg_lo..seg_hi];
                    let seg_marks = &mut group_marks[seg_lo - start_elem..];
                    for &p in top {
                        let pos = list
                            .binary_search(&unpack_element(p))
                            .expect("a selected element is in its list");
                        seg_marks[pos] = 1;
                    }
                } else {
                    let out = &mut head
                        [plan.out_offsets[seg] - start_out..plan.out_offsets[seg + 1] - start_out];
                    for (slot, &p) in out.iter_mut().zip(top) {
                        *slot = unpack_element(p);
                    }
                }
            }
        }));
    }
    tasks
}

/// Host execution of one `(batch, trial)`: the degradation path a batch
/// falls back to when its device retries are exhausted. Produces **exactly
/// the bytes** the device pipeline's D2H would have delivered — per
/// written segment, the element ids of the `k` smallest packed
/// `(h_i(v) << 32) | v` keys in ascending order (the sorted prefix
/// `SortCompact` compacts, selected by the primitive `FusedSelect` runs)
/// — so every record downstream is bit-identical to a fault-free run.
pub(crate) fn host_trial_out(plan: &BatchPlan, elems: &[u32], a: u64, b: u64) -> Vec<u32> {
    let mut out = vec![0u32; plan.out_total];
    let mut keys = Vec::new();
    for i in 0..plan.nodes.len() {
        let k = plan.out_offsets[i + 1] - plan.out_offsets[i];
        if k == 0 {
            continue;
        }
        let seg = &elems[plan.local_offsets[i] as usize..plan.local_offsets[i + 1] as usize];
        keys.resize(k, 0);
        select_smallest_into(seg, &mut keys, |v| pack(hash_with(a, b, v), v));
        for (slot, &p) in out[plan.out_offsets[i]..plan.out_offsets[i + 1]]
            .iter_mut()
            .zip(&keys)
        {
            *slot = unpack_element(p);
        }
    }
    out
}

/// The marks half of [`host_trial_out`]: set `marks` (one byte per batch
/// element) at the positions of each marked segment's `k` smallest
/// `(h_i(v), position)` keys — the bytes the device's mark kernels OR in
/// for this trial.
pub(crate) fn host_trial_marks(plan: &BatchPlan, elems: &[u32], a: u64, b: u64, marks: &mut [u8]) {
    let mut keys = Vec::new();
    for i in plan.marked.clone() {
        let k = plan.sel_offsets[i + 1] - plan.sel_offsets[i];
        if k == 0 {
            continue;
        }
        let (lo, hi) = (
            plan.local_offsets[i] as usize,
            plan.local_offsets[i + 1] as usize,
        );
        keys.resize(k, 0);
        select_positions_into(&elems[lo..hi], &mut keys, |v| hash_with(a, b, v));
        for &key in &keys {
            marks[lo + key as u32 as usize] = 1;
        }
    }
}
