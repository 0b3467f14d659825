//! Internal device-pass helpers shared by the [`crate::exec`] executor.
//!
//! This module used to enumerate the schedule cross-product as ~13
//! public `gpu_shingle_pass*` entry points; those collapsed into the
//! single [`crate::exec::Executor::run`] interpreter over a
//! [`crate::plan::PassPlan`]. What remains here is the trial-invariant
//! batch arithmetic both executor loop bodies compose:
//!
//! * [`BatchPlan`]/[`plan_batch`] — one batch's segment offsets, fragment
//!   flags, compaction output layout, and task groups, computed once and
//!   reused across trials. Interior segments shorter than `s` are skipped
//!   (they can never yield a shingle); boundary segments are kept
//!   regardless, because they may be fragments of lists split across
//!   batches (possibly across devices).
//! * [`compaction_tasks`] — step 2c of Algorithm 1: write the element
//!   ids of each kept segment's sorted prefix into the dense output
//!   buffer.
//! * [`host_trial_out`] — the degradation path: one `(batch, trial)` on
//!   the CPU, producing **exactly the bytes** the device pipeline's D2H
//!   would have delivered, so records stay bit-identical under faults.
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
use gpclust_gpu::thrust::select_smallest_into;

/// Trial-invariant shape of one batch, computed once up front: segment
/// offsets, fragment flags, compaction output layout and task groups.
pub(crate) struct BatchPlan {
    pub(crate) local_offsets: Vec<u64>,
    pub(crate) nodes: Vec<u32>,
    pub(crate) first_frag: bool,
    pub(crate) last_frag: bool,
    /// Per-segment output slot offsets (`n_segs + 1` values).
    pub(crate) out_offsets: Vec<usize>,
    pub(crate) out_total: usize,
    /// Segments that emit at least one pair.
    pub(crate) emit_segs: Vec<u32>,
    /// Compaction task groups: contiguous segment ranges covering
    /// ~`GROUP_OUT` output elements each.
    pub(crate) groups: Vec<(usize, usize)>,
}

/// Output elements per compaction task (one thread-block-batch per group,
/// not per segment).
const GROUP_OUT: usize = 64 * 1024;

pub(crate) fn plan_batch(batch: &Batch, offsets: &[u64], s: usize) -> BatchPlan {
    let (local_offsets, nodes) = batch.segments(offsets);
    // Loop-invariant fragment flags, computed once per batch (not per
    // segment): which segments can contribute — interior segments need
    // ≥ s elements; the first/last segment may be a fragment and is always
    // kept (its |list| may exceed s globally).
    let first_frag = batch.first_is_fragment(offsets);
    let last_frag = batch.last_is_fragment(offsets);
    let n_segs = nodes.len();
    let mut out_offsets = Vec::with_capacity(n_segs + 1);
    out_offsets.push(0usize);
    for i in 0..n_segs {
        let len = (local_offsets[i + 1] - local_offsets[i]) as usize;
        let boundary = (i == 0 && first_frag) || (i == n_segs - 1 && last_frag);
        let k = if boundary || len >= s { len.min(s) } else { 0 };
        out_offsets.push(out_offsets[i] + k);
    }
    let out_total = out_offsets[n_segs];
    let emit_segs: Vec<u32> = (0..n_segs)
        .filter(|&i| out_offsets[i + 1] > out_offsets[i])
        .map(|i| i as u32)
        .collect();
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < n_segs {
        let start_out = out_offsets[i];
        let mut j = i + 1;
        while j < n_segs && out_offsets[j + 1] - start_out < GROUP_OUT {
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
        out_offsets,
        out_total,
        emit_segs,
        groups,
    }
}

/// Build the compaction tasks writing the element ids of the top `k`
/// packed pairs of each kept segment of `src` into the dense `dst` (one
/// task per plan group).
pub(crate) fn compaction_tasks<'a>(
    plan: &'a BatchPlan,
    src: &'a [u64],
    dst: &'a mut [u32],
) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
    let mut tasks: Vec<Box<dyn FnOnce() + Send + 'a>> = Vec::with_capacity(plan.groups.len());
    let mut rest = dst;
    for &(i, j) in &plan.groups {
        let start_out = plan.out_offsets[i];
        let group_k = plan.out_offsets[j] - start_out;
        let (head, tail) = rest.split_at_mut(group_k);
        rest = tail;
        let out_offsets = &plan.out_offsets;
        let local_offsets = &plan.local_offsets;
        tasks.push(Box::new(move || {
            for seg in i..j {
                let k = out_offsets[seg + 1] - out_offsets[seg];
                if k == 0 {
                    continue;
                }
                let seg_lo = local_offsets[seg] as usize;
                let out = &mut head[out_offsets[seg] - start_out..out_offsets[seg + 1] - start_out];
                for (slot, &p) in out.iter_mut().zip(&src[seg_lo..seg_lo + k]) {
                    *slot = unpack_element(p);
                }
            }
        }));
    }
    tasks
}

/// Host execution of one `(batch, trial)`: the degradation path a batch
/// falls back to when its device retries are exhausted. Produces **exactly
/// the bytes** the device pipeline's D2H would have delivered — per kept
/// segment, the element ids of the `k` smallest packed
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
