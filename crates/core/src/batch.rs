//! Partitioning adjacency lists into device-memory-sized batches.
//!
//! "In order to process the large-scale input graph on the relative small
//! device memory, the input graph for the first and second level shingling
//! can be partitioned into batches of adjacency lists, and subsequently
//! moved to the device memory batch by batch." A batch is a contiguous
//! *element* range of the concatenated adjacency array; a list that spans a
//! batch boundary is split, and the CPU aggregation later merges its
//! fragments (see [`crate::aggregate`]).

use crate::params::ShingleKernel;

/// One batch: an element range of the flat adjacency array plus the range
/// of node (list) indices that intersect it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// First node whose list intersects the element range.
    pub node_lo: usize,
    /// One past the last intersecting node.
    pub node_hi: usize,
    /// First element (inclusive) in the flat array.
    pub elem_lo: u64,
    /// Last element (exclusive).
    pub elem_hi: u64,
}

impl Batch {
    /// Elements in this batch.
    pub fn n_elements(&self) -> usize {
        (self.elem_hi - self.elem_lo) as usize
    }

    /// Whether the first list in the batch is a continuation of a list
    /// started in an earlier batch.
    pub fn first_is_fragment(&self, offsets: &[u64]) -> bool {
        offsets[self.node_lo] < self.elem_lo
    }

    /// Whether the last list in the batch continues into the next batch.
    pub fn last_is_fragment(&self, offsets: &[u64]) -> bool {
        offsets[self.node_hi] > self.elem_hi
    }

    /// Per-segment local offsets (into the batch's element range) and the
    /// node index of each segment. Empty lists inside the range are skipped.
    pub fn segments(&self, offsets: &[u64]) -> (Vec<u64>, Vec<u32>) {
        let mut local = vec![0u64];
        let mut nodes = Vec::new();
        for node in self.node_lo..self.node_hi {
            let lo = offsets[node].max(self.elem_lo);
            let hi = offsets[node + 1].min(self.elem_hi);
            if hi > lo {
                nodes.push(node as u32);
                local.push(hi - self.elem_lo);
            }
        }
        (local, nodes)
    }
}

/// Plan batches of at most `max_elems` elements each over lists delimited
/// by `offsets` (`n + 1` monotone values).
///
/// # Panics
/// Panics if `max_elems == 0`.
pub fn plan_batches(offsets: &[u64], max_elems: usize) -> Vec<Batch> {
    assert!(max_elems > 0, "batch capacity must be positive");
    let total = *offsets.last().expect("offsets non-empty");
    let n = offsets.len() - 1;
    if total == 0 {
        return Vec::new();
    }
    let mut batches = Vec::new();
    let mut elem_lo = 0u64;
    let mut node_cursor = 0usize;
    while elem_lo < total {
        let elem_hi = (elem_lo + max_elems as u64).min(total);
        // Advance to the first list intersecting [elem_lo, ..).
        while node_cursor < n && offsets[node_cursor + 1] <= elem_lo {
            node_cursor += 1;
        }
        let node_lo = node_cursor;
        let mut node_hi = node_lo;
        while node_hi < n && offsets[node_hi] < elem_hi {
            node_hi += 1;
        }
        batches.push(Batch {
            node_lo,
            node_hi,
            elem_lo,
            elem_hi,
        });
        elem_lo = elem_hi;
    }
    batches
}

/// Plan batches of at most `max_elems` elements over the element range
/// `[elem_lo, elem_hi)` only — the mid-pass re-planning primitive: when a
/// device loss changes the fleet's capacity, the remaining (contiguous)
/// element range is re-batched at the survivors' budget while completed
/// batches stay committed. Fragment reconciliation is insensitive to
/// batch boundaries, so the re-cut range composes with the old batches.
///
/// # Panics
/// Panics if `max_elems == 0`, the range is inverted, or `elem_hi`
/// exceeds the total element count.
pub fn plan_batches_range(
    offsets: &[u64],
    elem_lo: u64,
    elem_hi: u64,
    max_elems: usize,
) -> Vec<Batch> {
    assert!(max_elems > 0, "batch capacity must be positive");
    let total = *offsets.last().expect("offsets non-empty");
    assert!(
        elem_lo <= elem_hi && elem_hi <= total,
        "invalid element range [{elem_lo}, {elem_hi}) of {total}"
    );
    let n = offsets.len() - 1;
    let mut batches = Vec::new();
    let mut lo = elem_lo;
    // First list intersecting [elem_lo, ..).
    let mut node_cursor = offsets.partition_point(|&o| o <= elem_lo).saturating_sub(1);
    while lo < elem_hi {
        let hi = (lo + max_elems as u64).min(elem_hi);
        while node_cursor < n && offsets[node_cursor + 1] <= lo {
            node_cursor += 1;
        }
        let node_lo = node_cursor;
        let mut node_hi = node_lo;
        while node_hi < n && offsets[node_hi] < hi {
            node_hi += 1;
        }
        batches.push(Batch {
            node_lo,
            node_hi,
            elem_lo: lo,
            elem_hi: hi,
        });
        lo = hi;
    }
    batches
}

/// Bytes one kernel output slot occupies, on the device and on the bus:
/// both kernels select by the packed `(hash, element)` key but write and
/// download only the 4-byte element id. The host re-derives the hashes
/// of the few boundary fragments that need them.
pub const OUT_ELEM_BYTES: usize = std::mem::size_of::<u32>();

/// Bytes per batch element reserved for what the kernel writes:
/// [`ShingleKernel::SortCompact`]'s packed `(hash, vertex)` workspace for
/// the segmented sort, or the trial group [`ShingleKernel::FusedSelect`]
/// writes in one launch, which [`trial_group`] bounds to this slot. A
/// Pass II batch reduced to marks writes 1 byte per element; under the
/// sort kernel that byte sits beside the workspace, inside [`HEADROOM`].
const KERNEL_SLOT_BYTES: usize = 8;

/// Device-memory footprint of one batch element, the same under both
/// kernels: a `u32` input slot, a second `u32` staging slot so the stream
/// pair can upload the *next* batch while the current one computes
/// (double buffering), and the 8-byte kernel slot — the sort's packed
/// workspace, or a fused trial group of `8 / OUT_ELEM_BYTES = 2` output
/// slots per batch element: `4 + 4 + 8 = 16` bytes.
pub const BYTES_PER_ELEM: usize = 4 + 4 + KERNEL_SLOT_BYTES;

/// Fraction of the available bytes the per-element planner may claim.
///
/// The remainder covers [`ShingleKernel::SortCompact`]'s per-trial top-s
/// output buffer (at most `s` of every list's elements, so bounded and
/// small next to the batch) plus stream events and allocator slack. If an
/// adversarial graph of near-empty lists blows past the reserve anyway,
/// the device pass's OOM-retry (drop the staged buffer and re-plan) is
/// the backstop; the headroom just keeps that path cold.
pub const HEADROOM: f64 = 0.8;

/// Batch capacity (elements) for a device with `available_bytes` free
/// at [`BYTES_PER_ELEM`] per element.
pub fn batch_capacity(available_bytes: usize) -> usize {
    (((available_bytes as f64) * HEADROOM) as usize / BYTES_PER_ELEM).max(1)
}

/// Trials one launch of `kernel` runs on a batch of `n_elems` elements
/// whose top-s output holds `out_elems` slots per trial.
///
/// [`ShingleKernel::SortCompact`] sorts one trial's packed workspace at a
/// time, so its group is one trial. [`ShingleKernel::FusedSelect`] runs
/// as many trials per launch as the kernel slot holds outputs:
/// `g = clamp(n_elems · 8 / (OUT_ELEM_BYTES · out_elems), 1, trials)`,
/// which is `clamp(2 · n_elems / out_elems, 1, trials)` for 4-byte
/// outputs. The group's output, `g · out_elems` slots, then fits the 8
/// bytes per batch element that [`BYTES_PER_ELEM`] reserves, and the
/// batch pays the fixed launch and copy costs `⌈trials / g⌉` times
/// instead of `trials` times.
pub fn trial_group(
    kernel: ShingleKernel,
    n_elems: usize,
    out_elems: usize,
    trials: usize,
) -> usize {
    match kernel {
        ShingleKernel::SortCompact => 1,
        ShingleKernel::FusedSelect => (n_elems * KERNEL_SLOT_BYTES
            / (OUT_ELEM_BYTES * out_elems.max(1)))
        .clamp(1, trials.max(1)),
    }
}

/// Visibility record for a device pass's batch plan: how the capacity
/// model split the work, so memory-driven splits are never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of batches the pass was split into.
    pub n_batches: u64,
    /// Elements in the largest batch.
    pub max_batch_elems: u64,
    /// Planned per-batch element capacity ([`batch_capacity`]).
    pub capacity_elems: u64,
    /// Device bytes per element the capacity was planned at
    /// ([`BYTES_PER_ELEM`]).
    pub elem_footprint_bytes: u64,
}

impl BatchStats {
    /// Stats for a plan produced with the given capacity.
    pub fn from_plan(batches: &[Batch], capacity: usize) -> Self {
        BatchStats {
            n_batches: batches.len() as u64,
            max_batch_elems: batches
                .iter()
                .map(|b| b.n_elements() as u64)
                .max()
                .unwrap_or(0),
            capacity_elems: capacity as u64,
            elem_footprint_bytes: BYTES_PER_ELEM as u64,
        }
    }

    /// Worst-case device bytes the plan's largest batch occupies in
    /// per-element buffers.
    pub fn max_batch_footprint_bytes(&self) -> u64 {
        self.max_batch_elems * self.elem_footprint_bytes
    }

    /// Merge stats from another pass run with the same plan parameters
    /// (used by multi-GPU, where devices each run a subset of batches).
    pub fn merge(&mut self, other: &BatchStats) {
        self.n_batches += other.n_batches;
        self.max_batch_elems = self.max_batch_elems.max(other.max_batch_elems);
        self.capacity_elems = self.capacity_elems.max(other.capacity_elems);
        self.elem_footprint_bytes = self.elem_footprint_bytes.max(other.elem_footprint_bytes);
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} batch(es), max {} elems (cap {} elems @ {} B/elem, peak {} B)",
            self.n_batches,
            self.max_batch_elems,
            self.capacity_elems,
            self.elem_footprint_bytes,
            self.max_batch_footprint_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Lists: [0..3), [3..3) empty, [3..8), [8..10)
    const OFFSETS: [u64; 5] = [0, 3, 3, 8, 10];

    #[test]
    fn single_batch_when_capacity_suffices() {
        let b = plan_batches(&OFFSETS, 100);
        assert_eq!(b.len(), 1);
        assert_eq!(
            b[0],
            Batch {
                node_lo: 0,
                node_hi: 4,
                elem_lo: 0,
                elem_hi: 10
            }
        );
        assert!(!b[0].first_is_fragment(&OFFSETS));
        assert!(!b[0].last_is_fragment(&OFFSETS));
    }

    #[test]
    fn batches_cover_all_elements_disjointly() {
        for cap in [1usize, 2, 3, 4, 7, 10, 50] {
            let bs = plan_batches(&OFFSETS, cap);
            let mut cursor = 0u64;
            for b in &bs {
                assert_eq!(b.elem_lo, cursor, "cap {cap}");
                assert!(b.n_elements() <= cap);
                assert!(b.n_elements() > 0);
                cursor = b.elem_hi;
            }
            assert_eq!(cursor, 10);
        }
    }

    #[test]
    fn split_list_flagged_as_fragment() {
        // Capacity 4: batch0 = [0,4) → splits list 2 ([3..8)).
        let bs = plan_batches(&OFFSETS, 4);
        assert!(bs[0].last_is_fragment(&OFFSETS));
        assert!(bs[1].first_is_fragment(&OFFSETS));
    }

    #[test]
    fn segments_are_clamped_intersections() {
        let bs = plan_batches(&OFFSETS, 4);
        // Batch 0: elements [0,4): list 0 fully (0..3), list 2 partially (3..4).
        let (local, nodes) = bs[0].segments(&OFFSETS);
        assert_eq!(nodes, vec![0, 2]); // empty list 1 skipped
        assert_eq!(local, vec![0, 3, 4]);
        // Batch 1: elements [4,8): remainder of list 2.
        let (local, nodes) = bs[1].segments(&OFFSETS);
        assert_eq!(nodes, vec![2]);
        assert_eq!(local, vec![0, 4]);
        // Batch 2: elements [8,10): list 3.
        let (local, nodes) = bs[2].segments(&OFFSETS);
        assert_eq!(nodes, vec![3]);
        assert_eq!(local, vec![0, 2]);
    }

    #[test]
    fn list_longer_than_capacity_spans_many_batches() {
        let offsets = [0u64, 25];
        let bs = plan_batches(&offsets, 10);
        assert_eq!(bs.len(), 3);
        for b in &bs {
            let (_, nodes) = b.segments(&offsets);
            assert_eq!(nodes, vec![0]);
        }
        assert!(bs[0].last_is_fragment(&offsets));
        assert!(bs[1].first_is_fragment(&offsets));
        assert!(bs[1].last_is_fragment(&offsets));
        assert!(bs[2].first_is_fragment(&offsets));
    }

    #[test]
    fn empty_graph_no_batches() {
        assert!(plan_batches(&[0, 0, 0], 8).is_empty());
    }

    #[test]
    fn range_replan_matches_full_plan_from_the_cut() {
        // Re-batching the tail of a plan from any batch boundary must
        // reproduce exactly what planning the suffix range would give.
        for cap in [1usize, 2, 3, 4, 7, 10] {
            let full = plan_batches(&OFFSETS, cap);
            for start in &full {
                let tail = plan_batches_range(&OFFSETS, start.elem_lo, 10, cap);
                let expect: Vec<Batch> = full
                    .iter()
                    .filter(|b| b.elem_lo >= start.elem_lo)
                    .copied()
                    .collect();
                assert_eq!(tail, expect, "cap {cap}, from {}", start.elem_lo);
            }
        }
        // A *different* capacity re-cuts the same element range.
        let tail = plan_batches_range(&OFFSETS, 4, 10, 2);
        let mut cursor = 4u64;
        for b in &tail {
            assert_eq!(b.elem_lo, cursor);
            assert!(b.n_elements() <= 2 && b.n_elements() > 0);
            cursor = b.elem_hi;
        }
        assert_eq!(cursor, 10);
        // Mid-list start is flagged as a fragment continuation.
        assert!(tail[0].first_is_fragment(&OFFSETS));
        assert!(plan_batches_range(&OFFSETS, 5, 5, 3).is_empty());
    }

    #[test]
    fn capacity_model_positive_and_monotone() {
        let small = batch_capacity(64 * 1024);
        let large = batch_capacity(5 * 1024 * 1024 * 1024);
        assert!(small >= 1);
        assert!(large > small);
        // 5 GB device → batches of a few hundred million elements.
        assert!(large > 100_000_000);
    }

    /// Both kernels plan at one 16-byte footprint: the fused kernel's
    /// trial group takes the 8 bytes per element the sort's packed
    /// workspace takes, so neither plans larger batches. At 4 bytes an
    /// output slot, that slot holds a group twice the batch's size.
    #[test]
    fn both_kernels_share_one_footprint() {
        assert_eq!(BYTES_PER_ELEM, 16);
        assert_eq!(OUT_ELEM_BYTES, 4);
        let bytes = 5usize * 1024 * 1024 * 1024;
        assert_eq!(
            batch_capacity(bytes),
            (bytes as f64 * HEADROOM) as usize / 16
        );
        let (n, out, c) = (1000, 40, 200);
        assert_eq!(trial_group(ShingleKernel::SortCompact, n, out, c), 1);
        let g = trial_group(ShingleKernel::FusedSelect, n, out, c);
        assert_eq!(g, 50);
        assert_eq!(g, (2 * n / out).clamp(1, c));
        assert!(
            g * out * OUT_ELEM_BYTES <= n * 8,
            "a group's output fits its 8 B/elem slot"
        );
        // Clamped to [1, trials]: an output twice the batch still runs,
        // and a tiny output never runs more trials than there are.
        assert_eq!(trial_group(ShingleKernel::FusedSelect, 10, 20, c), 1);
        assert_eq!(trial_group(ShingleKernel::FusedSelect, 10, 10, c), 2);
        assert_eq!(trial_group(ShingleKernel::FusedSelect, n, 1, c), c);
        assert_eq!(trial_group(ShingleKernel::FusedSelect, n, 0, c), c);
    }

    #[test]
    fn batch_stats_describe_the_plan() {
        let bs = plan_batches(&OFFSETS, 4);
        let stats = BatchStats::from_plan(&bs, 4);
        assert_eq!(stats.n_batches, 3);
        assert_eq!(stats.max_batch_elems, 4);
        assert_eq!(stats.capacity_elems, 4);
        assert_eq!(stats.elem_footprint_bytes, 16);
        assert_eq!(stats.max_batch_footprint_bytes(), 64);
        let text = stats.to_string();
        assert!(text.contains("3 batch(es)"), "{text}");
        assert!(text.contains("16 B/elem"), "{text}");

        let mut merged = stats;
        merged.merge(&BatchStats::from_plan(&plan_batches(&OFFSETS, 8), 8));
        assert_eq!(merged.n_batches, 3 + 2);
        assert_eq!(merged.max_batch_elems, 8);
    }

    #[test]
    fn empty_plan_stats_are_zero() {
        let stats = BatchStats::from_plan(&[], 7);
        assert_eq!(stats.n_batches, 0);
        assert_eq!(stats.max_batch_elems, 0);
        assert_eq!(stats.max_batch_footprint_bytes(), 0);
    }
}
