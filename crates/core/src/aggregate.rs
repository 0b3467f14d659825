//! CPU-side shingle aggregation — "compute shingle graph" in Figure 3.
//!
//! Input: the raw `(trial, node, top-s pairs)` records streamed back from
//! the device, batch by batch — complete records as element ids in hash
//! order, boundary fragments re-packed with their hashes. This step
//! performs the two CPU duties the paper assigns to the host:
//!
//! 1. **Fragment merging** — when an adjacency list was split between two
//!    job batches, its per-batch top-s candidate lists are merged and the
//!    globally smallest s re-selected ("the CPU has to combine the shingle
//!    results for the split adjacency lists after it receives shingles from
//!    the GPU"). Nodes whose merged candidate count is below s produce no
//!    shingle, matching the ≥ s-links rule.
//! 2. **Inversion/grouping** — "a sorting is done to gather all vertices
//!    that generated each shingle", yielding the `<s_j, L(s_j)>` tuples
//!    that form the bipartite shingle graph for the next pass.

use crate::minwise::{unpack_element, PackedHash};
use crate::shingle::{shingle_key, RawShingles, ShingleKey};
use gpclust_graph::ShingleGraph;

/// [`aggregate`]; the threshold is ignored (see
/// [`crate::ShinglingParams::par_sort_min`]).
pub fn aggregate_with(raw: &RawShingles, _par_sort_min: usize) -> ShingleGraph {
    aggregate(raw)
}

/// The [`SortedRun`] of `raw`'s records, its boundary fragments merged;
/// the threshold is ignored (see [`crate::ShinglingParams::par_sort_min`]).
pub fn fragment_run(raw: &RawShingles, _par_sort_min: usize) -> SortedRun {
    merge_fragments(raw)
}

/// Aggregate raw records into the bipartite shingle graph.
///
/// This is the largest CPU stage of gpClust (it dominates the "CPU" column
/// of Table I), so it works in flat column arrays with exactly two big
/// sorts/scans and no per-record heap allocation. The packed values are
/// unique (each carries its record index in the low bits), and the one
/// keyed sort only ties on fragments of the same `(node, trial)` — whose
/// merge re-sorts and dedups — so the unstable sorts leave the
/// aggregation deterministic.
pub fn aggregate(raw: &RawShingles) -> ShingleGraph {
    let s = raw.s();
    let n_rec = raw.len();

    // Grouped fast path (serial pass, GPU pass after its boundary
    // pre-merge): no merging, no column copies — pack
    // (key, node, record-index) straight from the raw storage and pull
    // element ids back out of it at emission time.
    if raw.is_grouped() {
        assert!(n_rec < (1 << 32), "too many shingle records");
        let mut packed: Vec<u128> = (0..n_rec)
            .map(|i| {
                let pairs = raw.pairs_of(i);
                debug_assert_eq!(pairs.len(), s);
                let key = shingle_key(raw.trial(i), pairs.iter().map(|&p| unpack_element(p)));
                ((key as u128) << 64) | ((raw.node(i) as u128) << 32) | i as u128
            })
            .collect();
        packed.sort_unstable();
        return invert_packed(s, &packed, |rep, out| {
            out.extend(raw.pairs_of(rep).iter().map(|&p| unpack_element(p)));
        });
    }

    // Ungrouped inputs pay one fragment merge-and-pack into a single
    // sorted run, then invert like the grouped path.
    let run = merge_fragments(raw);
    invert_packed(s, &run.packed, |rep, out| {
        out.extend_from_slice(&run.elements[rep * s..(rep + 1) * s]);
    })
}

/// Merge fragments of an *ungrouped* record stream (records of the same
/// `(node, trial)` split across batches or devices) into finalized
/// records, packed and host-sorted into one [`SortedRun`].
///
/// This is the CPU fix-up the paper describes for split adjacency lists:
/// per `(node, trial)` group the candidate pairs are merged, deduped and
/// the globally smallest `s` re-selected; groups left with fewer than `s`
/// distinct candidates produce no shingle (the ≥ s-links rule).
pub(crate) fn merge_fragments(raw: &RawShingles) -> SortedRun {
    let s = raw.s();
    let n_rec = raw.len();
    let mut fin_keys: Vec<ShingleKey> = Vec::with_capacity(n_rec);
    let mut fin_nodes: Vec<u32> = Vec::with_capacity(n_rec);
    let mut fin_elements: Vec<u32> = Vec::with_capacity(n_rec * s);
    {
        let mut order: Vec<u32> = (0..n_rec as u32).collect();
        let group_key =
            |&i: &u32| ((raw.node(i as usize) as u64) << 32) | raw.trial(i as usize) as u64;
        order.sort_unstable_by_key(group_key);
        let mut merged: Vec<PackedHash> = Vec::with_capacity(2 * s);
        let mut gi = 0usize;
        while gi < order.len() {
            let first = order[gi] as usize;
            let (trial, node) = (raw.trial(first), raw.node(first));
            let mut gj = gi + 1;
            merged.clear();
            merged.extend_from_slice(raw.pairs_of(first));
            while gj < order.len() {
                let next = order[gj] as usize;
                if raw.trial(next) != trial || raw.node(next) != node {
                    break;
                }
                merged.extend_from_slice(raw.pairs_of(next));
                gj += 1;
            }
            if merged.len() >= s {
                merged.sort_unstable();
                merged.dedup(); // a fragment boundary duplicate is harmless but possible
                if merged.len() >= s {
                    merged.truncate(s);
                    fin_nodes.push(node);
                    for &p in &merged {
                        fin_elements.push(unpack_element(p));
                    }
                    fin_keys.push(shingle_key(
                        trial,
                        merged.iter().map(|&p| unpack_element(p)),
                    ));
                }
            }
            gi = gj;
        }
    }

    let n_fin = fin_keys.len();
    assert!(n_fin < (1 << 32), "too many shingle records");
    let mut packed: Vec<u128> = (0..n_fin)
        .map(|i| ((fin_keys[i] as u128) << 64) | ((fin_nodes[i] as u128) << 32) | i as u128)
        .collect();
    packed.sort_unstable();
    SortedRun {
        packed,
        elements: fin_elements,
    }
}

/// One sorted run of aggregation records — the unit the device-side
/// aggregation downloads per batch and the host k-way merge consumes.
///
/// `packed[i]` is `(shingle-key << 64) | (node << 32) | local-index`,
/// ascending; `elements[local-index*s .. (local-index+1)*s]` holds the
/// record's element ids in canonical order (local indices are assigned in
/// emission order *within the run*, so they do not collide across runs —
/// the merge re-ranks them globally).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedRun {
    /// Sorted packed `(key, node, local-index)` records.
    pub packed: Vec<u128>,
    /// `s` element ids per record, indexed by the packed local index.
    pub elements: Vec<u32>,
}

impl SortedRun {
    /// Number of records in the run.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True if the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }
}

/// Streaming shingle aggregation: records flow in one at a time (from
/// [`crate::serial::shingle_pass_foreach`] or the device pass), are packed
/// immediately into the 128-bit sort representation, and never exist as a
/// separate raw-record container. This nearly halves the peak memory of the
/// dominant aggregation stage relative to materialize-then-aggregate.
///
/// Only *grouped* streams are supported (one record per `(trial, node)`,
/// exactly `s` sorted pairs each) — which both pass implementations
/// guarantee.
#[derive(Debug)]
pub struct StreamAggregator {
    s: usize,
    packed: Vec<u128>,
    elements: Vec<u32>,
}

impl StreamAggregator {
    /// A fresh aggregator for shingle size `s`.
    pub fn new(s: usize) -> Self {
        StreamAggregator {
            s,
            packed: Vec::new(),
            elements: Vec::new(),
        }
    }

    /// Number of records absorbed so far.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True if no records were absorbed.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Absorb one record: its `s` element ids in ascending hash order.
    /// Two elements are equal when an adjacency list names a target twice.
    #[inline]
    pub fn push(&mut self, trial: u32, node: u32, elements: impl IntoIterator<Item = u32>) {
        let start = self.elements.len();
        let idx = (start / self.s) as u128;
        assert!(idx < (1 << 32), "too many shingle records");
        self.elements.extend(elements);
        debug_assert_eq!(self.elements.len() - start, self.s);
        let key = shingle_key(trial, self.elements[start..].iter().copied());
        self.packed
            .push(((key as u128) << 64) | ((node as u128) << 32) | idx);
    }

    /// Keep only the first `len` records absorbed.
    pub fn truncate(&mut self, len: usize) {
        self.packed.truncate(len);
        self.elements.truncate(len * self.s);
    }

    /// Sort the absorbed records into one [`SortedRun`] (local indices in
    /// absorption order), for a merge with other runs.
    pub fn into_run(mut self) -> SortedRun {
        self.packed.sort_unstable();
        SortedRun {
            packed: self.packed,
            elements: self.elements,
        }
    }

    /// Sort, group and build the bipartite shingle graph.
    pub fn finish(mut self) -> ShingleGraph {
        self.packed.sort_unstable();
        let elements = self.elements;
        let s = self.s;
        invert_packed(s, &self.packed, |rep, out| {
            out.extend_from_slice(&elements[rep * s..(rep + 1) * s]);
        })
    }
}

/// Group sorted packed `(key << 64 | node << 32 | record-index)` values
/// into the bipartite shingle graph. `push_elements(rep, out)` appends the
/// `s` element ids of the record with index `rep`.
///
/// "A sorting is done to gather all vertices that generated each shingle" —
/// the caller's 128-bit sort is the dominant CPU cost of the pipeline;
/// the comparisons run fully in-register with no memory indirection.
fn invert_packed(
    s: usize,
    packed: &[u128],
    push_elements: impl Fn(usize, &mut Vec<u32>),
) -> ShingleGraph {
    let mut inv = StreamInverter::new(s, packed.len());
    for &p in packed {
        let rep = (p & 0xFFFF_FFFF) as usize;
        inv.push(p, |out| push_elements(rep, out));
    }
    inv.finish()
}

/// The streaming grouping core shared by [`invert_packed`] (host mode)
/// and the record merge ([`crate::spill::merge_external_runs`], the
/// shingle index's inversion): consumes packed records in
/// ascending `(key, node)` order one at a time, opens a shingle per
/// distinct key (filling its elements from the group's first record, the
/// representative) and dedups consecutive generator nodes.
///
/// Every aggregation path building its graph through this one type is
/// what keeps their outputs structurally bit-identical.
pub(crate) struct StreamInverter {
    s: usize,
    keys: Vec<u64>,
    elements: Vec<u32>,
    gen_offsets: Vec<u64>,
    generators: Vec<u32>,
    cur_key: u64,
    last_node: u32,
    open: bool,
}

impl StreamInverter {
    pub(crate) fn new(s: usize, n_records_hint: usize) -> Self {
        StreamInverter {
            s,
            keys: Vec::new(),
            elements: Vec::new(),
            gen_offsets: vec![0],
            generators: Vec::with_capacity(n_records_hint),
            cur_key: 0,
            last_node: u32::MAX,
            open: false,
        }
    }

    /// Absorb the next record (ascending `(key, node)` across calls);
    /// `fill_elements` appends its `s` element ids, invoked only when the
    /// record opens a new key group.
    #[inline(always)] // measured: the record merge's graph sink slows without it
    pub(crate) fn push(&mut self, packed: u128, fill_elements: impl FnOnce(&mut Vec<u32>)) {
        let key = (packed >> 64) as u64;
        let node = ((packed >> 32) & 0xFFFF_FFFF) as u32;
        if !self.open || key != self.cur_key {
            debug_assert!(
                !self.open || key > self.cur_key,
                "records must arrive sorted"
            );
            if self.open {
                self.gen_offsets.push(self.generators.len() as u64);
            }
            self.keys.push(key);
            fill_elements(&mut self.elements);
            self.cur_key = key;
            self.last_node = u32::MAX;
            self.open = true;
        }
        if node != self.last_node {
            self.generators.push(node);
            self.last_node = node;
        }
    }

    pub(crate) fn finish(mut self) -> ShingleGraph {
        if self.open {
            self.gen_offsets.push(self.generators.len() as u64);
        }
        ShingleGraph::from_parts(
            self.s,
            self.keys,
            self.elements,
            self.gen_offsets,
            self.generators,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minwise::pack;

    /// Top-s of a pair list (oracle for merging).
    fn top_s(mut pairs: Vec<PackedHash>, s: usize) -> Vec<PackedHash> {
        pairs.sort_unstable();
        pairs.truncate(s);
        pairs
    }

    #[test]
    fn groups_identical_shingles() {
        let mut raw = RawShingles::new(2);
        // Nodes 3 and 8 generate the same shingle in trial 0.
        raw.push(0, 3, &[pack(1, 10), pack(2, 20)]);
        raw.push(0, 8, &[pack(1, 10), pack(2, 20)]);
        // Node 5 generates something else in trial 1.
        raw.push(1, 5, &[pack(1, 10), pack(2, 20)]);
        let g = aggregate(&raw);
        assert_eq!(g.len(), 2, "same elements in different trials differ");
        let with_two: Vec<_> = g.iter().filter(|(_, _, _, gens)| gens.len() == 2).collect();
        assert_eq!(with_two.len(), 1);
        let (_, _, elements, gens) = with_two[0];
        assert_eq!(elements, &[10, 20]);
        assert_eq!(gens, &[3, 8]);
    }

    #[test]
    fn split_fragments_merge_to_unsplit_result() {
        // A 6-element adjacency list split 4/2 across two batches.
        let full: Vec<PackedHash> = vec![
            pack(50, 1),
            pack(10, 2),
            pack(40, 3),
            pack(30, 4),
            pack(20, 5),
            pack(60, 6),
        ];
        let s = 3;

        let mut unsplit = RawShingles::new(s);
        unsplit.push(0, 7, &top_s(full.clone(), s));

        let mut split = RawShingles::new(s);
        split.push(0, 7, &top_s(full[..4].to_vec(), s));
        split.push(0, 7, &top_s(full[4..].to_vec(), s));

        assert_eq!(aggregate(&unsplit), aggregate(&split));
    }

    #[test]
    fn short_merged_lists_produce_no_shingle() {
        let mut raw = RawShingles::new(3);
        raw.push(0, 1, &[pack(1, 10)]);
        raw.push(0, 1, &[pack(2, 20)]); // merged: 2 < s = 3
        raw.push(0, 2, &[pack(1, 1), pack(2, 2), pack(3, 3)]);
        let g = aggregate(&raw);
        assert_eq!(g.len(), 1);
        assert_eq!(g.generators(0), &[2]);
    }

    #[test]
    fn elements_in_canonical_hash_order() {
        let mut raw = RawShingles::new(2);
        // Element 9 has the smaller hash, so it comes first canonically.
        raw.push(0, 0, &[pack(1, 9), pack(2, 4)]);
        let g = aggregate(&raw);
        assert_eq!(g.elements(0), &[9, 4]);
    }

    #[test]
    fn empty_input_empty_graph() {
        let raw = RawShingles::new(2);
        let g = aggregate(&raw);
        assert!(g.is_empty());
    }

    #[test]
    fn keys_are_sorted_ascending() {
        let mut raw = RawShingles::new(1);
        for node in 0..50u32 {
            raw.push(node % 5, node, &[pack(node, node)]);
        }
        let g = aggregate(&raw);
        let keys: Vec<u64> = (0..g.len()).map(|i| g.key(i)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn aggregation_paths_agree_on_a_large_input() {
        // All three aggregation paths must agree with each other on the
        // same logical records, and be self-consistent across repeated
        // runs.
        let s = 2;
        let n = 34_000u32;
        let mut grouped = RawShingles::new(s);
        let mut ungrouped = RawShingles::new(s);
        let mut streaming = StreamAggregator::new(s);
        for i in 0..n {
            let trial = i % 7;
            let e = i % 50;
            let pairs = [pack(e, e), pack(e + 1, e + 1)];
            grouped.push(trial, i, &pairs);
            ungrouped.push(trial, i, &pairs);
            streaming.push(trial, i, pairs.map(unpack_element));
        }
        grouped.mark_grouped();
        let via_grouped = aggregate(&grouped);
        let via_ungrouped = aggregate(&ungrouped);
        let via_streaming = streaming.finish();
        assert_eq!(via_grouped, via_ungrouped);
        assert_eq!(via_grouped, via_streaming);
        assert_eq!(via_grouped, aggregate(&grouped), "non-deterministic");
        // 7 trials × 50 element pairs → 350 distinct shingles, each with
        // many generators.
        assert_eq!(via_grouped.len(), 350);
    }

    #[test]
    fn duplicate_pair_at_fragment_boundary_deduped() {
        // The same (hash, element) appearing in both fragments (an exact
        // boundary overlap) must not count twice toward the s threshold.
        let mut raw = RawShingles::new(2);
        raw.push(0, 3, &[pack(5, 50)]);
        raw.push(0, 3, &[pack(5, 50)]);
        let g = aggregate(&raw);
        assert!(g.is_empty(), "one distinct candidate < s = 2");
    }
}
