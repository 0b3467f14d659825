//! Shingle identities, raw per-trial shingle records, and the adjacency
//! input abstraction shared by both shingling passes.
//!
//! A *shingle* is an s-element subset of a node's (permuted) adjacency
//! list. Its identity is "an integer representation obtained using a hash
//! function" (paper §III-B): here a 64-bit mix of the trial index and the
//! selected elements in their canonical (hash-sorted) order — so the same
//! elements selected in the same trial always produce the same key, and
//! shingles from different trials never mix.
//!
//! A shingling pass emits [`RawShingles`]: one record per (node, trial)
//! holding the top-s *(hash, element)* pairs. Records keep the hash halves
//! (not just elements) so that fragments of adjacency lists split across
//! device batches can be merged by re-selecting the globally smallest s —
//! the CPU-side fix-up the paper describes for split lists. A complete
//! record needs no merge, so its hash halves may stand in as ranks
//! ([`RawShingles::push_complete`]).

use crate::minwise::{pack, PackedHash};
use gpclust_graph::{Csr, ShingleGraph};

/// 64-bit shingle key space.
pub type ShingleKey = u64;

/// splitmix64 finalizer — a strong, cheap 64-bit mixer.
#[inline(always)]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compute the identity of a shingle from its trial and the *element ids*
/// of its pairs, in their canonical ascending-(hash, element) order.
pub fn shingle_key(trial: u32, elements: impl IntoIterator<Item = u32>) -> ShingleKey {
    let mut h = splitmix64(0x5349_4E47_4C45 ^ ((trial as u64) << 20));
    for e in elements {
        h = splitmix64(h ^ (e as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    }
    h
}

/// Raw shingle records emitted by one shingling pass (possibly one batch
/// of it): `(trial, node, top-s packed pairs)`.
///
/// Records may hold *fewer* than `s` pairs when the node's adjacency-list
/// fragment in this batch had fewer than `s` members; the aggregation step
/// merges fragments and drops nodes whose merged candidate count is still
/// below `s` (the paper generates shingles only for vertices with ≥ s
/// links).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawShingles {
    s: usize,
    trials: Vec<u32>,
    nodes: Vec<u32>,
    offsets: Vec<u64>,
    pairs: Vec<PackedHash>,
    grouped: bool,
}

impl RawShingles {
    /// An empty record set for shingle size `s`.
    pub fn new(s: usize) -> Self {
        RawShingles {
            s,
            trials: Vec::new(),
            nodes: Vec::new(),
            offsets: vec![0],
            pairs: Vec::new(),
            grouped: false,
        }
    }

    /// Declare that every `(trial, node)` appears in at most one record and
    /// every record holds exactly `s` pairs — true for the serial pass and
    /// for the GPU pass after its boundary-fragment pre-merge. Lets the
    /// aggregation skip its merge sort.
    ///
    /// Debug builds verify the claim.
    pub fn mark_grouped(&mut self) {
        #[cfg(debug_assertions)]
        {
            let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
            for i in 0..self.len() {
                assert!(
                    seen.insert((self.trials[i], self.nodes[i])),
                    "duplicate (trial, node) in grouped RawShingles"
                );
                assert_eq!(
                    (self.offsets[i + 1] - self.offsets[i]) as usize,
                    self.s,
                    "grouped record must hold exactly s pairs"
                );
            }
        }
        self.grouped = true;
    }

    /// Whether [`RawShingles::mark_grouped`] has been asserted.
    pub fn is_grouped(&self) -> bool {
        self.grouped
    }

    /// The shingle size of the pass that produced these records.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total packed pairs stored.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Append one record.
    ///
    /// # Panics
    /// Panics if more than `s` pairs are supplied.
    pub fn push(&mut self, trial: u32, node: u32, pairs: &[PackedHash]) {
        assert!(pairs.len() <= self.s, "record larger than s");
        self.grouped = false;
        self.trials.push(trial);
        self.nodes.push(node);
        self.pairs.extend_from_slice(pairs);
        self.offsets.push(self.pairs.len() as u64);
    }

    /// Append one complete record from its `s` element ids in hash order
    /// — what the device downloads. A complete record is the only one of
    /// its `(trial, node)`, so its hash halves only order it: each element
    /// is packed under its rank in the record (`pack(i, v)`) instead,
    /// which sorts, merges and keys ([`crate::aggregate`]) the same way
    /// without re-hashing it.
    ///
    /// # Panics
    /// Panics if the record does not hold exactly `s` elements.
    pub fn push_complete(&mut self, trial: u32, node: u32, elements: &[u32]) {
        assert_eq!(elements.len(), self.s, "a complete record holds s elements");
        self.grouped = false;
        self.trials.push(trial);
        self.nodes.push(node);
        self.pairs.extend(
            elements
                .iter()
                .enumerate()
                .map(|(rank, &v)| pack(rank as u32, v)),
        );
        self.offsets.push(self.pairs.len() as u64);
    }

    /// Record `i` as `(trial, node, pairs)`.
    pub fn record(&self, i: usize) -> (u32, u32, &[PackedHash]) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (self.trials[i], self.nodes[i], &self.pairs[lo..hi])
    }

    /// Trial of record `i` (column access for hot loops).
    #[inline]
    pub fn trial(&self, i: usize) -> u32 {
        self.trials[i]
    }

    /// Node of record `i`.
    #[inline]
    pub fn node(&self, i: usize) -> u32 {
        self.nodes[i]
    }

    /// Packed pairs of record `i`.
    #[inline]
    pub fn pairs_of(&self, i: usize) -> &[PackedHash] {
        &self.pairs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate all records.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &[PackedHash])> + '_ {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// Copy all records of `other` onto the end of `self` (batch
    /// concatenation): each column extends in bulk, with `other`'s
    /// offsets rebased past `self`'s pairs.
    ///
    /// # Panics
    /// Panics if the shingle sizes differ.
    pub fn append(&mut self, other: &RawShingles) {
        assert_eq!(self.s, other.s, "mixing shingle sizes");
        self.grouped = false;
        let base = self.pairs.len() as u64;
        self.trials.extend_from_slice(&other.trials);
        self.nodes.extend_from_slice(&other.nodes);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| o + base));
        self.pairs.extend_from_slice(&other.pairs);
    }

    /// Keep only the first `len` records.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.trials.truncate(len);
            self.nodes.truncate(len);
            self.offsets.truncate(len + 1);
            self.pairs.truncate(self.offsets[len] as usize);
        }
    }
}

/// Uniform view over the inputs of the two shingling passes: the original
/// similarity graph (pass I) and the first-level shingle graph (pass II).
/// Both are "a set of adjacency lists in one contiguous array".
pub trait AdjacencyInput {
    /// Number of nodes (adjacency lists).
    fn n_nodes(&self) -> usize;
    /// List boundaries: `n_nodes() + 1` monotone offsets into [`flat`].
    ///
    /// [`flat`]: AdjacencyInput::flat
    fn offsets(&self) -> &[u64];
    /// The concatenated adjacency array.
    fn flat(&self) -> &[u32];

    /// The adjacency list of node `i`.
    fn list(&self, i: usize) -> &[u32] {
        let o = self.offsets();
        &self.flat()[o[i] as usize..o[i + 1] as usize]
    }

    /// Total elements across all lists.
    fn n_elements(&self) -> usize {
        self.flat().len()
    }
}

impl AdjacencyInput for Csr {
    fn n_nodes(&self) -> usize {
        self.n()
    }
    fn offsets(&self) -> &[u64] {
        Csr::offsets(self)
    }
    fn flat(&self) -> &[u32] {
        self.targets()
    }
}

impl AdjacencyInput for ShingleGraph {
    fn n_nodes(&self) -> usize {
        self.len()
    }
    fn offsets(&self) -> &[u64] {
        self.gen_offsets()
    }
    fn flat(&self) -> &[u32] {
        self.generators_flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpclust_graph::EdgeList;

    #[test]
    fn shingle_key_depends_on_trial_and_elements() {
        let k1 = shingle_key(0, [1, 2]);
        let k2 = shingle_key(1, [1, 2]);
        let k3 = shingle_key(0, [1, 3]);
        let k4 = shingle_key(0, [2, 1]);
        assert_ne!(k1, k2, "trial must separate keys");
        assert_ne!(k1, k3, "elements must separate keys");
        assert_ne!(k1, k4, "order is canonical, not symmetric");
        assert_eq!(k1, shingle_key(0, [1, 2]), "deterministic");
    }

    #[test]
    fn shingle_key_no_easy_collisions() {
        let mut seen = std::collections::HashSet::new();
        for trial in 0..50u32 {
            for a in 0..40u32 {
                for b in 0..40u32 {
                    seen.insert(shingle_key(trial, [a, b]));
                }
            }
        }
        assert_eq!(seen.len(), 50 * 40 * 40);
    }

    #[test]
    fn raw_shingles_roundtrip() {
        let mut rs = RawShingles::new(2);
        rs.push(0, 7, &[10, 20]);
        rs.push(1, 7, &[30]);
        rs.push(0, 9, &[]);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.n_pairs(), 3);
        assert_eq!(rs.record(0), (0, 7, &[10u64, 20][..]));
        assert_eq!(rs.record(1), (1, 7, &[30u64][..]));
        assert_eq!(rs.record(2), (0, 9, &[][..]));
    }

    #[test]
    #[should_panic(expected = "larger than s")]
    fn raw_shingles_rejects_oversized_record() {
        let mut rs = RawShingles::new(1);
        rs.push(0, 0, &[1, 2]);
    }

    #[test]
    fn append_concatenates() {
        let mut a = RawShingles::new(2);
        a.push(0, 1, &[5, 6]);
        let mut b = RawShingles::new(2);
        b.push(1, 2, &[7]);
        b.push(2, 3, &[8, 9]);
        a.append(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.n_pairs(), 5);
        assert_eq!(a.record(0), (0, 1, &[5u64, 6][..]));
        assert_eq!(a.record(1), (1, 2, &[7u64][..]));
        assert_eq!(a.record(2), (2, 3, &[8u64, 9][..]));
    }

    #[test]
    fn csr_as_adjacency_input() {
        let mut el: EdgeList = [(0, 1), (1, 2)].into_iter().collect();
        let g = Csr::from_edges(3, &mut el);
        assert_eq!(AdjacencyInput::n_nodes(&g), 3);
        assert_eq!(g.list(1), &[0, 2]);
        assert_eq!(g.n_elements(), 4);
    }

    #[test]
    fn shingle_graph_as_adjacency_input() {
        let sg = ShingleGraph::from_records(
            1,
            vec![(3u64, &[4u32][..], &[0u32, 1][..]), (9, &[5][..], &[2][..])],
        );
        assert_eq!(AdjacencyInput::n_nodes(&sg), 2);
        assert_eq!(sg.list(0), &[0, 1]);
        assert_eq!(sg.list(1), &[2]);
    }
}
