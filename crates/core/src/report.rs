//! Phase III — reporting dense subgraphs from the second-level shingle
//! graph.
//!
//! Both variants the paper describes are implemented:
//!
//! * [`partition_clusters`] — the union–find variant the paper adopts:
//!   every vertex starts in its own cluster; for each connected component
//!   of G″ the vertices constituting its first- and second-level shingles
//!   are unioned. The result is a strict partition (no overlaps).
//! * [`overlap_clusters`] — the alternative: enumerate connected components
//!   of G″ over first-level shingle nodes and report, per component, the
//!   union of the member shingles' element vertices. The same vertex may
//!   appear in several clusters.
//!
//! In both, connectivity in G″ is induced by second-level shingles: all
//! first-level shingles in `L(t)` of a second-level shingle `t` are
//! connected through `t`.
//!
//! The GPU driver never materializes G″. Its Pass II runs over the
//! [`DistinctLists`] of G′ — each distinct member list with at least s2
//! members that the owner closure has not settled, once, with one anchor
//! vertex — and Phase III folds the owner closure plus each list's
//! selected members (each boundary fragment's record elements) onto the
//! anchors in a host union–find. Union–find
//! order independence makes every such fold partition-equal to
//! [`partition_clusters`].

use crate::aggregate::SortedRun;
use crate::shingle::AdjacencyInput;
use gpclust_graph::components::absorb_labels;
use gpclust_graph::{Partition, ShingleGraph, UnionFind, VertexId};
use std::ops::Range;

/// Stream one second-level shingling record into the union–find.
///
/// Partition-mode Phase III never needs G″ materialized: records carrying
/// the *same* second-level shingle carry the *same* element vertices, so
/// unioning each record's `{elements(t)} ∪ {elements(F)}` independently
/// links all of t's generators transitively through `elements(t)` — the
/// identical final partition, with zero pass-II storage. Union–find order
/// independence makes the streaming and materialized variants provably
/// equal (and tests assert it).
pub fn union_second_level_record(
    uf: &mut UnionFind,
    first: &ShingleGraph,
    generator: u32,
    second_elements: impl IntoIterator<Item = VertexId>,
) {
    let mut anchor: Option<VertexId> = None;
    let mut link = |v: VertexId, uf: &mut UnionFind| match anchor {
        Some(a) => {
            uf.union(a, v);
        }
        None => anchor = Some(v),
    };
    for v in second_elements {
        link(v, uf);
    }
    for &v in first.elements(generator as usize) {
        link(v, uf);
    }
}

/// Pass II's input and Phase III's fold in one value: the distinct member
/// lists of a first-level shingle graph G′ that can still join two
/// clusters.
///
/// A first-level shingle's *member list* is its generator list — the
/// adjacency list Pass II shingles. Lists with fewer than s2 members never
/// emit and are dropped; identical lists are grouped, and each distinct
/// list gets one *anchor*: the first element of its first *owner* (the
/// lowest-indexed shingle carrying it). Construction then unions every
/// owner's s1 elements onto its list's anchor — the *owner closure*, held
/// as vertex-id labels so G′ can be dropped before Pass II.
///
/// A list is *settled* when the owner closure already places every one of
/// its members in its anchor's component. Construction drops settled
/// lists: Phase III touches a list only through unions of its anchor with
/// its own members (the selected ones, or a boundary fragment's record
/// elements), and [`DistinctLists::finish`] absorbs the closure into the
/// same union–find, so each of those unions would be a no-op. What is kept
/// — the lists Pass II runs over — are the *unsettled* lists; a settled
/// list's records still count in [`DistinctLists::finish`].
///
/// Pass II shingles each kept list once (its node ids are list indices),
/// and Phase III unions each record's s2 elements onto the list's anchor.
/// That is the partition [`partition_clusters`] builds from the
/// materialized G″: identical lists give identical top-s2 sets in every
/// trial, every list with at least s2 members emits in every trial (so all
/// owners of a list share each of its second-level shingles), and
/// union–find does not depend on order. Those unions connect the anchor
/// with exactly the members some trial selected, so Phase III may union
/// each selected member once instead ([`DistinctLists::union_marked`]).
///
/// Every member list is strictly ascending: the inversion that builds G′
/// drops repeated `(shingle, generator)` records. The device reduction
/// relies on it: it selects by `(hash, position)`, which orders a strictly
/// ascending list exactly as the `(hash, element)` key does, so the
/// positions it marks are the elements every trial selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctLists {
    /// `len() + 1` offsets into `members`.
    offsets: Vec<u64>,
    /// The unsettled lists, concatenated in first-owner order.
    members: Vec<u32>,
    /// Anchor vertex per list.
    anchors: Vec<VertexId>,
    /// First-level shingles owning each list.
    owners: Vec<u32>,
    /// First-level shingles owning the settled lists, summed.
    settled_owners: u64,
    /// The owner closure: a union–find root per input vertex.
    closure: Vec<u32>,
}

/// A slot of the grouping table no list occupies yet.
const EMPTY: u32 = u32::MAX;

/// FxHash-style fold of a member list, finished with the splitmix64
/// avalanche so the table's low index bits see every element.
fn list_hash(list: &[u32]) -> u64 {
    let mut h = list.len() as u64;
    for &v in list {
        h = (h.rotate_left(5) ^ v as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl DistinctLists {
    /// Group the member lists of `first` with at least `s2` members, over
    /// an input graph of `n` vertices, fold the owner closure and drop the
    /// settled lists. One open-addressing pass keyed by list contents; no
    /// per-list allocation.
    pub fn new(first: &ShingleGraph, s2: usize, n: usize) -> Self {
        let emitting = (0..first.len())
            .filter(|&f| first.generators(f).len() >= s2)
            .count();
        let mask = (2 * emitting).next_power_of_two() - 1;
        let mut table = vec![EMPTY; mask + 1];
        let mut out = DistinctLists {
            offsets: vec![0],
            members: Vec::new(),
            anchors: Vec::new(),
            owners: Vec::new(),
            settled_owners: 0,
            closure: Vec::new(),
        };
        let mut uf = UnionFind::new(n);
        for f in 0..first.len() {
            let list = first.generators(f);
            if list.len() < s2 {
                continue;
            }
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "member list {f} is not strictly ascending"
            );
            let mut slot = list_hash(list) as usize & mask;
            let d = loop {
                match table[slot] {
                    EMPTY => {
                        let d = out.anchors.len();
                        table[slot] = d as u32;
                        out.members.extend_from_slice(list);
                        out.offsets.push(out.members.len() as u64);
                        out.anchors.push(first.elements(f)[0]);
                        out.owners.push(0);
                        break d;
                    }
                    d if out.list(d as usize) == list => break d as usize,
                    _ => slot = (slot + 1) & mask,
                }
            };
            out.owners[d] += 1;
            for &v in first.elements(f) {
                uf.union(out.anchors[d], v);
            }
        }
        out.closure = (0..n as u32).map(|v| uf.find(v)).collect();
        out.settle();
        out
    }

    /// Drop every settled list — each member already shares its anchor's
    /// closure root — compacting the kept lists in place, in order.
    fn settle(&mut self) {
        let (mut kept, mut start, mut end) = (0, 0, 0);
        for d in 0..self.anchors.len() {
            let stop = self.offsets[d + 1] as usize;
            let root = self.closure[self.anchors[d] as usize];
            let list = &self.members[start..stop];
            if list.iter().all(|&v| self.closure[v as usize] == root) {
                self.settled_owners += self.owners[d] as u64;
            } else {
                self.members.copy_within(start..stop, end);
                end += stop - start;
                self.anchors[kept] = self.anchors[d];
                self.owners[kept] = self.owners[d];
                kept += 1;
                self.offsets[kept] = end as u64;
            }
            start = stop;
        }
        self.members.truncate(end);
        self.anchors.truncate(kept);
        self.owners.truncate(kept);
        self.offsets.truncate(kept + 1);
    }

    /// Number of unsettled lists (Pass II's nodes).
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True if Pass II has no list to run: none has at least s2 members,
    /// or every one is settled.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// |V| of the input graph the closure and the labels cover.
    pub fn n_vertices(&self) -> usize {
        self.closure.len()
    }

    /// The anchor vertex of list `list`.
    pub fn anchor(&self, list: u32) -> VertexId {
        self.anchors[list as usize]
    }

    /// First-level shingles owning list `list` — the ⟨shingle₂,
    /// generator⟩ records of G″ each of its Pass II records stands for.
    pub fn owners(&self, list: u32) -> u64 {
        self.owners[list as usize] as u64
    }

    /// Phase III for one Pass II record of list `list`: union its
    /// second-level elements onto the list's anchor.
    pub fn union_record(
        &self,
        uf: &mut UnionFind,
        list: u32,
        second_elements: impl IntoIterator<Item = VertexId>,
    ) {
        let a = self.anchor(list);
        for v in second_elements {
            uf.union(a, v);
        }
    }

    /// Phase III for the complete lists `lists` of one Pass II batch:
    /// union every member some trial selected onto its list's anchor.
    /// `marks` holds one byte per member of those lists, in list order,
    /// nonzero where a trial selected the member. Unioning each selected
    /// member once connects what unioning every record's elements does.
    pub fn union_marked(&self, uf: &mut UnionFind, lists: Range<u32>, marks: &[u8]) {
        let (lo, hi) = (lists.start as usize, lists.end as usize);
        let base = self.offsets[lo] as usize;
        assert_eq!(
            marks.len(),
            self.offsets[hi] as usize - base,
            "one mark per member of the lists"
        );
        for list in lo..hi {
            let (start, end) = (self.offsets[list] as usize, self.offsets[list + 1] as usize);
            let a = self.anchors[list];
            for (&m, &v) in marks[start - base..end - base]
                .iter()
                .zip(&self.members[start..end])
            {
                if m != 0 {
                    uf.union(a, v);
                }
            }
        }
    }

    /// Phase III's host step after a dealt Pass II of `trials` trials:
    /// fold the owner closure and the finalized run of pooled `s`-element
    /// boundary `fragments` into `uf` (already holding every device's
    /// labels). Returns the partition and the records counted here, each
    /// weighted by its owners (see [`DistinctLists::owners`]): the
    /// fragments', and the `trials` records every settled list stands for.
    pub fn finish(
        &self,
        mut uf: UnionFind,
        s: usize,
        trials: usize,
        fragments: &SortedRun,
    ) -> (Partition, u64) {
        absorb_labels(&mut uf, &self.closure);
        let mut records = trials as u64 * self.settled_owners;
        for &p in &fragments.packed {
            let i = (p & 0xFFFF_FFFF) as usize;
            let list = (p >> 32) as u32;
            let elements = fragments.elements[i * s..(i + 1) * s].iter().copied();
            self.union_record(&mut uf, list, elements);
            records += self.owners(list);
        }
        (Partition::from_union_find(&mut uf), records)
    }
}

impl AdjacencyInput for DistinctLists {
    fn n_nodes(&self) -> usize {
        self.len()
    }
    fn offsets(&self) -> &[u64] {
        &self.offsets
    }
    fn flat(&self) -> &[u32] {
        &self.members
    }
}

/// Union–find reporting (the paper's choice). `n` is |V| of the input
/// graph; `first` and `second` are the two aggregated shingle graphs.
pub fn partition_clusters(n: usize, first: &ShingleGraph, second: &ShingleGraph) -> Partition {
    let mut uf = UnionFind::new(n);
    for (_, _, elements, generators) in second.iter() {
        // Union, transitively via an anchor vertex: the second-level
        // shingle's own element vertices, plus the element vertices of every
        // first-level shingle that generated it.
        let mut anchor: Option<VertexId> = None;
        {
            let mut link = |v: VertexId| match anchor {
                Some(a) => {
                    uf.union(a, v);
                }
                None => anchor = Some(v),
            };
            for &v in elements {
                link(v);
            }
            for &f in generators {
                for &v in first.elements(f as usize) {
                    link(v);
                }
            }
        }
    }
    Partition::from_union_find(&mut uf)
}

/// Overlapping reporting: clusters are per-component unions of first-level
/// shingle elements; a vertex may belong to several clusters. Components
/// are over S′1 — only first-level shingles that contributed to at least
/// one second-level shingle.
pub fn overlap_clusters(first: &ShingleGraph, second: &ShingleGraph) -> Vec<Vec<VertexId>> {
    let mut uf = UnionFind::new(first.len());
    let mut in_g2 = vec![false; first.len()];
    for (_, _, _, generators) in second.iter() {
        let mut anchor: Option<u32> = None;
        for &f in generators {
            in_g2[f as usize] = true;
            match anchor {
                Some(a) => {
                    uf.union(a, f);
                }
                None => anchor = Some(f),
            }
        }
    }
    // Group member shingles per component root, then expand to vertices.
    let mut groups: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for f in 0..first.len() as u32 {
        if in_g2[f as usize] {
            groups.entry(uf.find(f)).or_default().push(f);
        }
    }
    let mut clusters: Vec<Vec<VertexId>> = groups
        .into_values()
        .map(|shingles| {
            let mut members: Vec<VertexId> = shingles
                .iter()
                .flat_map(|&f| first.elements(f as usize).iter().copied())
                .collect();
            members.sort_unstable();
            members.dedup();
            members
        })
        .collect();
    clusters.sort();
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    /// first: three shingles over vertices; second: one shingle linking
    /// first-shingles 0 and 1 (shingle 2 is outside G″).
    fn graphs() -> (ShingleGraph, ShingleGraph) {
        let first = ShingleGraph::from_records(
            2,
            vec![
                (10u64, &[0u32, 1][..], &[2u32, 3][..]),
                (20, &[1, 4], &[5][..]),
                (30, &[7, 8], &[9][..]),
            ],
        );
        // One second-level shingle: elements {2,5} (pass-I generators),
        // generated by first-level shingles 0 and 1.
        let second = ShingleGraph::from_records(2, vec![(99u64, &[2u32, 5][..], &[0u32, 1][..])]);
        (first, second)
    }

    #[test]
    fn partition_unions_first_and_second_level_elements() {
        let (first, second) = graphs();
        let p = partition_clusters(10, &first, &second);
        // Expected union: elements of second {2,5} + elements of first 0
        // {0,1} + elements of first 1 {1,4} → {0,1,2,4,5}.
        let g = p.group_of(0).unwrap();
        for v in [1u32, 2, 4, 5] {
            assert_eq!(p.group_of(v), Some(g), "vertex {v}");
        }
        // Vertices 7, 8 (shingle 2, outside G″) stay singletons.
        assert_ne!(p.group_of(7), Some(g));
        assert_ne!(p.group_of(7), p.group_of(8));
        // The big cluster plus 5 singletons: 3,6,7,8,9.
        assert_eq!(p.n_groups(), 6);
    }

    /// A hand-built G′ (s1 = 2) whose member lists exercise every case at
    /// s2 = 3: shingles 0, 2 and 4 share one list, shingle 1's is short,
    /// shingle 3's is distinct.
    fn repeated_lists() -> ShingleGraph {
        ShingleGraph::from_records(
            2,
            vec![
                (10u64, &[0u32, 1][..], &[5u32, 6, 7][..]),
                (20, &[2, 3], &[5, 6][..]),
                (30, &[4, 8], &[5, 6, 7][..]),
                (40, &[9, 10], &[6, 7, 8][..]),
                (50, &[11, 0], &[5, 6, 7][..]),
            ],
        )
    }

    #[test]
    fn distinct_lists_drop_short_lists_and_group_identical_ones() {
        let lists = DistinctLists::new(&repeated_lists(), 3, 12);
        assert_eq!(lists.len(), 2);
        assert_eq!(lists.n_nodes(), 2);
        assert_eq!(lists.offsets(), &[0, 3, 6]);
        assert_eq!(lists.flat(), &[5, 6, 7, 6, 7, 8]);
        assert_eq!((lists.owners(0), lists.owners(1)), (3, 1));
    }

    #[test]
    fn distinct_lists_anchor_on_the_first_owners_first_element() {
        let lists = DistinctLists::new(&repeated_lists(), 3, 12);
        assert_eq!((lists.anchor(0), lists.anchor(1)), (0, 9));
    }

    #[test]
    fn distinct_lists_close_over_every_owners_elements() {
        let lists = DistinctLists::new(&repeated_lists(), 3, 12);
        let (p, _) = lists.finish(UnionFind::new(12), 3, 6, &SortedRun::default());
        // Owners 0, 2, 4 of list 0 → {0, 1, 4, 8, 11}; owner 3 of list 1 →
        // {9, 10}; shingle 1 (short list) unions nothing.
        let g = p.group_of(0).unwrap();
        for v in [1u32, 4, 8, 11] {
            assert_eq!(p.group_of(v), Some(g), "vertex {v}");
        }
        assert_eq!(p.group_of(9), p.group_of(10));
        assert_ne!(p.group_of(9), Some(g));
        for v in [2u32, 3] {
            assert_eq!(p.group_of(v).map(|g| p.group(g as usize).len()), Some(1));
        }
        assert_eq!(p.n_groups(), 12 - 4 - 1);
    }

    /// Every list construction drops is settled — all its members share
    /// its anchor's closure root — and every list it keeps has a member
    /// that does not; the kept lists keep their first-owner order, anchor
    /// and owner count, and the dropped ones' owners are summed.
    #[test]
    fn distinct_lists_keep_exactly_the_unsettled_lists() {
        use crate::params::ShinglingParams;
        use crate::serial::SerialShingling;
        use gpclust_graph::generate::{planted_partition, PlantedConfig};
        use std::collections::HashMap;
        let g = planted_partition(&PlantedConfig {
            group_sizes: vec![40, 30, 20],
            n_noise_vertices: 20,
            p_intra: 0.6,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 1.0,
            seed: 5,
        })
        .graph;
        let params = ShinglingParams::light(5);
        let first = SerialShingling::new(params).unwrap().run(&g).first;
        let lists = DistinctLists::new(&first, params.s2, g.n());
        let root = |v: VertexId| lists.closure[v as usize];
        // Each distinct list in first-owner order, with its anchor and
        // owner count.
        let mut distinct: Vec<(&[u32], VertexId, u64)> = Vec::new();
        let mut index: HashMap<&[u32], usize> = HashMap::new();
        for f in 0..first.len() {
            let list = first.generators(f);
            if list.len() < params.s2 {
                continue;
            }
            let d = *index.entry(list).or_insert_with(|| {
                distinct.push((list, first.elements(f)[0], 0));
                distinct.len() - 1
            });
            distinct[d].2 += 1;
        }
        let (mut kept, mut settled, mut settled_owners) = (0, 0, 0);
        for (list, anchor, owners) in distinct {
            if list.iter().all(|&v| root(v) == root(anchor)) {
                settled += 1;
                settled_owners += owners;
            } else {
                let k = kept as u32;
                assert_eq!(lists.list(kept), list, "kept list {kept}");
                assert_eq!((lists.anchor(k), lists.owners(k)), (anchor, owners));
                kept += 1;
            }
        }
        assert_eq!(kept, lists.len());
        assert_eq!(settled_owners, lists.settled_owners);
        assert!(kept > 0 && settled > 0, "kept {kept}, settled {settled}");
    }

    #[test]
    fn distinct_lists_of_an_empty_first_graph() {
        let empty = ShingleGraph::from_records(2, std::iter::empty());
        let lists = DistinctLists::new(&empty, 2, 4);
        assert!(lists.is_empty());
        assert_eq!(lists.offsets(), &[0]);
        let (p, records) = lists.finish(UnionFind::new(4), 2, 6, &SortedRun::default());
        assert_eq!((p.n_groups(), records), (4, 0));
    }

    /// Pass II over the distinct lists, folded onto the anchors, is the
    /// partition of the materialized G″, and the owner-weighted record
    /// count is |E″|.
    #[test]
    fn distinct_lists_fold_reproduces_partition_clusters() {
        use crate::minwise::HashFamily;
        use crate::serial::shingle_pass;
        let first = repeated_lists();
        let family = HashFamily::new(6, 3);
        let second = crate::aggregate::aggregate(&shingle_pass(&first, 3, &family));
        let oracle = partition_clusters(12, &first, &second);
        let lists = DistinctLists::new(&first, 3, 12);
        let raw = shingle_pass(&lists, 3, &family);
        let mut uf = UnionFind::new(12);
        let mut records = 0;
        for (_, list, pairs) in raw.iter() {
            let elements = pairs.iter().map(|&p| crate::minwise::unpack_element(p));
            lists.union_record(&mut uf, list, elements);
            records += lists.owners(list);
        }
        let (streamed, settled_records) = lists.finish(uf, 3, 6, &SortedRun::default());
        assert_eq!((records + settled_records) as usize, second.n_edges());
        assert_eq!(streamed, oracle);
    }

    #[test]
    fn overlap_reports_only_g2_members() {
        let (first, second) = graphs();
        let clusters = overlap_clusters(&first, &second);
        assert_eq!(clusters, vec![vec![0, 1, 4]]);
    }

    #[test]
    fn overlap_allows_shared_vertices() {
        // Two disjoint components in G″ whose shingles share vertex 1.
        let first = ShingleGraph::from_records(
            2,
            vec![
                (10u64, &[0u32, 1][..], &[4u32][..]),
                (20, &[1, 2], &[5][..]),
            ],
        );
        let second = ShingleGraph::from_records(
            1,
            vec![(50u64, &[4u32][..], &[0u32][..]), (60, &[5], &[1][..])],
        );
        let clusters = overlap_clusters(&first, &second);
        assert_eq!(clusters, vec![vec![0, 1], vec![1, 2]]);
        // Vertex 1 is in both — the overlap the partition variant forbids.
    }

    #[test]
    fn partition_with_empty_second_graph_is_all_singletons() {
        let first = ShingleGraph::from_records(2, vec![(10u64, &[0u32, 1][..], &[2u32][..])]);
        let second = ShingleGraph::from_records(2, std::iter::empty());
        let p = partition_clusters(5, &first, &second);
        assert_eq!(p.n_groups(), 5);
    }

    #[test]
    fn transitive_linking_across_second_level_shingles() {
        // Two second-level shingles sharing first-level shingle 1 must
        // merge everything into one cluster.
        let first = ShingleGraph::from_records(
            1,
            vec![
                (10u64, &[0u32][..], &[10u32][..]),
                (20, &[1], &[11][..]),
                (30, &[2], &[12][..]),
            ],
        );
        let second = ShingleGraph::from_records(
            1,
            vec![
                (70u64, &[10u32][..], &[0u32, 1][..]),
                (80, &[11], &[1, 2][..]),
            ],
        );
        let p = partition_clusters(13, &first, &second);
        let g = p.group_of(0).unwrap();
        for v in [1u32, 2, 10, 11] {
            assert_eq!(p.group_of(v), Some(g), "vertex {v}");
        }
    }
}
