//! The serial Shingling implementation (pClust).
//!
//! This is the reference the paper benchmarks against ("our serial
//! implementation") and the correctness oracle for the GPU pipeline: both
//! derive their hash families from the same parameters, so for any graph
//! and seed the serial and device paths must produce identical partitions.
//!
//! The runtime is dominated — the paper profiles ~80 % — by the per-trial
//! hashing and top-s selection in the two passes: O(m · c · s) overall.

use crate::aggregate::{aggregate, StreamAggregator};
use crate::minwise::{hash_with, pack, unpack_element, HashFamily};
use crate::params::ShinglingParams;
use crate::report;
use crate::shingle::{AdjacencyInput, RawShingles};
use gpclust_gpu::thrust::select_smallest_into;
use gpclust_graph::UnionFind;
use gpclust_graph::{Csr, Partition, ShingleGraph, VertexId};

/// One full serial shingling pass over `input`, streaming each
/// `(trial, node, top-s pairs)` record to `f` as it is produced. Records
/// arrive grouped (one per `(trial, node)`), pairs sorted ascending by
/// (hash, element), always exactly `s` of them.
pub fn shingle_pass_foreach(
    input: &impl AdjacencyInput,
    s: usize,
    family: &HashFamily,
    mut f: impl FnMut(u32, u32, &[crate::minwise::PackedHash]),
) {
    let mut top = vec![0; s];
    let n = input.n_nodes();
    for trial in 0..family.len() {
        let (a, b) = family.coeffs(trial);
        for node in 0..n {
            let list = input.list(node);
            if list.len() < s {
                continue;
            }
            select_smallest_into(list, &mut top, |v| pack(hash_with(a, b, v), v));
            f(trial as u32, node as u32, &top);
        }
    }
}

/// One full serial shingling pass over `input`: `c = family.len()` trials,
/// shingle size `s`, materializing raw records for every node with ≥ s
/// links. Prefer [`shingle_pass_foreach`] in memory-sensitive paths.
pub fn shingle_pass(input: &impl AdjacencyInput, s: usize, family: &HashFamily) -> RawShingles {
    let mut raw = RawShingles::new(s);
    shingle_pass_foreach(input, s, family, |trial, node, pairs| {
        raw.push(trial, node, pairs);
    });
    raw.mark_grouped();
    raw
}

/// Intermediate products of a full two-pass run, exposed for inspection
/// (the bipartite graphs G′ and G″ of the paper).
#[derive(Debug, Clone)]
pub struct ShinglingRun {
    /// First-level shingle graph G′(S1, V′l, E′).
    pub first: ShingleGraph,
    /// Second-level shingle graph G″(S2, S′1, E″).
    pub second: ShingleGraph,
}

/// The serial pClust clustering algorithm.
#[derive(Debug, Clone)]
pub struct SerialShingling {
    params: ShinglingParams,
}

impl SerialShingling {
    /// Create with validated parameters.
    pub fn new(params: ShinglingParams) -> Result<Self, String> {
        params.validate()?;
        Ok(SerialShingling { params })
    }

    /// The configured parameters.
    pub fn params(&self) -> &ShinglingParams {
        &self.params
    }

    /// Run both shingling passes, returning the intermediate graphs.
    pub fn run(&self, g: &Csr) -> ShinglingRun {
        let raw1 = shingle_pass(g, self.params.s1, &self.params.family_pass1());
        let first = aggregate(&raw1);
        drop(raw1); // raw records dwarf the aggregated graph at scale
        let raw2 = shingle_pass(&first, self.params.s2, &self.params.family_pass2());
        let second = aggregate(&raw2);
        ShinglingRun { first, second }
    }

    /// Cluster `g` with the union–find (non-overlapping) reporting the
    /// paper adopts. Vertices in no dense subgraph remain singletons.
    ///
    /// Pass I streams into a [`StreamAggregator`]; pass II streams straight
    /// into the union–find (G″ is never materialized), so peak memory is
    /// O(|E′|), matching the paper's stated complexity.
    pub fn cluster(&self, g: &Csr) -> Partition {
        let mut agg1 = StreamAggregator::new(self.params.s1);
        shingle_pass_foreach(g, self.params.s1, &self.params.family_pass1(), |t, n, p| {
            agg1.push(t, n, p.iter().map(|&p| unpack_element(p)));
        });
        let first = agg1.finish();
        let mut uf = UnionFind::new(g.n());
        shingle_pass_foreach(
            &first,
            self.params.s2,
            &self.params.family_pass2(),
            |_, node, pairs| {
                report::union_second_level_record(
                    &mut uf,
                    &first,
                    node,
                    pairs.iter().map(|&p| unpack_element(p)),
                );
            },
        );
        Partition::from_union_find(&mut uf)
    }

    /// Reference implementation of [`SerialShingling::cluster`] that
    /// materializes both shingle graphs (used by tests as the oracle for
    /// the streaming variant, and by callers that also want the graphs).
    pub fn cluster_materialized(&self, g: &Csr) -> Partition {
        let run = self.run(g);
        report::partition_clusters(g.n(), &run.first, &run.second)
    }

    /// Cluster `g` with the overlapping connected-component reporting.
    pub fn cluster_overlapping(&self, g: &Csr) -> Vec<Vec<VertexId>> {
        let run = self.run(g);
        report::overlap_clusters(&run.first, &run.second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpclust_graph::generate::{planted_partition, PlantedConfig};
    use gpclust_graph::EdgeList;

    fn params() -> ShinglingParams {
        ShinglingParams::light(42)
    }

    fn planted(sizes: &[usize], noise: usize, seed: u64) -> (Csr, Partition) {
        let pg = planted_partition(&PlantedConfig {
            group_sizes: sizes.to_vec(),
            n_noise_vertices: noise,
            p_intra: 0.95,
            max_intra_degree: f64::MAX,
            inter_edges_per_vertex: 0.0,
            seed,
        });
        (pg.graph, pg.truth)
    }

    #[test]
    fn recovers_planted_cliques() {
        let (g, truth) = planted(&[12, 15, 9], 4, 5);
        let p = SerialShingling::new(params()).unwrap().cluster(&g);
        // Every planted group must land inside one reported cluster.
        for grp in truth.groups() {
            let c0 = p.group_of(grp[0]);
            assert!(c0.is_some());
            for &v in grp {
                assert_eq!(p.group_of(v), c0, "vertex {v} strayed");
            }
        }
        // Distinct planted groups must land in distinct clusters (they are
        // disconnected components here).
        let cids: std::collections::HashSet<_> = truth
            .groups()
            .iter()
            .map(|grp| p.group_of(grp[0]).unwrap())
            .collect();
        assert_eq!(cids.len(), 3);
    }

    #[test]
    fn noise_vertices_stay_singletons() {
        let (g, truth) = planted(&[10, 10], 6, 7);
        let p = SerialShingling::new(params()).unwrap().cluster(&g);
        for v in 0..g.n() as u32 {
            if truth.group_of(v).is_none() {
                // Noise has no edges here; it must be its own cluster.
                let gid = p.group_of(v).unwrap();
                assert_eq!(p.group(gid as usize), &[v]);
            }
        }
    }

    #[test]
    fn streaming_equals_materialized() {
        // The streaming Phase III (no G″) must produce the exact partition
        // of the materialized reference, on graphs with noise and bridges.
        for seed in [3u64, 9, 21] {
            let pg = planted_partition(&PlantedConfig {
                group_sizes: vec![18, 25, 7, 40],
                n_noise_vertices: 12,
                p_intra: 0.7,
                max_intra_degree: f64::MAX,
                inter_edges_per_vertex: 1.5,
                seed,
            });
            let alg = SerialShingling::new(ShinglingParams::light(seed)).unwrap();
            assert_eq!(
                alg.cluster(&pg.graph),
                alg.cluster_materialized(&pg.graph),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, _) = planted(&[20, 8], 3, 11);
        let alg = SerialShingling::new(params()).unwrap();
        assert_eq!(alg.cluster(&g), alg.cluster(&g));
    }

    #[test]
    fn different_seed_may_change_details_but_keeps_cliques() {
        let (g, truth) = planted(&[14, 14], 0, 13);
        for seed in [1u64, 2, 3] {
            let alg = SerialShingling::new(ShinglingParams::light(seed)).unwrap();
            let p = alg.cluster(&g);
            for grp in truth.groups() {
                let c0 = p.group_of(grp[0]);
                for &v in grp {
                    assert_eq!(p.group_of(v), c0, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn sparse_vertices_skipped() {
        // Vertices of degree < s1 generate no shingles; a path graph with
        // s1 = 2 gives interior vertices (deg 2) shingles but no shared
        // ones beyond chance.
        let mut el: EdgeList = (0..9u32).map(|v| (v, v + 1)).collect();
        let g = Csr::from_edges(10, &mut el);
        let alg = SerialShingling::new(params()).unwrap();
        let run = alg.run(&g);
        // Endpoint vertices (deg 1) must not appear as generators.
        for (_, _, _, gens) in run.first.iter() {
            assert!(!gens.contains(&0));
            assert!(!gens.contains(&9));
        }
    }

    #[test]
    fn pass_emits_c_trials_per_eligible_node() {
        let (g, _) = planted(&[6], 0, 17);
        let family = HashFamily::new(10, 3);
        let raw = shingle_pass(&g, 2, &family);
        // All 6 vertices have degree ≥ 2 in a 0.95-dense group of 6.
        let eligible = (0..6u32).filter(|&v| g.degree(v) >= 2).count();
        assert_eq!(raw.len(), eligible * 10);
    }

    #[test]
    fn overlapping_mode_covers_cliques() {
        let (g, truth) = planted(&[10, 10], 2, 19);
        let clusters = SerialShingling::new(params())
            .unwrap()
            .cluster_overlapping(&g);
        for grp in truth.groups() {
            let found = clusters.iter().any(|c| grp.iter().all(|v| c.contains(v)));
            assert!(found, "planted group not covered: {grp:?}");
        }
    }

    #[test]
    fn empty_graph() {
        let mut el = EdgeList::new();
        let g = Csr::from_edges(4, &mut el);
        let p = SerialShingling::new(params()).unwrap().cluster(&g);
        assert_eq!(p.n_groups(), 4); // all singletons
    }

    #[test]
    fn rejects_invalid_params() {
        let mut p = ShinglingParams::light(0);
        p.c1 = 0;
        assert!(SerialShingling::new(p).is_err());
    }
}
