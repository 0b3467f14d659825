//! Inputs the unit tests share.

use crate::params::ShinglingParams;
use crate::report::DistinctLists;
use crate::serial::SerialShingling;
use gpclust_graph::generate::{planted_partition, PlantedConfig};
use gpclust_graph::Csr;

/// A dense planted graph: its owner closure leaves hundreds of member
/// lists unsettled, so Pass II still runs and batches on small devices.
/// Sparser planted graphs often settle every list.
pub(crate) fn pass_two_graph(seed: u64) -> Csr {
    planted_partition(&PlantedConfig {
        group_sizes: vec![80, 60, 50],
        n_noise_vertices: 20,
        p_intra: 0.8,
        max_intra_degree: f64::MAX,
        inter_edges_per_vertex: 1.0,
        seed,
    })
    .graph
}

/// The unsettled member lists Pass II runs over on `g`: a Pass-II test
/// asserts a floor on it, so settling cannot leave it nothing to run.
pub(crate) fn unsettled_lists(g: &Csr, params: ShinglingParams) -> usize {
    let first = SerialShingling::new(params).unwrap().run(g).first;
    DistinctLists::new(&first, params.s2, g.n()).len()
}
