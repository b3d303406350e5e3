//! Deterministic structured graphs used in tests and ablations.
//!
//! These are not part of the paper's evaluation but serve two purposes in the
//! reproduction: they give the algorithm crates small, fully predictable
//! inputs (a ring of cliques has an obvious community structure and known
//! conductance), and they exercise failure modes the random models rarely hit
//! (e.g. the bipartite graph on which plain label propagation oscillates).

use cdrw_graph::{Graph, GraphBuilder, Partition};

use crate::{generate_gnp, generate_sbm, GenError, GnpParams, SbmParams};

/// A ring of `num_cliques` cliques of size `clique_size`, adjacent cliques
/// joined by a single bridge edge.
///
/// Each clique is an obvious planted community: its conductance is
/// `2 / (clique_size·(clique_size − 1) + 2)`, far below the intra-clique
/// expansion. Returns the graph and the ground-truth partition (one community
/// per clique).
///
/// # Errors
///
/// Returns [`GenError::InvalidSize`] when `num_cliques == 0` or
/// `clique_size < 2` (a 1-clique cannot host a bridge pattern), or when
/// `num_cliques == 2` and `clique_size == 2` (the ring degenerates into a
/// multigraph).
pub fn ring_of_cliques(
    num_cliques: usize,
    clique_size: usize,
) -> Result<(Graph, Partition), GenError> {
    if num_cliques == 0 {
        return Err(GenError::InvalidSize {
            reason: "need at least one clique".to_string(),
        });
    }
    if clique_size < 2 {
        return Err(GenError::InvalidSize {
            reason: "cliques must have at least two vertices".to_string(),
        });
    }
    if num_cliques == 2 && clique_size == 2 {
        return Err(GenError::InvalidSize {
            reason: "a ring of two 2-cliques collapses into a multigraph".to_string(),
        });
    }
    let n = num_cliques * clique_size;
    let mut builder = GraphBuilder::new(n);
    for c in 0..num_cliques {
        let base = c * clique_size;
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                builder.add_edge(base + i, base + j)?;
            }
        }
    }
    // Bridge: last vertex of clique c to first vertex of clique c+1 (mod r).
    if num_cliques > 1 {
        for c in 0..num_cliques {
            let from = c * clique_size + (clique_size - 1);
            let to = ((c + 1) % num_cliques) * clique_size;
            builder.add_edge(from, to)?;
        }
    }
    let assignment: Vec<usize> = (0..n).map(|v| v / clique_size).collect();
    Ok((builder.build(), Partition::from_assignment(assignment)?))
}

/// The complete bipartite graph `K_{a,b}`.
///
/// Used as the canonical adversarial input for label propagation (the paper
/// notes LPA "can run forever on a bipartite graph"). The returned partition
/// is the two sides: the two-block SBM with `B = [[0, 1], [1, 0]]`.
///
/// # Errors
///
/// Returns [`GenError::InvalidSize`] when either side is empty.
pub fn complete_bipartite(a: usize, b: usize) -> Result<(Graph, Partition), GenError> {
    let sides = SbmParams::new(vec![a, b], vec![vec![0.0, 1.0], vec![1.0, 0.0]])?;
    generate_sbm(&sides, 0)
}

/// A cycle on `n` vertices (the worst case for mixing time among connected
/// bounded-degree graphs). The partition returned is the trivial single
/// community.
///
/// # Errors
///
/// Returns [`GenError::InvalidSize`] when `n < 3`.
pub fn cycle(n: usize) -> Result<(Graph, Partition), GenError> {
    if n < 3 {
        return Err(GenError::InvalidSize {
            reason: "a simple cycle needs at least three vertices".to_string(),
        });
    }
    let graph = GraphBuilder::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))?;
    Ok((graph, Partition::single_community(n)?))
}

/// The complete graph `K_n`, i.e. `G(n, 1)`, as a single community.
///
/// # Errors
///
/// Returns [`GenError::InvalidSize`] when `n == 0`.
pub fn complete(n: usize) -> Result<(Graph, Partition), GenError> {
    let graph = generate_gnp(&GnpParams::new(n, 1.0)?, 0)?;
    Ok((graph, Partition::single_community(n)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::{properties, traversal};

    #[test]
    fn ring_of_cliques_structure() {
        let (graph, truth) = ring_of_cliques(4, 5).unwrap();
        assert_eq!(graph.num_vertices(), 20);
        // 4 cliques of C(5,2) = 10 edges plus 4 bridges.
        assert_eq!(graph.num_edges(), 44);
        assert_eq!(truth.num_communities(), 4);
        assert!(traversal::is_connected(&graph));
        // Clique conductance: 2 bridge edges / volume (4·5 + 2·1 = 22).
        let phi = properties::set_conductance(&graph, truth.members(0));
        assert!((phi - 2.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn single_clique_ring_is_just_a_clique() {
        let (graph, truth) = ring_of_cliques(1, 6).unwrap();
        assert_eq!(graph.num_edges(), 15);
        assert_eq!(truth.num_communities(), 1);
    }

    #[test]
    fn ring_of_cliques_rejects_degenerate_sizes() {
        assert!(ring_of_cliques(0, 5).is_err());
        assert!(ring_of_cliques(3, 1).is_err());
        assert!(ring_of_cliques(2, 2).is_err());
    }

    #[test]
    fn complete_bipartite_shape() {
        let (graph, truth) = complete_bipartite(3, 4).unwrap();
        assert_eq!(graph.num_vertices(), 7);
        assert_eq!(graph.num_edges(), 12);
        assert_eq!(truth.community_sizes(), vec![3, 4]);
        // No edge inside either side.
        assert_eq!(properties::internal_edges(&graph, truth.members(0)), 0);
        assert_eq!(properties::internal_edges(&graph, truth.members(1)), 0);
        assert!(complete_bipartite(0, 4).is_err());
    }

    #[test]
    fn cycle_shape() {
        let (graph, truth) = cycle(10).unwrap();
        assert_eq!(graph.num_edges(), 10);
        assert_eq!(truth.num_communities(), 1);
        assert_eq!(graph.max_degree(), 2);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn complete_graph_shape() {
        let (graph, _) = complete(7).unwrap();
        assert_eq!(graph.num_edges(), 21);
        assert_eq!(traversal::diameter(&graph).unwrap(), 1);
        assert!(complete(0).is_err());
    }
}
