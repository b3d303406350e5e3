//! Cost formulas for the distributed primitives CDRW is composed of.
//!
//! The formulas below are the textbook CONGEST costs of each primitive; the
//! BFS flooding cost is additionally validated against the real node-program
//! simulation of the test-only `network` module (see the
//! `costs_agree_with_simulation` test). The CDRW runner charges these costs
//! while executing the same decision logic as the sequential algorithm,
//! which keeps the detected communities bit-identical to `cdrw-core` while
//! producing the round and message counts of the distributed execution.

use cdrw_graph::{traversal::BfsTree, Graph, VertexId};
use cdrw_walk::WalkWorkspace;

use crate::CostAccount;

/// Cost of building a BFS tree of depth `≤ max_depth` from `root` by
/// flooding: `depth` rounds, and one message over every edge incident to a
/// reached vertex (each reached vertex announces once to all neighbours).
///
/// Returns the tree (for later aggregation costs) together with the cost.
///
/// # Errors
///
/// Propagates [`cdrw_graph::GraphError`] for an out-of-range root.
pub fn bfs_tree_cost(
    graph: &Graph,
    root: VertexId,
    max_depth: usize,
) -> Result<(BfsTree, CostAccount), cdrw_graph::GraphError> {
    let tree = BfsTree::build(graph, root, max_depth)?;
    let messages: u64 = graph
        .vertices()
        .filter(|&v| tree.contains(v))
        .map(|v| graph.degree(v) as u64)
        .sum();
    let cost = CostAccount {
        rounds: tree.depth() as u64,
        messages,
    };
    Ok((tree, cost))
}

/// Cost of one probability-flooding walk step (Algorithm 1, lines 9–11):
/// one round; every vertex currently holding probability mass sends to all of
/// its neighbours. The dense `O(n)` oracle of [`sparse_walk_step_cost`].
#[cfg(test)]
fn walk_step_cost(graph: &Graph, distribution: &cdrw_walk::WalkDistribution) -> CostAccount {
    let messages: u64 = graph
        .vertices()
        .filter(|&u| distribution.probability(u) > 0.0)
        .map(|u| graph.degree(u) as u64)
        .sum();
    CostAccount {
        rounds: 1,
        messages,
    }
}

/// Cost of one probability-flooding walk step (Algorithm 1, lines 9–11):
/// one round; every vertex currently holding probability mass sends to all
/// of its neighbours. Reads the support directly from a [`WalkWorkspace`]
/// instead of scanning all `n` vertices, costing `O(|support|)`.
///
/// Support membership in the walk layer is maintained by the bit-packed
/// [`cdrw_walk::mask::BitMask`] (one bit per vertex); the support list this
/// reads is exactly the set of mask-set vertices, which a debug assertion
/// checks. The charged cost is layout-independent — the same vertices send
/// over the same edges whether membership is tracked in bits or in 8-byte
/// epoch stamps — so the CONGEST cost model is untouched by the bit-packed
/// rewrite (see PAPER_MAP deviation 12).
pub fn sparse_walk_step_cost(graph: &Graph, workspace: &WalkWorkspace) -> CostAccount {
    debug_assert_eq!(
        workspace.support_mask().count_ones(),
        workspace.support().len(),
        "support mask and support list diverged"
    );
    let mass = workspace.as_slice();
    let messages: u64 = workspace
        .support()
        .iter()
        .filter(|&&u| mass[u] > 0.0)
        .map(|&u| graph.degree(u) as u64)
        .sum();
    CostAccount {
        rounds: 1,
        messages,
    }
}

/// Cost of one broadcast from the root down the BFS tree (or one convergecast
/// from the leaves up): `depth` rounds, one message per tree edge.
pub fn tree_wave_cost(tree: &BfsTree) -> CostAccount {
    CostAccount {
        rounds: tree.depth() as u64,
        messages: tree.num_tree_vertices().saturating_sub(1) as u64,
    }
}

/// Cost of the binary-search aggregation that the source uses to obtain the
/// sum of the `|S|` smallest `x_u` values (Section III, "a better approach"):
/// the root repeatedly broadcasts a pivot and convergecasts the count of
/// nodes below it, needing `O(log n)` iterations; each iteration is one
/// broadcast plus one convergecast.
///
/// `iterations` is the number of pivot refinements actually performed; the
/// runner uses `⌈log₂ n⌉ + 1` which is what the real-valued binary search
/// over `n` distinct scores needs.
pub fn binary_search_cost(tree: &BfsTree, iterations: u64) -> CostAccount {
    let per_iteration = tree_wave_cost(tree) + tree_wave_cost(tree);
    CostAccount {
        rounds: per_iteration.rounds * iterations,
        messages: per_iteration.messages * iterations,
    }
}

/// Number of binary-search iterations charged for a graph of `n` vertices.
pub fn binary_search_iterations(n: usize) -> u64 {
    (n.max(2) as f64).log2().ceil() as u64 + 1
}

/// Cost of announcing the final membership of the detected community (one
/// broadcast of the indicator down the tree, Algorithm 1, line 17).
pub fn membership_broadcast_cost(tree: &BfsTree) -> CostAccount {
    tree_wave_cost(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{prepare_bfs_programs, Simulator};
    use cdrw_graph::GraphBuilder;
    use cdrw_walk::WalkEngine;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn bfs_cost_matches_tree_shape() {
        let g = path(8);
        let (tree, cost) = bfs_tree_cost(&g, 0, usize::MAX).unwrap();
        assert_eq!(tree.depth(), 7);
        assert_eq!(cost.rounds, 7);
        // Every vertex is reached, so messages = 2m = 14.
        assert_eq!(cost.messages, 14);
    }

    #[test]
    fn bfs_cost_respects_depth_cap() {
        let g = path(10);
        let (tree, cost) = bfs_tree_cost(&g, 0, 3).unwrap();
        assert_eq!(tree.depth(), 3);
        assert_eq!(cost.rounds, 3);
        // Reached vertices are 0..=3 with degrees 1,2,2,2.
        assert_eq!(cost.messages, 7);
    }

    #[test]
    fn costs_agree_with_simulation() {
        // The analytic flooding cost must equal the message count measured by
        // the real node-program simulation (on a connected graph where the
        // whole graph is reached).
        let g = cdrw_gen::generate_gnp(&cdrw_gen::GnpParams::new(60, 0.12).unwrap(), 9).unwrap();
        let (tree, cost) = bfs_tree_cost(&g, 0, usize::MAX).unwrap();
        let mut programs = prepare_bfs_programs(&g, 0);
        let outcome = Simulator::new(&g).run(&mut programs, 500).unwrap();
        assert!(outcome.quiescent);
        assert_eq!(cost.messages, outcome.messages);
        // The simulation needs up to two extra rounds for the final
        // deliveries to quiesce; the analytic count is the tree depth.
        assert!(outcome.rounds >= tree.depth() as u64);
        assert!(outcome.rounds <= tree.depth() as u64 + 2);
    }

    #[test]
    fn walk_step_cost_counts_only_support_degrees() {
        let g = path(6);
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(0).unwrap();
        let cost0 = walk_step_cost(&g, &ws.to_distribution().unwrap());
        assert_eq!(cost0.rounds, 1);
        assert_eq!(cost0.messages, 1); // vertex 0 has degree 1
        assert_eq!(sparse_walk_step_cost(&g, &ws), cost0);
        engine.step(&mut ws);
        let cost1 = walk_step_cost(&g, &ws.to_distribution().unwrap());
        assert_eq!(cost1.messages, 2); // vertex 1 has degree 2
        assert_eq!(sparse_walk_step_cost(&g, &ws), cost1);
    }

    #[test]
    fn tree_wave_and_binary_search_costs() {
        let g = path(9);
        let (tree, _) = bfs_tree_cost(&g, 0, usize::MAX).unwrap();
        let wave = tree_wave_cost(&tree);
        assert_eq!(wave.rounds, 8);
        assert_eq!(wave.messages, 8);
        let bs = binary_search_cost(&tree, 4);
        assert_eq!(bs.rounds, 4 * 16);
        assert_eq!(bs.messages, 4 * 16);
        assert_eq!(membership_broadcast_cost(&tree), wave);
    }

    #[test]
    fn binary_search_iterations_grow_logarithmically() {
        assert_eq!(binary_search_iterations(2), 2);
        assert_eq!(binary_search_iterations(1024), 11);
        let small = binary_search_iterations(1 << 8);
        let large = binary_search_iterations(1 << 16);
        assert_eq!(large - small, 8);
    }
}
