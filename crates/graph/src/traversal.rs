//! Breadth-first search, BFS trees, connected components, balls and diameter.
//!
//! CDRW's distributed implementation uses a BFS tree rooted at the seed node
//! for all of its broadcast / convergecast aggregation (Algorithm 1, line 5),
//! and the theoretical analysis reasons about the balls `B_ℓ` of radius `ℓ`
//! around the seed (Lemma 1). This module provides the corresponding
//! sequential primitives.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::{Graph, GraphError, VertexId};

/// Distance value meaning "unreachable".
pub const UNREACHABLE: usize = usize::MAX;

/// Result of a breadth-first search: hop distances from the source.
///
/// Distances of vertices in other connected components are [`UNREACHABLE`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfsDistances {
    source: VertexId,
    distances: Vec<usize>,
}

impl BfsDistances {
    /// The source vertex of the search.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Hop distance from the source to `v`, or `None` if unreachable.
    pub fn distance(&self, v: VertexId) -> Option<usize> {
        match self.distances.get(v) {
            Some(&d) if d != UNREACHABLE => Some(d),
            _ => None,
        }
    }

    /// The raw distance vector (unreachable encoded as [`UNREACHABLE`]).
    pub fn as_slice(&self) -> &[usize] {
        &self.distances
    }

    /// Largest finite distance (the eccentricity of the source within its
    /// component). Returns 0 for a single-vertex component.
    pub fn eccentricity(&self) -> usize {
        self.distances
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

/// Runs breadth-first search from `source` and returns the hop distances.
///
/// # Errors
///
/// Returns [`GraphError::VertexOutOfRange`] if `source >= n`.
pub fn bfs_distances(graph: &Graph, source: VertexId) -> Result<BfsDistances, GraphError> {
    graph.check_vertex(source)?;
    let mut distances = vec![UNREACHABLE; graph.num_vertices()];
    let mut queue = VecDeque::new();
    distances[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = distances[u] + 1;
        for v in graph.neighbors(u) {
            if distances[v] == UNREACHABLE {
                distances[v] = next;
                queue.push_back(v);
            }
        }
    }
    Ok(BfsDistances { source, distances })
}

/// A BFS tree rooted at a source node, as built by the seed node of CDRW.
///
/// The tree records, for every reachable vertex, its parent, its depth and
/// its children; the CONGEST simulator uses the same structure for broadcast
/// and convergecast cost accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BfsTree {
    root: VertexId,
    parent: Vec<Option<VertexId>>,
    depth_of: Vec<usize>,
    children: Vec<Vec<VertexId>>,
    depth: usize,
    reachable: usize,
}

impl BfsTree {
    /// Builds the BFS tree rooted at `root`, truncated at `max_depth` hops
    /// (pass `usize::MAX` for no truncation).
    ///
    /// CDRW builds a BFS tree of depth `O(log n)` (Algorithm 1, line 5), so
    /// truncation is a first-class parameter here.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if `root >= n`.
    pub fn build(graph: &Graph, root: VertexId, max_depth: usize) -> Result<Self, GraphError> {
        graph.check_vertex(root)?;
        let n = graph.num_vertices();
        let mut parent = vec![None; n];
        let mut depth_of = vec![UNREACHABLE; n];
        let mut children = vec![Vec::new(); n];
        let mut queue = VecDeque::new();
        depth_of[root] = 0;
        queue.push_back(root);
        let mut deepest = 0usize;
        let mut reachable = 1usize;
        while let Some(u) = queue.pop_front() {
            let next = depth_of[u] + 1;
            if next > max_depth {
                continue;
            }
            for v in graph.neighbors(u) {
                if depth_of[v] == UNREACHABLE {
                    depth_of[v] = next;
                    parent[v] = Some(u);
                    children[u].push(v);
                    deepest = deepest.max(next);
                    reachable += 1;
                    queue.push_back(v);
                }
            }
        }
        Ok(BfsTree {
            root,
            parent,
            depth_of,
            children,
            depth: deepest,
            reachable,
        })
    }

    /// The root of the tree.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Depth (number of levels below the root) of the tree.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of vertices in the tree (reachable within the depth cap).
    pub fn num_tree_vertices(&self) -> usize {
        self.reachable
    }

    /// Parent of `v` in the tree, `None` for the root or untouched vertices.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.parent.get(v).copied().flatten()
    }

    /// Depth of `v`, or `None` if `v` is not in the tree.
    pub fn depth_of(&self, v: VertexId) -> Option<usize> {
        match self.depth_of.get(v) {
            Some(&d) if d != UNREACHABLE => Some(d),
            _ => None,
        }
    }

    /// Children of `v` in the tree.
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        self.children.get(v).map(|c| c.as_slice()).unwrap_or(&[])
    }

    /// Whether `v` belongs to the tree.
    pub fn contains(&self, v: VertexId) -> bool {
        self.depth_of(v).is_some()
    }

    /// Vertices of the tree grouped by level, from the root downward.
    ///
    /// Level `i` of the returned vector holds the vertices at depth `i`. This
    /// ordering is what a convergecast (leaves to root) or broadcast (root to
    /// leaves) walks over, one level per CONGEST round.
    pub fn levels(&self) -> Vec<Vec<VertexId>> {
        let mut levels = vec![Vec::new(); self.depth + 1];
        for (v, &d) in self.depth_of.iter().enumerate() {
            if d != UNREACHABLE {
                levels[d].push(v);
            }
        }
        levels
    }
}

/// Computes the ball `B_ℓ(center)`: all vertices within hop distance `radius`.
///
/// This is the set appearing in Lemma 1 of the paper ("the largest mixing set
/// is the ball `B_{⌊ℓ/2⌋}`"). The returned vector is sorted.
///
/// # Errors
///
/// Returns [`GraphError::VertexOutOfRange`] if `center >= n`.
pub fn ball(graph: &Graph, center: VertexId, radius: usize) -> Result<Vec<VertexId>, GraphError> {
    let dist = bfs_distances(graph, center)?;
    let mut members: Vec<VertexId> = graph
        .vertices()
        .filter(|&v| dist.distance(v).map(|d| d <= radius).unwrap_or(false))
        .collect();
    members.sort_unstable();
    Ok(members)
}

/// Connected components of the graph.
///
/// Returns `(component_id_per_vertex, number_of_components)`; component ids
/// are contiguous, assigned in order of discovery by increasing vertex id.
fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.num_vertices();
    let mut component = vec![usize::MAX; n];
    let mut next_id = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        component[start] = next_id;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in graph.neighbors(u) {
                if component[v] == usize::MAX {
                    component[v] = next_id;
                    queue.push_back(v);
                }
            }
        }
        next_id += 1;
    }
    (component, next_id)
}

/// Whether the graph is connected. The empty graph is considered connected.
pub fn is_connected(graph: &Graph) -> bool {
    if graph.num_vertices() == 0 {
        return true;
    }
    connected_components(graph).1 == 1
}

/// Exact diameter of the graph via one BFS per vertex.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] when the graph is disconnected or
/// [`GraphError::EmptyGraph`] when it has no vertices.
pub fn diameter(graph: &Graph) -> Result<usize, GraphError> {
    if graph.num_vertices() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if !is_connected(graph) {
        return Err(GraphError::Disconnected);
    }
    let mut best = 0usize;
    for v in graph.vertices() {
        let ecc = bfs_distances(graph, v)?.eccentricity();
        best = best.max(ecc);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    fn path_graph(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    fn cycle_graph(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn star_graph(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (1..n).map(|i| (0, i))).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0).unwrap();
        assert_eq!(d.source(), 0);
        for v in 0..5 {
            assert_eq!(d.distance(v), Some(v));
        }
        assert_eq!(d.eccentricity(), 4);
    }

    #[test]
    fn bfs_distances_unreachable_component() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&g, 0).unwrap();
        assert_eq!(d.distance(1), Some(1));
        assert_eq!(d.distance(2), None);
        assert_eq!(d.distance(3), None);
    }

    #[test]
    fn bfs_source_out_of_range() {
        let g = path_graph(3);
        assert!(bfs_distances(&g, 5).is_err());
    }

    #[test]
    fn bfs_tree_on_star_has_depth_one() {
        let g = star_graph(6);
        let tree = BfsTree::build(&g, 0, usize::MAX).unwrap();
        assert_eq!(tree.root(), 0);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.num_tree_vertices(), 6);
        assert_eq!(tree.children(0).len(), 5);
        for v in 1..6 {
            assert_eq!(tree.parent(v), Some(0));
            assert_eq!(tree.depth_of(v), Some(1));
            assert!(tree.children(v).is_empty());
        }
    }

    #[test]
    fn bfs_tree_depth_truncation() {
        let g = path_graph(10);
        let tree = BfsTree::build(&g, 0, 3).unwrap();
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.num_tree_vertices(), 4);
        assert!(tree.contains(3));
        assert!(!tree.contains(4));
        assert_eq!(tree.depth_of(9), None);
    }

    #[test]
    fn bfs_tree_levels_partition_tree_vertices() {
        let g = cycle_graph(8);
        let tree = BfsTree::build(&g, 0, usize::MAX).unwrap();
        let levels = tree.levels();
        let total: usize = levels.iter().map(|l| l.len()).sum();
        assert_eq!(total, tree.num_tree_vertices());
        assert_eq!(levels[0], vec![0]);
        // On an 8-cycle the farthest vertex is at distance 4.
        assert_eq!(tree.depth(), 4);
    }

    #[test]
    fn parents_point_one_level_up() {
        let g = cycle_graph(9);
        let tree = BfsTree::build(&g, 4, usize::MAX).unwrap();
        for v in g.vertices() {
            if v == 4 {
                assert_eq!(tree.parent(v), None);
                continue;
            }
            let p = tree.parent(v).unwrap();
            assert_eq!(tree.depth_of(v).unwrap(), tree.depth_of(p).unwrap() + 1);
            assert!(g.has_edge(v, p));
        }
    }

    #[test]
    fn ball_growth_on_path() {
        let g = path_graph(7);
        assert_eq!(ball(&g, 3, 0).unwrap(), vec![3]);
        assert_eq!(ball(&g, 3, 1).unwrap(), vec![2, 3, 4]);
        assert_eq!(ball(&g, 3, 2).unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(ball(&g, 3, 100).unwrap().len(), 7);
    }

    #[test]
    fn connected_components_counts() {
        let g = GraphBuilder::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected_by_convention() {
        assert!(is_connected(&Graph::empty(0)));
        assert!(diameter(&Graph::empty(0)).is_err());
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&path_graph(6)).unwrap(), 5);
        assert_eq!(diameter(&cycle_graph(8)).unwrap(), 4);
        assert_eq!(diameter(&star_graph(9)).unwrap(), 2);
    }

    #[test]
    fn diameter_errors_on_disconnected() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), Err(GraphError::Disconnected));
    }

    proptest! {
        /// BFS distances satisfy the triangle-ish property along edges:
        /// adjacent vertices differ by at most one hop.
        #[test]
        fn bfs_distance_lipschitz_along_edges(edges in proptest::collection::vec((0usize..15, 0usize..15), 1..80)) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(15, clean).unwrap();
            let d = bfs_distances(&g, 0).unwrap();
            for (u, v) in g.edges() {
                match (d.distance(u), d.distance(v)) {
                    (Some(a), Some(b)) => {
                        let diff = a.abs_diff(b);
                        prop_assert!(diff <= 1);
                    }
                    (None, None) => {}
                    // One endpoint reachable and the other not would violate
                    // BFS correctness.
                    _ => prop_assert!(false, "edge with exactly one reachable endpoint"),
                }
            }
        }

        /// Balls are monotone in the radius and eventually cover the
        /// component of the center.
        #[test]
        fn balls_are_monotone(edges in proptest::collection::vec((0usize..12, 0usize..12), 1..50)) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(12, clean).unwrap();
            let mut previous = 0usize;
            for radius in 0..12 {
                let b = ball(&g, 0, radius).unwrap();
                prop_assert!(b.len() >= previous);
                previous = b.len();
            }
            let d = bfs_distances(&g, 0).unwrap();
            let reachable = g.vertices().filter(|&v| d.distance(v).is_some()).count();
            prop_assert_eq!(previous, reachable);
        }
    }
}
