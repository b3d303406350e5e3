//! Immutable compressed-sparse-row graph representation.

use serde::{Deserialize, Serialize};

use crate::{GraphError, VertexId};

/// A simple undirected graph in compressed-sparse-row (CSR) form.
///
/// This is the single graph type consumed by every algorithm in the
/// workspace: the CDRW random-walk probability push, the CONGEST simulator,
/// the baselines and the metrics all iterate neighbourhoods through this
/// structure. The representation is immutable; use [`crate::GraphBuilder`] to
/// construct one.
///
/// Vertices are the integers `0..n`. Neighbour lists are sorted, which makes
/// `has_edge` a binary search and keeps iteration deterministic (important
/// for reproducible experiments).
///
/// ## Optional edge weights
///
/// A graph built through [`crate::GraphBuilder::add_weighted_edge`] carries a
/// weight lane parallel to `neighbors`: `weights[k]` is the (positive,
/// finite) weight of the edge slot `neighbors[k]`, stored once per
/// direction. Unweighted graphs carry no lane at all, and every weighted
/// accessor degenerates to the structural quantity — `weighted_degree(v)`
/// is exactly `degree(v) as f64` — so algorithms written against the
/// weighted accessors are bit-identical to their pre-weight behaviour on
/// unweighted input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<VertexId>,
    /// Number of undirected edges `m`.
    num_edges: usize,
    /// Optional per-edge-slot weights, parallel to `neighbors`.
    weights: Option<Vec<f64>>,
    /// Precomputed weighted degrees `w(v) = Σ_u w(v,u)` (row-order sums);
    /// present iff `weights` is.
    weighted_degrees: Option<Vec<f64>>,
    /// Cached weighted volume `w(V) = Σ_v w(v)`; 0.0 when unweighted.
    weight_volume: f64,
}

impl Graph {
    /// Assembles a graph from raw CSR parts.
    ///
    /// Intended for [`crate::GraphBuilder`] and [`crate::DeltaGraph::commit`];
    /// the parts are trusted to be consistent (symmetric, sorted, no
    /// self-loops).
    pub(crate) fn from_csr_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        num_edges: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(neighbors.len(), 2 * num_edges);
        Graph {
            offsets,
            neighbors,
            num_edges,
            weights: None,
            weighted_degrees: None,
            weight_volume: 0.0,
        }
    }

    /// Assembles a weighted graph from raw CSR parts plus a weight lane
    /// parallel to `neighbors`.
    ///
    /// Intended for [`crate::GraphBuilder`] and [`crate::DeltaGraph::commit`];
    /// the parts are trusted to be consistent (symmetric slots with
    /// symmetric weights, sorted, no self-loops, weights positive and
    /// finite).
    pub(crate) fn from_weighted_csr_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        weights: Vec<f64>,
        num_edges: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert_eq!(neighbors.len(), 2 * num_edges);
        debug_assert_eq!(weights.len(), neighbors.len());
        debug_assert!(weights.iter().all(|w| w.is_finite() && *w > 0.0));
        let num_vertices = offsets.len() - 1;
        let mut weighted_degrees = Vec::with_capacity(num_vertices);
        for v in 0..num_vertices {
            // Row-order summation via fold(0.0, +): deterministic, exact for
            // integer-valued weights (all-1.0 rows sum to exactly
            // `degree(v) as f64`), and +0.0 on empty rows (`Iterator::sum`
            // would yield -0.0).
            let row = &weights[offsets[v]..offsets[v + 1]];
            weighted_degrees.push(row.iter().fold(0.0, |acc, w| acc + w));
        }
        let weight_volume = weighted_degrees.iter().fold(0.0, |acc, w| acc + w);
        Graph {
            offsets,
            neighbors,
            num_edges,
            weights: Some(weights),
            weighted_degrees: Some(weighted_degrees),
            weight_volume,
        }
    }

    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: usize) -> Self {
        Graph {
            offsets: vec![0; num_vertices + 1],
            neighbors: Vec::new(),
            num_edges: 0,
            weights: None,
            weighted_degrees: None,
            weight_volume: 0.0,
        }
    }

    /// The number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The volume of the whole graph, `µ(V) = 2m`.
    pub fn total_volume(&self) -> usize {
        2 * self.num_edges
    }

    /// The degree `d(v)` of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Whether the graph carries an edge-weight lane.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The weighted degree `w(v) = Σ_u w(v, u)`.
    ///
    /// On an unweighted graph this is exactly `degree(v) as f64`, so walk
    /// code can use it unconditionally without changing the unweighted
    /// arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn weighted_degree(&self, v: VertexId) -> f64 {
        match &self.weighted_degrees {
            Some(wd) => wd[v],
            None => self.degree(v) as f64,
        }
    }

    /// The weighted volume `w(V) = Σ_v w(v)`; equals `total_volume() as f64`
    /// on an unweighted graph.
    pub fn weighted_volume(&self) -> f64 {
        if self.weights.is_some() {
            self.weight_volume
        } else {
            self.total_volume() as f64
        }
    }

    /// The weights of `v`'s edge slots, parallel to [`Self::neighbor_slice`],
    /// or `None` on an unweighted graph.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn weight_slice(&self, v: VertexId) -> Option<&[f64]> {
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[v]..self.offsets[v + 1]])
    }

    /// The weight of the edge `(u, v)` if present: the stored weight on a
    /// weighted graph, `1.0` on an unweighted one, `None` when the edge (or
    /// either endpoint) does not exist.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f64> {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return None;
        }
        let k = self.neighbor_slice(u).binary_search(&v).ok()?;
        Some(match self.weight_slice(u) {
            Some(ws) => ws[k],
            None => 1.0,
        })
    }

    /// Iterator over the vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.num_vertices()
    }

    /// Iterator over the (sorted) neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        Neighbors {
            inner: self.neighbors[self.offsets[v]..self.offsets[v + 1]].iter(),
        }
    }

    /// The neighbours of `v` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the edge `(u, v)` is present.
    ///
    /// Runs in `O(log d(u))`. Out-of-range vertices simply yield `false`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        self.neighbor_slice(u).binary_search(&v).is_ok()
    }

    /// Iterator over every undirected edge `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbor_slice(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree `∆` of the graph, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Validates that a vertex id is in range.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] when `v >= n`.
    pub fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if v < self.num_vertices() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices(),
            })
        }
    }
}

/// Iterator over the neighbours of a vertex (see [`Graph::neighbors`]).
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: std::slice::Iter<'a, VertexId>,
}

impl<'a> Iterator for Neighbors<'a> {
    type Item = VertexId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a> ExactSizeIterator for Neighbors<'a> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    fn path_graph(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    fn complete_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn empty_graph_properties() {
        let g = Graph::empty(7);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_volume(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn path_graph_degrees_and_edges() {
        let g = path_graph(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(4), 1);
        assert_eq!(g.max_degree(), 2);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn complete_graph_has_all_edges() {
        let g = complete_graph(6);
        assert_eq!(g.num_edges(), 15);
        for u in 0..6 {
            assert_eq!(g.degree(u), 5);
            for v in 0..6 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn has_edge_out_of_range_is_false() {
        let g = path_graph(3);
        assert!(!g.has_edge(0, 10));
        assert!(!g.has_edge(10, 0));
    }

    #[test]
    fn check_vertex_errors() {
        let g = path_graph(3);
        assert!(g.check_vertex(2).is_ok());
        assert_eq!(
            g.check_vertex(3),
            Err(GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            })
        );
    }

    #[test]
    fn neighbors_iterator_is_exact_size() {
        let g = complete_graph(4);
        let it = g.neighbors(1);
        assert_eq!(it.len(), 3);
        assert_eq!(it.collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn unweighted_accessors_degenerate_to_structural_quantities() {
        let g = path_graph(4);
        assert!(!g.is_weighted());
        for v in g.vertices() {
            assert_eq!(
                g.weighted_degree(v).to_bits(),
                (g.degree(v) as f64).to_bits()
            );
            assert!(g.weight_slice(v).is_none());
        }
        assert_eq!(g.weighted_volume(), g.total_volume() as f64);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(0, 2), None);
        assert_eq!(g.edge_weight(0, 10), None);
    }

    #[test]
    fn weighted_accessors_report_the_weight_lane() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.5).unwrap();
        b.add_weighted_edge(1, 2, 0.5).unwrap();
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.weighted_degree(0), 2.5);
        assert_eq!(g.weighted_degree(1), 3.0);
        assert_eq!(g.weighted_degree(2), 0.5);
        assert_eq!(g.weighted_volume(), 6.0);
        assert_eq!(g.weight_slice(1), Some(&[2.5, 0.5][..]));
        assert_eq!(g.edge_weight(2, 1), Some(0.5));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn rebuilding_from_edge_list_is_identity() {
        let g = complete_graph(5);
        let edges: Vec<_> = g.edges().collect();
        let rebuilt = crate::GraphBuilder::from_edges(g.num_vertices(), edges).unwrap();
        assert_eq!(g, rebuilt);
    }

    proptest! {
        /// Edge iteration yields each edge exactly once with u < v, and the
        /// count matches `num_edges`.
        #[test]
        fn edges_iteration_consistent(edges in proptest::collection::vec((0usize..25, 0usize..25), 0..150)) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let g = GraphBuilder::from_edges(25, clean).unwrap();
            let listed: Vec<_> = g.edges().collect();
            prop_assert_eq!(listed.len(), g.num_edges());
            for &(u, v) in &listed {
                prop_assert!(u < v);
                prop_assert!(g.has_edge(u, v));
            }
        }
    }
}
