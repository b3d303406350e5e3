//! Mutable builder producing immutable CSR [`Graph`]s.

use crate::{Graph, GraphError, VertexId};

/// Incremental builder for simple undirected graphs.
///
/// The builder records validated edges in a flat list; duplicates are
/// resolved by one sort + dedup at [`GraphBuilder::build`] time (the random
/// generators may propose the same pair twice when composing block-diagonal
/// and off-diagonal edges), and self-loops are rejected at insertion. This
/// makes `add_edge` an `O(1)` push — the previous per-vertex ordered-set
/// representation paid `O(log d)` *and* a cache-hostile tree allocation per
/// insertion, which made full-scale PPM generation the dominant cost of the
/// quick benches. [`GraphBuilder::build`] produces an immutable [`Graph`] in
/// compressed-sparse-row form via one counting sort over the deduplicated
/// list; a property test pins the produced CSR identical to the ordered-set
/// reference builder.
///
/// # Example
///
/// ```
/// use cdrw_graph::GraphBuilder;
///
/// # fn main() -> Result<(), cdrw_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(1, 0)?; // duplicate, deduplicated at build
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
/// ## Weighted edges
///
/// [`GraphBuilder::add_weighted_edge`] switches the builder into weighted
/// mode: every recorded edge carries a positive finite weight (plain
/// [`GraphBuilder::add_edge`] insertions contribute weight `1.0`), and
/// duplicate insertions of the same pair are resolved by *summing* their
/// weights at [`GraphBuilder::build`] time — the natural semantics for
/// multigraph-style inputs collapsed to a simple weighted graph. A builder
/// that never sees `add_weighted_edge` builds a weight-free [`Graph`] whose
/// CSR is bit-identical to the pre-weight-lane output.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Recorded edges, normalised to `(min, max)`; may contain duplicates
    /// until [`GraphBuilder::build`] sorts and deduplicates them.
    edges: Vec<(VertexId, VertexId)>,
    /// Weight per recorded edge, parallel to `edges`; engaged by the first
    /// [`GraphBuilder::add_weighted_edge`] (earlier plain insertions are
    /// backfilled with `1.0`).
    weights: Option<Vec<f64>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `num_vertices` isolated vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
            weights: None,
        }
    }

    /// Whether the builder is in weighted mode (at least one
    /// [`GraphBuilder::add_weighted_edge`] insertion).
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Returns `true` if the edge `(u, v)` has been recorded.
    ///
    /// Linear in the edges added so far — a debugging/testing convenience,
    /// not a hot-path operation (the built [`Graph::has_edge`] is a binary
    /// search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let key = (u.min(v), u.max(v));
        self.edges.contains(&key)
    }

    /// Records the undirected edge `(u, v)`.
    ///
    /// Duplicate edges are accepted and deduplicated at
    /// [`GraphBuilder::build`] time.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        let n = self.num_vertices;
        if u >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                num_vertices: n,
            });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.edges.push((u.min(v), u.max(v)));
        if let Some(w) = &mut self.weights {
            w.push(1.0);
        }
        Ok(())
    }

    /// Records the undirected edge `(u, v)` with weight `weight`, switching
    /// the builder into weighted mode.
    ///
    /// Duplicate insertions of the same pair are resolved at
    /// [`GraphBuilder::build`] time by summing their weights. Edges recorded
    /// through plain [`GraphBuilder::add_edge`] — before or after this call —
    /// contribute weight `1.0`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::InvalidParameter`] unless `weight` is finite and
    ///   strictly positive (zero or negative mass has no meaning for the
    ///   walk operator, and positivity keeps `w(v) = 0 ⟺ d(v) = 0`).
    pub fn add_weighted_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: f64,
    ) -> Result<(), GraphError> {
        if !(weight.is_finite() && weight > 0.0) {
            return Err(GraphError::InvalidParameter {
                name: "weight",
                reason: format!("edge weight must be finite and positive, got {weight}"),
            });
        }
        let recorded = self.edges.len();
        self.add_edge(u, v)?;
        match &mut self.weights {
            Some(w) => {
                // `add_edge` pushed the placeholder 1.0; overwrite it.
                w[recorded] = weight;
            }
            None => {
                // Engage the weight lane, backfilling earlier plain edges.
                let mut w = vec![1.0; recorded];
                w.push(weight);
                self.weights = Some(w);
            }
        }
        Ok(())
    }

    /// Adds every edge from an iterator of pairs.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first error produced by [`GraphBuilder::add_edge`].
    fn add_edges<I>(&mut self, edges: I) -> Result<(), GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v)?;
        }
        Ok(())
    }

    /// Consumes the builder and produces the immutable CSR [`Graph`]:
    /// sort + dedup of the edge list (weighted mode merges duplicates by
    /// summing their weights), then a counting sort into the CSR arrays.
    /// Total `O(E log E + n)`.
    pub fn build(mut self) -> Graph {
        let edge_weights = match self.weights.take() {
            None => {
                self.edges.sort_unstable();
                self.edges.dedup();
                None
            }
            Some(weights) => {
                // Sort the insertion indices by pair so the weights travel
                // with their edges, then merge duplicates by summing in
                // sorted order (deterministic: ties broken by insertion
                // index, so equal pairs sum first-inserted first).
                let mut order: Vec<usize> = (0..self.edges.len()).collect();
                order.sort_unstable_by_key(|&i| (self.edges[i], i));
                let mut merged = Vec::with_capacity(self.edges.len());
                let mut merged_w: Vec<f64> = Vec::with_capacity(self.edges.len());
                for &i in &order {
                    if merged.last() == Some(&self.edges[i]) {
                        *merged_w.last_mut().unwrap() += weights[i];
                    } else {
                        merged.push(self.edges[i]);
                        merged_w.push(weights[i]);
                    }
                }
                self.edges = merged;
                Some(merged_w)
            }
        };
        let n = self.num_vertices;
        let m = self.edges.len();

        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill both directions in one pass over the (min, max)-sorted list:
        // vertex x first receives its smaller neighbours (from pairs (c, x),
        // c ascending) and then its larger ones (from pairs (x, d), d
        // ascending), so every adjacency list comes out sorted.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; 2 * m];
        match edge_weights {
            None => {
                for &(u, v) in &self.edges {
                    neighbors[cursor[u]] = v;
                    cursor[u] += 1;
                    neighbors[cursor[v]] = u;
                    cursor[v] += 1;
                }
                Graph::from_csr_parts(offsets, neighbors, m)
            }
            Some(ws) => {
                // Same cursor fill with the weight lane travelling alongside:
                // both directed slots of an edge carry the same weight.
                let mut lane = vec![0.0f64; 2 * m];
                for (&(u, v), &w) in self.edges.iter().zip(&ws) {
                    neighbors[cursor[u]] = v;
                    lane[cursor[u]] = w;
                    cursor[u] += 1;
                    neighbors[cursor[v]] = u;
                    lane[cursor[v]] = w;
                    cursor[v] += 1;
                }
                Graph::from_weighted_csr_parts(offsets, neighbors, lane, m)
            }
        }
    }
}

/// Builds a graph directly from an edge list.
///
/// Convenience wrapper over [`GraphBuilder`] used pervasively in tests.
///
/// # Errors
///
/// Propagates the first invalid edge ([`GraphError::VertexOutOfRange`] or
/// [`GraphError::SelfLoop`]).
///
/// # Example
///
/// ```
/// let g = cdrw_graph::GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.degree(1), 2);
/// # Ok::<(), cdrw_graph::GraphError>(())
/// ```
impl GraphBuilder {
    /// See the type-level documentation; builds a [`Graph`] from an edge list.
    ///
    /// # Errors
    ///
    /// Propagates the first invalid edge.
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut builder = GraphBuilder::new(num_vertices);
        builder.add_edges(edges)?;
        Ok(builder.build())
    }

    /// Builds a weighted [`Graph`] from `(u, v, weight)` triples; duplicate
    /// pairs merge by summing their weights.
    ///
    /// # Errors
    ///
    /// Propagates the first invalid edge or weight.
    pub fn from_weighted_edges<I>(num_vertices: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId, f64)>,
    {
        let mut builder = GraphBuilder::new(num_vertices);
        for (u, v, w) in edges {
            builder.add_weighted_edge(u, v, w)?;
        }
        Ok(builder.build())
    }
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The pre-edge-list builder, kept verbatim as the reference the
    /// counting-sort build is pinned against: per-vertex ordered sets,
    /// deduplicated at insertion, concatenated into CSR.
    fn reference_build(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut adjacency: Vec<BTreeSet<VertexId>> = vec![BTreeSet::new(); num_vertices];
        let mut num_edges = 0usize;
        for &(u, v) in edges {
            if adjacency[u].insert(v) {
                adjacency[v].insert(u);
                num_edges += 1;
            }
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut neighbors = Vec::with_capacity(2 * num_edges);
        offsets.push(0usize);
        for set in &adjacency {
            neighbors.extend(set.iter().copied());
            offsets.push(neighbors.len());
        }
        Graph::from_csr_parts(offsets, neighbors, num_edges)
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        for v in 0..5 {
            assert_eq!(g.degree(v), 0);
            assert_eq!(g.neighbors(v).count(), 0);
        }
    }

    #[test]
    fn duplicate_edges_are_deduplicated_at_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        // All three insertions collapse to one edge in the built graph.
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
    }

    #[test]
    fn out_of_range_vertex_is_rejected() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            })
        );
        assert_eq!(
            b.add_edge(9, 0),
            Err(GraphError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 3
            })
        );
    }

    #[test]
    fn has_edge_reflects_insertions() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2).unwrap();
        assert!(b.has_edge(0, 2));
        assert!(b.has_edge(2, 0));
        assert!(!b.has_edge(0, 1));
        assert!(!b.has_edge(7, 1));
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.num_edges(), 4);
        for v in 0..4 {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn neighbors_are_sorted_in_csr() {
        let g = GraphBuilder::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let neighbors: Vec<_> = g.neighbors(2).collect();
        assert_eq!(neighbors, vec![0, 1, 3, 4]);
    }

    #[test]
    fn weighted_duplicates_merge_by_summing() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.5).unwrap();
        b.add_weighted_edge(1, 0, 2.0).unwrap();
        b.add_edge(0, 1).unwrap(); // plain insertion contributes 1.0
        b.add_weighted_edge(1, 2, 4.0).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(4.5));
        assert_eq!(g.edge_weight(1, 2), Some(4.0));
        assert_eq!(g.weighted_degree(1), 8.5);
    }

    #[test]
    fn plain_edges_before_the_first_weighted_edge_are_backfilled() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        assert!(!b.is_weighted());
        b.add_weighted_edge(1, 2, 3.0).unwrap();
        assert!(b.is_weighted());
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
    }

    #[test]
    fn invalid_weights_are_rejected() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_weighted_edge(0, 1, 0.0),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.add_weighted_edge(0, 1, -1.0),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.add_weighted_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.add_weighted_edge(0, 1, f64::INFINITY),
            Err(GraphError::InvalidParameter { .. })
        ));
        // A rejected weight must not engage weighted mode or record an edge.
        assert!(!b.is_weighted());
        // An invalid endpoint on a valid weight must not record either.
        assert!(b.add_weighted_edge(0, 9, 1.0).is_err());
        assert_eq!(b.build().num_edges(), 0);
    }

    proptest! {
        /// All-weights-1.0 builds the same CSR as the unweighted builder,
        /// with every weighted accessor degenerating bit-identically.
        #[test]
        fn unit_weights_match_the_unweighted_build(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..120),
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let plain = GraphBuilder::from_edges(20, clean.iter().copied()).unwrap();
            let unit = GraphBuilder::from_weighted_edges(
                20,
                clean.iter().map(|&(u, v)| (u, v, 1.0)),
            )
            .unwrap();
            prop_assert_eq!(unit.num_edges(), plain.num_edges());
            for v in 0..20usize {
                prop_assert_eq!(unit.neighbor_slice(v), plain.neighbor_slice(v));
                // Duplicate insertions sum their 1.0 weights, so only
                // duplicate-free inputs promise unit weights; degree
                // equality holds regardless.
                prop_assert_eq!(unit.degree(v), plain.degree(v));
            }
        }

        /// On duplicate-free weighted inputs the weighted degree is the
        /// row-order sum of the incident weights, and all-1.0 weights make
        /// it exactly `degree as f64`.
        #[test]
        fn weighted_degrees_sum_the_lane(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 0..50),
        ) {
            let mut seen = std::collections::BTreeSet::new();
            let clean: Vec<_> = edges
                .into_iter()
                .filter(|&(u, v)| u != v && seen.insert((u.min(v), u.max(v))))
                .collect();
            let unit = GraphBuilder::from_weighted_edges(
                12,
                clean.iter().map(|&(u, v)| (u, v, 1.0)),
            )
            .unwrap();
            for v in 0..12usize {
                prop_assert_eq!(unit.weighted_degree(v).to_bits(), (unit.degree(v) as f64).to_bits());
            }
            prop_assert_eq!(unit.weighted_volume().to_bits(), (unit.total_volume() as f64).to_bits());
        }
    }

    proptest! {
        /// The counting-sort build produces a CSR identical — offsets,
        /// neighbour arrays, edge count, the lot — to the ordered-set
        /// reference builder on arbitrary edge lists with duplicates.
        #[test]
        fn build_matches_the_ordered_set_reference(
            edges in proptest::collection::vec((0usize..30, 0usize..30), 0..250),
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let g = GraphBuilder::from_edges(30, clean.iter().copied()).unwrap();
            let reference = reference_build(30, &clean);
            prop_assert_eq!(g, reference);
        }

        /// Building from an arbitrary edge list preserves the handshake lemma
        /// (sum of degrees equals twice the number of edges) and symmetry.
        #[test]
        fn csr_invariants_hold(edges in proptest::collection::vec((0usize..30, 0usize..30), 0..200)) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let g = GraphBuilder::from_edges(30, clean).unwrap();
            let degree_sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.num_edges());
            for u in 0..g.num_vertices() {
                for v in g.neighbors(u) {
                    prop_assert!(g.has_edge(v, u), "edge ({}, {}) not symmetric", u, v);
                }
            }
        }

        /// `has_edge` agrees between builder and built graph.
        #[test]
        fn builder_and_graph_agree(edges in proptest::collection::vec((0usize..15, 0usize..15), 0..60)) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            let mut b = GraphBuilder::new(15);
            b.add_edges(clean).unwrap();
            let b_snapshot = b.clone();
            let g = b.build();
            for u in 0..15 {
                for v in 0..15 {
                    prop_assert_eq!(b_snapshot.has_edge(u, v), g.has_edge(u, v));
                }
            }
        }
    }
}
