//! Shard-local sub-CSR extraction for distributed execution.
//!
//! A k-machine shard homes a subset of the vertices and stores the incident
//! edges of exactly those vertices (the storage rule of the random vertex
//! partition). [`SubCsr`] materialises that shard-local view as its own
//! compact CSR: row `i` is the full global adjacency list of the `i`-th owned
//! vertex, with neighbour identifiers kept *global* so degrees — and
//! therefore the walk's transition probabilities — are identical to the whole
//! graph's. The rows are copied with one counting pass over the owned
//! degrees followed by straight `extend_from_slice` row copies, the same
//! counting-sort shape as [`crate::GraphBuilder`]'s CSR assembly.
//!
//! The extraction also records, per owned vertex, its *peers*: the remote
//! shards homing at least one of its neighbours, ascending. A vertex with a
//! peer is a *boundary* vertex, whose walk mass must travel over the network
//! each step; the peer lists are the shard engine's routing table, one
//! share per (source, peer) per walk step.

use crate::csr::Graph;
use crate::VertexId;

/// A shard's slice of a [`Graph`]: the rows of its owned vertices, neighbour
/// identifiers global, plus the owned→global map and the per-vertex peer
/// lists.
#[derive(Debug, Clone, PartialEq)]
pub struct SubCsr {
    /// Owned vertices in ascending global order.
    owned: Vec<VertexId>,
    /// Row offsets into `neighbors`; length `owned.len() + 1`.
    offsets: Vec<usize>,
    /// Concatenated adjacency rows, global vertex identifiers.
    neighbors: Vec<VertexId>,
    /// Optional per-edge-slot weights, parallel to `neighbors`; copied from
    /// the originating graph's weight lane when it has one.
    weights: Option<Vec<f64>>,
    /// Weighted degree per owned vertex, copied from the originating graph
    /// (bit-identical to its row-order sums); present iff `weights` is.
    weighted_degrees: Option<Vec<f64>>,
    /// Offsets into `peers`; length `owned.len() + 1`.
    peer_offsets: Vec<usize>,
    /// Concatenated per-owned-vertex peer lists: the remote shards homing a
    /// neighbour, ascending and duplicate-free.
    peers: Vec<usize>,
    /// Vertex count of the originating graph (global id range).
    num_global_vertices: usize,
}

impl SubCsr {
    /// Extracts the sub-CSR of `owned` (must be sorted ascending and
    /// duplicate-free) from `graph`. `home` maps a *global* vertex to the
    /// shard homing it; every owned vertex must map to this shard.
    ///
    /// # Panics
    ///
    /// Panics if `owned` is unsorted/duplicated or contains an out-of-range
    /// vertex.
    pub fn extract<F>(graph: &Graph, owned: &[VertexId], home: F) -> Self
    where
        F: Fn(VertexId) -> usize,
    {
        assert!(
            owned.windows(2).all(|w| w[0] < w[1]),
            "owned vertices must be sorted and duplicate-free"
        );
        if let Some(&last) = owned.last() {
            assert!(
                last < graph.num_vertices(),
                "owned vertex {last} out of range (n = {})",
                graph.num_vertices()
            );
        }
        // Counting pass: size the row arena from the owned degrees.
        let mut offsets = Vec::with_capacity(owned.len() + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for &v in owned {
            total += graph.degree(v);
            offsets.push(total);
        }
        let mut neighbors = Vec::with_capacity(total);
        let mut weights = graph.is_weighted().then(|| Vec::with_capacity(total));
        let mut peer_offsets = Vec::with_capacity(owned.len() + 1);
        peer_offsets.push(0usize);
        let mut peers = Vec::new();
        for &v in owned {
            let row = graph.neighbor_slice(v);
            neighbors.extend_from_slice(row);
            if let Some(lane) = &mut weights {
                lane.extend_from_slice(graph.weight_slice(v).expect("weighted graph has rows"));
            }
            let here = home(v);
            let first = peers.len();
            for &u in row {
                let m = home(u);
                if m != here && !peers[first..].contains(&m) {
                    peers.push(m);
                }
            }
            peers[first..].sort_unstable();
            peer_offsets.push(peers.len());
        }
        let weighted_degrees = graph
            .is_weighted()
            .then(|| owned.iter().map(|&v| graph.weighted_degree(v)).collect());
        SubCsr {
            owned: owned.to_vec(),
            offsets,
            neighbors,
            weights,
            weighted_degrees,
            peer_offsets,
            peers,
            num_global_vertices: graph.num_vertices(),
        }
    }

    /// The owned vertices, ascending global order.
    pub fn owned(&self) -> &[VertexId] {
        &self.owned
    }

    /// Number of owned vertices.
    pub fn num_owned(&self) -> usize {
        self.owned.len()
    }

    /// Whether this shard owns no vertices (possible when `k > n`).
    pub fn is_empty(&self) -> bool {
        self.owned.is_empty()
    }

    /// Vertex count of the originating graph.
    pub fn num_global_vertices(&self) -> usize {
        self.num_global_vertices
    }

    /// Global identifier of the `i`-th owned vertex.
    pub fn global(&self, i: usize) -> VertexId {
        self.owned[i]
    }

    /// Local index of global vertex `v`, if owned here.
    pub fn local_of(&self, v: VertexId) -> Option<usize> {
        self.owned.binary_search(&v).ok()
    }

    /// Degree of the `i`-th owned vertex — equal to its global degree, since
    /// a shard stores the full row of every owned vertex.
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Global neighbour identifiers of the `i`-th owned vertex, in the same
    /// ascending order as the originating graph's row.
    pub fn neighbor_slice(&self, i: usize) -> &[VertexId] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether the shard carries the originating graph's edge-weight lane.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Weights of the `i`-th owned vertex's edge slots, parallel to
    /// [`Self::neighbor_slice`], or `None` when the graph is unweighted.
    pub fn weight_slice(&self, i: usize) -> Option<&[f64]> {
        self.weights
            .as_ref()
            .map(|w| &w[self.offsets[i]..self.offsets[i + 1]])
    }

    /// Weighted degree `w(v)` of the `i`-th owned vertex — equal (bitwise)
    /// to its global weighted degree, and exactly `degree(i) as f64` on an
    /// unweighted graph.
    pub fn weighted_degree(&self, i: usize) -> f64 {
        match &self.weighted_degrees {
            Some(wd) => wd[i],
            None => self.degree(i) as f64,
        }
    }

    /// The remote shards homing at least one neighbour of the `i`-th owned
    /// vertex, ascending and duplicate-free.
    pub fn peers(&self, i: usize) -> &[usize] {
        &self.peers[self.peer_offsets[i]..self.peer_offsets[i + 1]]
    }

    /// Total stored edge endpoints (the sum of owned degrees — the shard's
    /// share of the graph's volume).
    pub fn stored_endpoints(&self) -> usize {
        self.neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn rows_match_the_global_graph() {
        let g = path(6);
        let owned = [1usize, 3, 4];
        let sub = SubCsr::extract(&g, &owned, |v| usize::from(!owned.contains(&v)));
        assert_eq!(sub.num_owned(), 3);
        assert_eq!(sub.num_global_vertices(), 6);
        for (i, &v) in owned.iter().enumerate() {
            assert_eq!(sub.global(i), v);
            assert_eq!(sub.local_of(v), Some(i));
            assert_eq!(sub.degree(i), g.degree(v));
            assert_eq!(sub.neighbor_slice(i), g.neighbor_slice(v));
        }
        assert_eq!(sub.local_of(0), None);
        assert_eq!(
            sub.stored_endpoints(),
            owned.iter().map(|&v| g.degree(v)).sum::<usize>()
        );
    }

    #[test]
    fn boundary_map_marks_remote_neighbours() {
        let g = path(5);
        // Own {3, 4}: vertex 3 borders remote vertex 2; vertex 4's only
        // neighbour (3) is local.
        let owned = [3usize, 4];
        let sub = SubCsr::extract(&g, &owned, |v| usize::from(!owned.contains(&v)));
        assert_eq!(sub.peers(0), &[1]);
        assert_eq!(sub.peers(1), &[] as &[usize]);
    }

    #[test]
    fn peers_list_each_remote_home_once_ascending() {
        // Vertex 2 of a 5-vertex star centred on it, leaves homed on shards
        // 2, 1, 2 and 0: the centre (shard 0) has one peer per remote home.
        let g = GraphBuilder::from_edges(5, (0..5).filter(|&v| v != 2).map(|v| (2, v))).unwrap();
        let assignment = [2usize, 1, 0, 2, 0];
        let sub = SubCsr::extract(&g, &[2, 4], |v| assignment[v]);
        assert_eq!(sub.peers(0), &[1, 2]);
        assert_eq!(sub.peers(1), &[] as &[usize]);
    }

    #[test]
    fn all_neighbours_remote_is_fully_boundary() {
        // A star with the centre owned alone: every stored endpoint is
        // remote.
        let g = GraphBuilder::from_edges(5, (1..5).map(|leaf| (0, leaf))).unwrap();
        let sub = SubCsr::extract(&g, &[0], |v| usize::from(v != 0));
        assert_eq!(sub.peers(0), &[1]);
        assert_eq!(sub.stored_endpoints(), 4);
    }

    #[test]
    fn empty_shard_is_well_formed() {
        let g = path(4);
        let sub = SubCsr::extract(&g, &[], |_| 1);
        assert!(sub.is_empty());
        assert_eq!(sub.num_owned(), 0);
        assert_eq!(sub.stored_endpoints(), 0);
    }

    #[test]
    fn shards_cover_the_graph_volume() {
        let g = path(7);
        let assignment = [0usize, 1, 0, 2, 1, 0, 2];
        let total: usize = (0..3)
            .map(|m| {
                let owned: Vec<VertexId> = (0..7).filter(|&v| assignment[v] == m).collect();
                SubCsr::extract(&g, &owned, |v| assignment[v]).stored_endpoints()
            })
            .sum();
        assert_eq!(total, g.total_volume());
    }

    #[test]
    fn weighted_rows_travel_with_the_shard() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        b.add_weighted_edge(1, 2, 3.0).unwrap();
        b.add_weighted_edge(2, 3, 4.0).unwrap();
        let g = b.build();
        let owned = [1usize, 3];
        let sub = SubCsr::extract(&g, &owned, |v| usize::from(!owned.contains(&v)));
        assert!(sub.is_weighted());
        assert_eq!(sub.weight_slice(0), Some(&[2.0, 3.0][..]));
        assert_eq!(sub.weight_slice(1), Some(&[4.0][..]));
        for (i, &v) in owned.iter().enumerate() {
            assert_eq!(
                sub.weighted_degree(i).to_bits(),
                g.weighted_degree(v).to_bits()
            );
        }
        let unweighted = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let plain = SubCsr::extract(&unweighted, &owned, |v| usize::from(!owned.contains(&v)));
        assert!(!plain.is_weighted());
        assert_eq!(plain.weight_slice(0), None);
        assert_eq!(plain.weighted_degree(0), 2.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_owned_list_panics() {
        let g = path(4);
        let _ = SubCsr::extract(&g, &[2, 1], |_| 0);
    }
}
