//! Volume, cut, conductance and degree statistics.
//!
//! The paper's stopping rule uses the graph conductance `Φ_G` as the growth
//! threshold `δ`, and its analysis is phrased in terms of set volume `µ(S)`,
//! the cut `E(S, V∖S)` and the set conductance
//! `φ(S) = |E(S, V∖S)| / min{µ(S), µ(V∖S)}` (Section I-C). This module
//! implements those quantities plus the estimators used by the experiment
//! harness.

use crate::{Graph, GraphError, VertexId};

/// Volume `µ(S) = Σ_{v∈S} d(v)` of a vertex set.
///
/// Vertices listed more than once are counted once (the set is deduplicated
/// through a membership bitmap), so the result is a true set volume.
pub fn volume(graph: &Graph, set: &[VertexId]) -> usize {
    let mut member = vec![false; graph.num_vertices()];
    let mut total = 0usize;
    for &v in set {
        if v < graph.num_vertices() && !member[v] {
            member[v] = true;
            total += graph.degree(v);
        }
    }
    total
}

/// Number of edges crossing from `set` to the rest of the graph,
/// `|E(S, V∖S)|`.
pub fn cut_size(graph: &Graph, set: &[VertexId]) -> usize {
    let member = membership(graph, set);
    let mut crossing = 0usize;
    for &u in set {
        if u >= graph.num_vertices() || !member[u] {
            continue;
        }
        for v in graph.neighbors(u) {
            if !member[v] {
                crossing += 1;
            }
        }
    }
    crossing
}

/// Number of edges with both endpoints inside `set`.
pub fn internal_edges(graph: &Graph, set: &[VertexId]) -> usize {
    let member = membership(graph, set);
    let mut internal_twice = 0usize;
    for &u in set {
        if u >= graph.num_vertices() {
            continue;
        }
        for v in graph.neighbors(u) {
            if member[v] {
                internal_twice += 1;
            }
        }
    }
    internal_twice / 2
}

/// Conductance of a vertex set,
/// `φ(S) = |E(S, V∖S)| / min{µ(S), µ(V∖S)}`.
///
/// Degenerate cases follow the usual conventions: if either side has zero
/// volume the conductance is defined as 1.0 (the set is either empty,
/// everything, or touches no edges — none of these are a community).
pub fn set_conductance(graph: &Graph, set: &[VertexId]) -> f64 {
    let vol_s = volume(graph, set);
    let vol_rest = graph.total_volume().saturating_sub(vol_s);
    let denominator = vol_s.min(vol_rest);
    if denominator == 0 {
        return 1.0;
    }
    cut_size(graph, set) as f64 / denominator as f64
}

/// Internal edge density of the set: `internal edges / (|S| choose 2)`.
///
/// Used by the experiment harness to report how close each planted block is
/// to its target `p`.
pub fn internal_density(graph: &Graph, set: &[VertexId]) -> f64 {
    let k = dedup_count(graph, set);
    if k < 2 {
        return 0.0;
    }
    let possible = k * (k - 1) / 2;
    internal_edges(graph, set) as f64 / possible as f64
}

/// Sweep-cut estimate of the graph conductance using a BFS-ordered sweep.
///
/// Starts a breadth-first search at the minimum-degree vertex and sweeps the
/// prefixes of the visit order, returning the smallest prefix conductance
/// found. Because BFS grows a connected, locally dense prefix, this finds
/// sparse cuts such as the single bridge between two well-connected blocks.
/// It is a cheap heuristic upper bound on `Φ_G` good enough to act as the
/// `δ` threshold when no ground truth is available.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] for a graph without vertices.
pub fn conductance_sweep_estimate(graph: &Graph) -> Result<f64, GraphError> {
    if graph.num_vertices() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if graph.num_edges() == 0 {
        return Ok(1.0);
    }
    let start = graph
        .vertices()
        .min_by_key(|&v| graph.degree(v))
        .expect("graph has at least one vertex");
    let order = bfs_visit_order(graph, start);
    let mut member = vec![false; graph.num_vertices()];
    let mut vol_s = 0usize;
    let mut cut = 0usize;
    let total = graph.total_volume();
    let mut best = 1.0f64;
    // Sweep all proper non-empty prefixes.
    for (i, &v) in order.iter().enumerate() {
        member[v] = true;
        vol_s += graph.degree(v);
        for w in graph.neighbors(v) {
            if member[w] {
                // This edge used to cross the cut; it no longer does.
                cut -= 1;
            } else {
                cut += 1;
            }
        }
        if i + 1 == order.len() {
            break;
        }
        let denom = vol_s.min(total - vol_s);
        if denom > 0 {
            best = best.min(cut as f64 / denom as f64);
        }
    }
    Ok(best)
}

/// Summary statistics of the weighted degree sequence `w(v)`, reported
/// alongside the structural [`DegreeStats`] when the graph carries a weight
/// lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedDegreeStats {
    /// Minimum weighted degree.
    pub min: f64,
    /// Maximum weighted degree.
    pub max: f64,
    /// Mean weighted degree `w(V)/n`.
    pub mean: f64,
    /// Population standard deviation of the weighted degree sequence.
    pub std_dev: f64,
}

/// Summary statistics of the degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
    /// Population standard deviation of the degree sequence.
    pub std_dev: f64,
    /// Weighted-degree statistics — `Some` iff the graph has a weight lane.
    pub weighted: Option<WeightedDegreeStats>,
}

/// Computes [`DegreeStats`] for the graph. On a weighted graph the
/// `weighted` field additionally summarises the weighted degree sequence.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] for a graph without vertices.
pub fn degree_stats(graph: &Graph) -> Result<DegreeStats, GraphError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let degrees: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let variance = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    let weighted = graph.is_weighted().then(|| {
        let wd: Vec<f64> = graph.vertices().map(|v| graph.weighted_degree(v)).collect();
        let w_mean = graph.weighted_volume() / n as f64;
        let w_variance = wd.iter().map(|&d| (d - w_mean).powi(2)).sum::<f64>() / n as f64;
        WeightedDegreeStats {
            min: wd.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
            max: wd.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
            mean: w_mean,
            std_dev: w_variance.sqrt(),
        }
    });
    Ok(DegreeStats {
        min: *degrees.iter().min().expect("n > 0"),
        max: *degrees.iter().max().expect("n > 0"),
        mean,
        std_dev: variance.sqrt(),
        weighted,
    })
}

/// BFS visit order starting at `start`, followed by any vertices in other
/// components in increasing id order (so the sweep covers the whole graph).
fn bfs_visit_order(graph: &Graph, start: VertexId) -> Vec<VertexId> {
    let mut visited = vec![false; graph.num_vertices()];
    let mut order = Vec::with_capacity(graph.num_vertices());
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for v in graph.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    for v in graph.vertices() {
        if !visited[v] {
            order.push(v);
        }
    }
    order
}

fn membership(graph: &Graph, set: &[VertexId]) -> Vec<bool> {
    let mut member = vec![false; graph.num_vertices()];
    for &v in set {
        if v < graph.num_vertices() {
            member[v] = true;
        }
    }
    member
}

fn dedup_count(graph: &Graph, set: &[VertexId]) -> usize {
    membership(graph, set).iter().filter(|&&b| b).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    /// Two triangles joined by a single bridge edge: {0,1,2} and {3,4,5}.
    fn barbell() -> Graph {
        GraphBuilder::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
            .unwrap()
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
    fn volume_counts_degrees_once() {
        let g = barbell();
        assert_eq!(volume(&g, &[0, 1, 2]), 2 + 2 + 3);
        assert_eq!(volume(&g, &[0, 0, 0]), 2);
        assert_eq!(volume(&g, &[]), 0);
        assert_eq!(
            volume(&g, &g.vertices().collect::<Vec<_>>()),
            g.total_volume()
        );
    }

    #[test]
    fn cut_and_internal_edges_on_barbell() {
        let g = barbell();
        assert_eq!(cut_size(&g, &[0, 1, 2]), 1);
        assert_eq!(internal_edges(&g, &[0, 1, 2]), 3);
        assert_eq!(cut_size(&g, &[0, 1]), 2);
        assert_eq!(internal_edges(&g, &[0, 1]), 1);
        assert_eq!(cut_size(&g, &g.vertices().collect::<Vec<_>>()), 0);
    }

    #[test]
    fn conductance_of_one_triangle() {
        let g = barbell();
        // cut = 1, vol({0,1,2}) = 7, vol(rest) = 7 → φ = 1/7.
        let phi = set_conductance(&g, &[0, 1, 2]);
        assert!((phi - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn conductance_degenerate_cases() {
        let g = barbell();
        assert_eq!(set_conductance(&g, &[]), 1.0);
        let everything: Vec<_> = g.vertices().collect();
        assert_eq!(set_conductance(&g, &everything), 1.0);
        let isolated = Graph::empty(4);
        assert_eq!(set_conductance(&isolated, &[0, 1]), 1.0);
    }

    #[test]
    fn internal_density_of_complete_graph_is_one() {
        let g = complete_graph(6);
        let all: Vec<_> = g.vertices().collect();
        assert!((internal_density(&g, &all) - 1.0).abs() < 1e-12);
        assert_eq!(internal_density(&g, &[0]), 0.0);
    }

    #[test]
    fn sweep_estimate_finds_the_bridge_in_barbell() {
        let g = barbell();
        let est = conductance_sweep_estimate(&g).unwrap();
        // The true Φ is 1/7; the BFS-ordered sweep reaches exactly that cut
        // after visiting the first triangle.
        assert!((est - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_estimate_edge_cases() {
        assert!(conductance_sweep_estimate(&Graph::empty(0)).is_err());
        assert_eq!(conductance_sweep_estimate(&Graph::empty(5)).unwrap(), 1.0);
    }

    #[test]
    fn degree_stats_on_star() {
        let g = GraphBuilder::from_edges(5, (1..5).map(|i| (0, i))).unwrap();
        let stats = degree_stats(&g).unwrap();
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 4);
        assert!((stats.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(stats.std_dev > 0.0);
        assert!(stats.weighted.is_none());
        assert!(degree_stats(&Graph::empty(0)).is_err());
    }

    #[test]
    fn degree_stats_report_the_weight_lane() {
        // Path 0-1-2 with weights 2 and 6: w = [2, 8, 6].
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        b.add_weighted_edge(1, 2, 6.0).unwrap();
        let stats = degree_stats(&b.build()).unwrap();
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 2);
        let w = stats.weighted.expect("weighted graph");
        assert_eq!(w.min, 2.0);
        assert_eq!(w.max, 8.0);
        assert!((w.mean - 16.0 / 3.0).abs() < 1e-12);
        assert!(w.std_dev > 0.0);
    }

    proptest! {
        /// Conductance always lies in [0, 1] and the cut is symmetric:
        /// cut(S) == cut(V \ S).
        #[test]
        fn conductance_in_unit_interval(
            edges in proptest::collection::vec((0usize..14, 0usize..14), 1..80),
            picks in proptest::collection::vec(any::<bool>(), 14),
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(14, clean).unwrap();
            let set: Vec<_> = (0..14).filter(|&v| picks[v]).collect();
            let complement: Vec<_> = (0..14).filter(|&v| !picks[v]).collect();
            let phi = set_conductance(&g, &set);
            prop_assert!((0.0..=1.0).contains(&phi));
            prop_assert_eq!(cut_size(&g, &set), cut_size(&g, &complement));
        }

        /// Volume of a set plus volume of its complement is the total volume,
        /// and internal edges + cut + internal edges of complement = m.
        #[test]
        fn volume_and_edge_partition_identities(
            edges in proptest::collection::vec((0usize..12, 0usize..12), 1..60),
            picks in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(12, clean).unwrap();
            let set: Vec<_> = (0..12).filter(|&v| picks[v]).collect();
            let complement: Vec<_> = (0..12).filter(|&v| !picks[v]).collect();
            prop_assert_eq!(volume(&g, &set) + volume(&g, &complement), g.total_volume());
            let total_edges = internal_edges(&g, &set) + internal_edges(&g, &complement) + cut_size(&g, &set);
            prop_assert_eq!(total_edges, g.num_edges());
        }

        /// The sweep estimate is a valid conductance value (of *some* cut), so
        /// it is always within [0, 1].
        #[test]
        fn sweep_estimate_is_valid(edges in proptest::collection::vec((0usize..12, 0usize..12), 1..60)) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(12, clean).unwrap();
            let est = conductance_sweep_estimate(&g).unwrap();
            prop_assert!((0.0..=1.0).contains(&est));
        }
    }
}
