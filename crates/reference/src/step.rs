//! The dense walk step.

use cdrw_graph::Graph;

/// One step of the (lazy) random walk over the whole vertex set: returns
/// `p_ℓ` given `p_{ℓ−1}`.
///
/// Each vertex `u` sends `p(u)·α` to itself and `p(u)·(1−α)·w(u,v)/w(u)`
/// to each neighbour `v` — on an unweighted graph `p(u)/d(u)`, the per-round
/// local flooding of Algorithm 1 (lines 9–11). A zero-degree vertex keeps
/// its mass. The loop visits every vertex and shares no code with the
/// sparse engine, which must reproduce it bit for bit.
///
/// # Panics
///
/// Panics if `distribution` is not over the graph's vertices.
pub fn dense_step(graph: &Graph, laziness: f64, distribution: &[f64]) -> Vec<f64> {
    assert_eq!(
        distribution.len(),
        graph.num_vertices(),
        "distribution is over {} vertices but the graph has {}",
        distribution.len(),
        graph.num_vertices()
    );
    let mut next = vec![0.0f64; graph.num_vertices()];
    let move_fraction = 1.0 - laziness;
    for u in graph.vertices() {
        let p = distribution[u];
        if p == 0.0 {
            continue;
        }
        let degree = graph.degree(u);
        if degree == 0 {
            // Nowhere to go: the mass stays.
            next[u] += p;
            continue;
        }
        if laziness > 0.0 {
            next[u] += p * laziness;
        }
        let share = p * move_fraction / graph.weighted_degree(u);
        match graph.weight_slice(u) {
            None => {
                for v in graph.neighbors(u) {
                    next[v] += share;
                }
            }
            Some(row_weights) => {
                for (&v, &w) in graph.neighbor_slice(u).iter().zip(row_weights) {
                    next[v] += share * w;
                }
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    fn complete(n: usize) -> Graph {
        cdrw_gen::special::complete(n).unwrap().0
    }

    fn point_mass(n: usize, source: usize) -> Vec<f64> {
        let mut p = vec![0.0; n];
        p[source] = 1.0;
        p
    }

    fn stationary(graph: &Graph) -> Vec<f64> {
        let volume = graph.weighted_volume();
        graph
            .vertices()
            .map(|v| graph.weighted_degree(v) / volume)
            .collect()
    }

    fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    fn walk(graph: &Graph, laziness: f64, mut p: Vec<f64>, steps: usize) -> Vec<f64> {
        for _ in 0..steps {
            p = dense_step(graph, laziness, &p);
        }
        p
    }

    #[test]
    fn one_step_from_point_mass_on_path() {
        let p1 = dense_step(&path(3), 0.0, &point_mass(3, 1));
        // Vertex 1 has two neighbours; mass splits evenly.
        assert!((p1[0] - 0.5).abs() < 1e-15);
        assert!((p1[2] - 0.5).abs() < 1e-15);
        assert_eq!(p1[1], 0.0);
    }

    #[test]
    fn mass_is_conserved() {
        let g = cycle(20);
        let mut d = point_mass(20, 0);
        for _ in 0..50 {
            d = dense_step(&g, 0.0, &d);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stationary_distribution_is_a_fixpoint() {
        let g = path(6);
        let pi = stationary(&g);
        assert!(l1(&pi, &dense_step(&g, 0.0, &pi)) < 1e-12);
    }

    #[test]
    fn lazy_stationary_is_also_a_fixpoint() {
        let g = path(6);
        let pi = stationary(&g);
        assert!(l1(&pi, &dense_step(&g, 0.5, &pi)) < 1e-12);
    }

    #[test]
    fn simple_walk_oscillates_on_bipartite_lazy_walk_converges() {
        // Complete bipartite K_{2,2} = 4-cycle: the simple walk from one side
        // alternates sides forever, the lazy walk converges.
        let g = cycle(4);
        let pi = stationary(&g);
        let simple_after = walk(&g, 0.0, point_mass(4, 0), 41);
        let lazy_after = walk(&g, 0.5, point_mass(4, 0), 41);
        // Simple walk after an odd number of steps has all mass on the odd side.
        assert!(l1(&simple_after, &pi) > 0.9);
        assert!(l1(&lazy_after, &pi) < 1e-3);
    }

    #[test]
    fn walk_on_complete_graph_mixes_in_one_step_from_uniform_neighbours() {
        let g = complete(10);
        let p2 = walk(&g, 0.0, point_mass(10, 0), 2);
        assert!(l1(&p2, &stationary(&g)) < 0.3);
    }

    #[test]
    fn weighted_step_splits_mass_by_edge_weight() {
        // Vertex 1 has neighbours 0 (weight 1) and 2 (weight 3): the walk
        // moves with probabilities 1/4 and 3/4.
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.0).unwrap();
        b.add_weighted_edge(1, 2, 3.0).unwrap();
        let g = b.build();
        let p1 = dense_step(&g, 0.0, &point_mass(3, 1));
        assert!((p1[0] - 0.25).abs() < 1e-15);
        assert!((p1[2] - 0.75).abs() < 1e-15);
        // The weighted stationary distribution is still a fixpoint.
        let pi = stationary(&g);
        assert!(l1(&pi, &dense_step(&g, 0.0, &pi)) < 1e-12);
    }
}
