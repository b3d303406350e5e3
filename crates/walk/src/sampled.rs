//! Token-based sampled random walks, compiled for tests only.
//!
//! CDRW itself never samples trajectories — it evolves the exact distribution
//! — but sampled walks cross-check the push operator: the empirical visit
//! distribution of many sampled walks must converge to the deterministic
//! distribution. A sampled step picks a neighbour uniformly, so these walks
//! are valid on unweighted graphs only.

use cdrw_graph::{Graph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{WalkDistribution, WalkError};

/// Samples a single random-walk trajectory of `length` steps starting at
/// `source`, returning the visited vertices `[v_0 = source, v_1, …, v_length]`.
///
/// If the walk reaches an isolated vertex it stays there for the remaining
/// steps (matching the mass-preserving convention of
/// [`crate::WalkEngine::step`]).
///
/// # Errors
///
/// Returns [`WalkError::Graph`] when `source` is out of range or
/// [`WalkError::EmptyDistribution`] when the graph has no vertices.
pub fn sample_walk(
    graph: &Graph,
    source: VertexId,
    length: usize,
    rng: &mut SmallRng,
) -> Result<Vec<VertexId>, WalkError> {
    if graph.num_vertices() == 0 {
        return Err(WalkError::EmptyDistribution);
    }
    graph.check_vertex(source)?;
    let mut trajectory = Vec::with_capacity(length + 1);
    let mut current = source;
    trajectory.push(current);
    for _ in 0..length {
        let degree = graph.degree(current);
        if degree > 0 {
            let pick = rng.gen_range(0..degree);
            current = graph.neighbor_slice(current)[pick];
        }
        trajectory.push(current);
    }
    Ok(trajectory)
}

/// Estimates the step-`length` distribution of the walk from `source` by
/// sampling `num_walks` independent trajectories and recording their
/// endpoints.
///
/// # Errors
///
/// * [`WalkError::InvalidParameter`] when `num_walks == 0`.
/// * The conditions of [`sample_walk`].
pub fn empirical_distribution(
    graph: &Graph,
    source: VertexId,
    length: usize,
    num_walks: usize,
    seed: u64,
) -> Result<WalkDistribution, WalkError> {
    if num_walks == 0 {
        return Err(WalkError::InvalidParameter {
            name: "num_walks",
            reason: "need at least one sampled walk".to_string(),
        });
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut counts = vec![0usize; graph.num_vertices()];
    for _ in 0..num_walks {
        let trajectory = sample_walk(graph, source, length, &mut rng)?;
        counts[*trajectory.last().expect("trajectory includes the source")] += 1;
    }
    WalkDistribution::from_values(
        counts
            .into_iter()
            .map(|c| c as f64 / num_walks as f64)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalkEngine;
    use cdrw_gen::{generate_gnp, GnpParams};
    use cdrw_graph::GraphBuilder;

    #[test]
    fn trajectory_has_requested_length_and_follows_edges() {
        let g = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let walk = sample_walk(&g, 2, 20, &mut rng).unwrap();
        assert_eq!(walk.len(), 21);
        assert_eq!(walk[0], 2);
        for pair in walk.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]));
        }
    }

    #[test]
    fn isolated_vertex_walk_stays_put() {
        let g = GraphBuilder::from_edges(3, [(0, 1)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let walk = sample_walk(&g, 2, 5, &mut rng).unwrap();
        assert!(walk.iter().all(|&v| v == 2));
    }

    #[test]
    fn input_validation() {
        let g = GraphBuilder::from_edges(3, [(0, 1)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(sample_walk(&g, 9, 5, &mut rng).is_err());
        assert!(sample_walk(&Graph::empty(0), 0, 5, &mut rng).is_err());
        assert!(empirical_distribution(&g, 0, 5, 0, 1).is_err());
    }

    use cdrw_graph::Graph;

    #[test]
    fn empirical_distribution_matches_push_operator() {
        let n = 60;
        let p = 0.15;
        let g = generate_gnp(&GnpParams::new(n, p).unwrap(), 17).unwrap();
        let steps = 4;
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(0).unwrap();
        for _ in 0..steps {
            engine.step(&mut ws);
        }
        let exact = ws.to_distribution().unwrap();
        let empirical = empirical_distribution(&g, 0, steps, 40_000, 99).unwrap();
        let distance = exact.l1_distance(&empirical);
        assert!(
            distance < 0.12,
            "sampled distribution too far from exact: L1 = {distance}"
        );
    }

    #[test]
    fn empirical_distribution_is_deterministic_per_seed() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let a = empirical_distribution(&g, 0, 3, 500, 7).unwrap();
        let b = empirical_distribution(&g, 0, 3, 500, 7).unwrap();
        assert_eq!(a, b);
    }
}
