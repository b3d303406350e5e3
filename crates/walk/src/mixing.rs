//! Global mixing time and spectral gap estimation.
//!
//! Used by the experiment harness to report `τ_mix` alongside the walk
//! lengths CDRW actually needed, and by tests to validate the `O(log n)`
//! mixing-time claims the analysis relies on (Lemma 1 and 2).

use cdrw_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

use crate::{WalkDistribution, WalkEngine, WalkError};

/// Result of a mixing-time estimation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixingEstimate {
    /// Number of steps after which the L1 distance dropped below `ε`, or the
    /// step cap if it never did.
    pub steps: usize,
    /// Whether the walk actually reached the target distance.
    pub converged: bool,
    /// The L1 distance to the stationary distribution after `steps` steps.
    pub final_distance: f64,
}

/// Estimates the ε-mixing time `τ_mix^s(ε)` of the walk started at `source`:
/// the first step at which `‖p_t − π‖₁ < ε` (Definition 1).
///
/// The search is capped at `max_steps`; if the walk has not mixed by then the
/// returned estimate has `converged == false`.
///
/// # Errors
///
/// * [`WalkError::NoEdges`] when the stationary distribution is undefined.
/// * [`WalkError::Graph`] when `source` is out of range.
/// * [`WalkError::InvalidParameter`] when `epsilon` is not in `(0, 2]`.
pub fn estimate_mixing_time(
    graph: &Graph,
    source: VertexId,
    epsilon: f64,
    max_steps: usize,
) -> Result<MixingEstimate, WalkError> {
    if !(epsilon > 0.0 && epsilon <= 2.0) {
        return Err(WalkError::InvalidParameter {
            name: "epsilon",
            reason: format!("must be in (0, 2], got {epsilon}"),
        });
    }
    let stationary = WalkDistribution::stationary(graph)?;
    // One engine workspace serves the whole search — no per-step allocation.
    let engine = WalkEngine::new(graph);
    let mut workspace = engine.workspace();
    workspace.load_point_mass(source)?;
    let pi = stationary.as_slice();
    let distance_to_pi = |ws: &crate::WalkWorkspace| -> f64 {
        ws.as_slice()
            .iter()
            .zip(pi)
            .map(|(a, b)| (a - b).abs())
            .sum()
    };
    let mut distance = distance_to_pi(&workspace);
    if distance < epsilon {
        return Ok(MixingEstimate {
            steps: 0,
            converged: true,
            final_distance: distance,
        });
    }
    for step in 1..=max_steps {
        engine.step(&mut workspace);
        distance = distance_to_pi(&workspace);
        if distance < epsilon {
            return Ok(MixingEstimate {
                steps: step,
                converged: true,
                final_distance: distance,
            });
        }
    }
    Ok(MixingEstimate {
        steps: max_steps,
        converged: false,
        final_distance: distance,
    })
}

/// Estimates the graph mixing time `τ_mix(ε) = max_v τ_mix^v(ε)` by sampling
/// a subset of source vertices (pass `None` to use every vertex).
///
/// # Errors
///
/// Same conditions as [`estimate_mixing_time`]; additionally
/// [`WalkError::EmptyDistribution`] for a graph without vertices.
pub fn estimate_graph_mixing_time(
    graph: &Graph,
    sources: Option<&[VertexId]>,
    epsilon: f64,
    max_steps: usize,
) -> Result<MixingEstimate, WalkError> {
    if graph.num_vertices() == 0 {
        return Err(WalkError::EmptyDistribution);
    }
    let all: Vec<VertexId>;
    let sources = match sources {
        Some(s) => s,
        None => {
            all = graph.vertices().collect();
            &all
        }
    };
    let mut worst = MixingEstimate {
        steps: 0,
        converged: true,
        final_distance: 0.0,
    };
    for &s in sources {
        let estimate = estimate_mixing_time(graph, s, epsilon, max_steps)?;
        if !estimate.converged || estimate.steps > worst.steps {
            worst = estimate;
        }
        if !worst.converged {
            break;
        }
    }
    Ok(worst)
}

/// Estimates the second-largest eigenvalue modulus `λ₂` of the walk's
/// transition matrix by power iteration on the normalised adjacency operator
/// `N = D^{-1/2} A D^{-1/2}`, deflating the known top eigenvector `D^{1/2}·1`.
///
/// The mixing time of the walk is `Θ(log n / (1 − λ₂))`, and Equation (2) of
/// the paper bounds `λ₂ ≈ 1/√d` for random `d`-regular graphs. The tier-1
/// test `tests/metrics_and_api.rs` checks the bounded-away-from-1 side on a
/// 256-vertex expander (a `G(n, 0.1)` graph): `λ₂ < 0.7`.
///
/// # Errors
///
/// * [`WalkError::NoEdges`] when the graph has no edges.
/// * [`WalkError::InvalidParameter`] when `iterations == 0`.
pub fn spectral_gap(graph: &Graph, iterations: usize) -> Result<f64, WalkError> {
    if graph.total_volume() == 0 {
        return Err(WalkError::NoEdges);
    }
    if iterations == 0 {
        return Err(WalkError::InvalidParameter {
            name: "iterations",
            reason: "power iteration needs at least one step".to_string(),
        });
    }
    let n = graph.num_vertices();
    let sqrt_deg: Vec<f64> = graph
        .vertices()
        .map(|v| (graph.degree(v) as f64).sqrt())
        .collect();
    let top_norm: f64 = sqrt_deg.iter().map(|x| x * x).sum::<f64>().sqrt();
    let top: Vec<f64> = sqrt_deg.iter().map(|x| x / top_norm).collect();

    // Deterministic pseudo-random start vector (alternating signs scaled by
    // index) keeps the estimate reproducible without an RNG dependency here.
    let mut vector: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 } * (1.0 + (i as f64) / n as f64))
        .collect();
    deflate(&mut vector, &top);
    normalize(&mut vector);

    let mut eigenvalue = 0.0f64;
    for _ in 0..iterations {
        let mut next = vec![0.0f64; n];
        for u in graph.vertices() {
            if sqrt_deg[u] == 0.0 {
                continue;
            }
            let scaled = vector[u] / sqrt_deg[u];
            for v in graph.neighbors(u) {
                next[v] += scaled / sqrt_deg[v];
            }
        }
        deflate(&mut next, &top);
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-30 {
            return Ok(0.0);
        }
        eigenvalue = norm;
        for x in &mut next {
            *x /= norm;
        }
        vector = next;
    }
    Ok(eigenvalue.min(1.0))
}

fn deflate(vector: &mut [f64], direction: &[f64]) {
    let dot: f64 = vector.iter().zip(direction).map(|(a, b)| a * b).sum();
    for (v, d) in vector.iter_mut().zip(direction) {
        *v -= dot * d;
    }
}

fn normalize(vector: &mut [f64]) {
    let norm = vector.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-30 {
        for x in vector.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_gen::{generate_gnp, special, GnpParams};
    use cdrw_graph::GraphBuilder;

    fn complete(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn epsilon_validation() {
        let g = complete(5);
        assert!(estimate_mixing_time(&g, 0, 0.0, 10).is_err());
        assert!(estimate_mixing_time(&g, 0, 3.0, 10).is_err());
        assert!(estimate_mixing_time(&g, 0, -0.5, 10).is_err());
        assert!(estimate_mixing_time(&g, 9, 0.5, 10).is_err());
    }

    #[test]
    fn complete_graph_mixes_quickly() {
        let g = complete(40);
        let estimate = estimate_mixing_time(&g, 0, 0.05, 50).unwrap();
        assert!(estimate.converged);
        assert!(estimate.steps <= 4, "steps = {}", estimate.steps);
        assert!(estimate.final_distance < 0.05);
    }

    #[test]
    fn cycle_mixes_slowly() {
        let (cycle, _) = special::cycle(64).unwrap();
        // The simple walk on an even cycle is periodic, so it never converges;
        // this also exercises the non-converged path.
        let estimate = estimate_mixing_time(&cycle, 0, 0.05, 100).unwrap();
        assert!(!estimate.converged);
        assert_eq!(estimate.steps, 100);
    }

    #[test]
    fn gnp_mixing_time_is_logarithmic() {
        let n = 512;
        let p = 4.0 * (n as f64).ln() / n as f64;
        let g = generate_gnp(&GnpParams::new(n, p).unwrap(), 5).unwrap();
        let estimate = estimate_mixing_time(&g, 0, 0.25, 200).unwrap();
        assert!(estimate.converged);
        assert!(
            estimate.steps <= 30,
            "expander mixing took {} steps",
            estimate.steps
        );
    }

    #[test]
    fn graph_mixing_time_is_at_least_single_source() {
        let g = complete(20);
        let single = estimate_mixing_time(&g, 0, 0.1, 50).unwrap();
        let global = estimate_graph_mixing_time(&g, None, 0.1, 50).unwrap();
        assert!(global.steps >= single.steps);
        let subset = estimate_graph_mixing_time(&g, Some(&[0, 1, 2]), 0.1, 50).unwrap();
        assert!(subset.converged);
        assert!(estimate_graph_mixing_time(&Graph::empty(0), None, 0.1, 10).is_err());
    }

    #[test]
    fn already_mixed_source_returns_zero_steps() {
        // With ε = 2 every distribution is within range immediately.
        let g = complete(6);
        let estimate = estimate_mixing_time(&g, 0, 2.0, 10).unwrap();
        assert_eq!(estimate.steps, 0);
        assert!(estimate.converged);
    }

    #[test]
    fn spectral_gap_validation() {
        let g = complete(6);
        assert!(spectral_gap(&Graph::empty(5), 10).is_err());
        assert!(spectral_gap(&g, 0).is_err());
    }

    #[test]
    fn complete_graph_lambda2_is_small() {
        // K_n has λ₂ = 1/(n−1) for the walk matrix.
        let g = complete(30);
        let lambda = spectral_gap(&g, 80).unwrap();
        assert!(
            (lambda - 1.0 / 29.0).abs() < 0.02,
            "λ₂ estimate = {lambda}, expected ≈ {}",
            1.0 / 29.0
        );
    }

    #[test]
    fn cycle_lambda2_is_close_to_one() {
        let (cycle, _) = special::cycle(50).unwrap();
        let lambda = spectral_gap(&cycle, 200).unwrap();
        assert!(lambda > 0.95, "λ₂ estimate = {lambda}");
        assert!(lambda <= 1.0);
    }

    #[test]
    fn random_regularish_graph_matches_friedman_bound_loosely() {
        // Equation (2): λ₂ ≈ 1/√d for random regular graphs. A Gnp with the
        // same expected degree behaves similarly up to constants.
        let n = 400;
        let p = 0.05; // expected degree ≈ 20
        let g = generate_gnp(&GnpParams::new(n, p).unwrap(), 3).unwrap();
        let lambda = spectral_gap(&g, 120).unwrap();
        let d = (n as f64 - 1.0) * p;
        assert!(
            lambda < 4.0 / d.sqrt(),
            "λ₂ = {lambda} should be O(1/√d) = O({})",
            1.0 / d.sqrt()
        );
    }

    #[test]
    fn disconnected_graph_has_unit_lambda2() {
        // Two disjoint triangles: the second eigenvalue is exactly 1.
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let lambda = spectral_gap(&g, 100).unwrap();
        assert!((lambda - 1.0).abs() < 1e-6, "λ₂ = {lambda}");
    }
}
