//! Walktrap-style agglomerative clustering on random-walk distances.
//!
//! Pons & Latapy (2006): short random walks "get trapped" inside densely
//! connected parts of a graph, so the distance between the `t`-step walk
//! distributions of two vertices is small when they belong to the same
//! community. The original algorithm merges communities greedily by Ward's
//! criterion; this implementation keeps the same walk-distance signal but
//! uses average-linkage merging between adjacent communities, stopping at a
//! target community count — sufficient for the baseline comparison. The
//! pairwise vertex distances are computed once (`O(n²·(t·d̄ + n))`) and the
//! average-linkage distances are maintained exactly through the
//! Lance–Williams update `D(A∪B, C) = (|A|·D(A,C) + |B|·D(B,C)) / (|A|+|B|)`,
//! so each merge costs `O(n)` instead of re-averaging all vertex pairs. The
//! paper cites Walktrap as the centralized random-walk comparator with
//! `O(mn²)` worst-case running time.

use std::collections::HashSet;

use cdrw_graph::{Graph, Partition};
use cdrw_walk::{WalkDistribution, WalkEngine};
use serde::{Deserialize, Serialize};

use crate::BaselineError;

/// Configuration of the Walktrap-style baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WalktrapConfig {
    /// Length `t` of the random walks (Pons & Latapy recommend 4–5).
    pub walk_length: usize,
    /// Number of communities to stop merging at.
    pub num_communities: usize,
}

impl Default for WalktrapConfig {
    fn default() -> Self {
        WalktrapConfig {
            walk_length: 4,
            num_communities: 2,
        }
    }
}

/// Runs the Walktrap-style agglomeration down to
/// `config.num_communities` communities.
///
/// # Errors
///
/// * [`BaselineError::EmptyGraph`] for a graph with no vertices.
/// * [`BaselineError::InvalidConfig`] for a zero walk length or zero target
///   community count.
pub fn walktrap(graph: &Graph, config: &WalktrapConfig) -> Result<Partition, BaselineError> {
    if graph.num_vertices() == 0 {
        return Err(BaselineError::EmptyGraph);
    }
    if config.walk_length == 0 {
        return Err(BaselineError::InvalidConfig {
            field: "walk_length",
            reason: "walks need at least one step".to_string(),
        });
    }
    if config.num_communities == 0 {
        return Err(BaselineError::InvalidConfig {
            field: "num_communities",
            reason: "need at least one community".to_string(),
        });
    }
    let n = graph.num_vertices();
    if graph.num_edges() == 0 {
        // Nothing to merge across: every vertex is its own community.
        return Ok(Partition::from_assignment((0..n).collect()).expect("n > 0"));
    }

    // Per-vertex t-step walk distributions, degree-normalised as in the
    // original distance definition r_ij = sqrt(Σ_k (P_ik − P_jk)² / d(k)).
    let engine = WalkEngine::new(graph);
    let mut workspace = engine.workspace();
    let signatures: Vec<WalkDistribution> = graph
        .vertices()
        .map(|v| {
            workspace.load_point_mass(v).expect("v < n");
            for _ in 0..config.walk_length {
                engine.step(&mut workspace);
            }
            workspace.to_distribution().expect("n > 0")
        })
        .collect();
    let degrees: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();

    // All-pairs vertex distances, computed once. `distance` then holds the
    // exact average pairwise distance between the current communities,
    // maintained through the Lance–Williams average-linkage update at every
    // merge.
    let mut distance = vec![0.0f64; n * n];
    for u in 0..n {
        for v in (u + 1)..n {
            let d = walk_distance(&signatures[u], &signatures[v], &degrees);
            distance[u * n + v] = d;
            distance[v * n + u] = d;
        }
    }

    // Candidate merges are communities joined by at least one edge, exactly
    // like the original edge scan.
    let mut adjacent: HashSet<(usize, usize)> =
        graph.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();

    let mut community_of: Vec<usize> = (0..n).collect();
    let mut size: Vec<usize> = vec![1; n];
    let mut current = n;

    while current > config.num_communities {
        // Deterministic minimum: smallest (distance, low id, high id).
        let mut best: Option<(f64, usize, usize)> = None;
        for &(a, b) in &adjacent {
            let d = distance[a * n + b];
            let candidate = (d, a, b);
            let better = match best {
                None => true,
                Some((bd, ba, bb)) => {
                    candidate.partial_cmp(&(bd, ba, bb)) == Some(std::cmp::Ordering::Less)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        let Some((_, keep, gone)) = best else {
            // No inter-community edge left (disconnected remainder).
            break;
        };

        // Lance–Williams: the average pairwise distance from the merged
        // community to any other community is the size-weighted mean.
        let (sk, sg) = (size[keep] as f64, size[gone] as f64);
        for c in 0..n {
            if size[c] == 0 || c == keep || c == gone {
                continue;
            }
            let merged = (sk * distance[keep * n + c] + sg * distance[gone * n + c]) / (sk + sg);
            distance[keep * n + c] = merged;
            distance[c * n + keep] = merged;
        }
        size[keep] += size[gone];
        size[gone] = 0;
        for label in community_of.iter_mut() {
            if *label == gone {
                *label = keep;
            }
        }
        // Rewire adjacency of `gone` onto `keep`.
        let moved: Vec<(usize, usize)> = adjacent
            .iter()
            .copied()
            .filter(|&(a, b)| a == gone || b == gone)
            .collect();
        for pair in moved {
            adjacent.remove(&pair);
            let other = if pair.0 == gone { pair.1 } else { pair.0 };
            if other != keep {
                adjacent.insert((keep.min(other), keep.max(other)));
            }
        }
        current -= 1;
    }

    Ok(Partition::from_assignment(community_of).expect("n > 0"))
}

/// The Pons–Latapy distance between two walk distributions.
fn walk_distance(a: &WalkDistribution, b: &WalkDistribution, degrees: &[f64]) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .zip(degrees)
        .filter(|(_, &d)| d > 0.0)
        .map(|((&pa, &pb), &d)| (pa - pb) * (pa - pb) / d)
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_gen::{generate_ppm, special, PpmParams};
    use cdrw_metrics::f_score;

    #[test]
    fn validation() {
        assert!(walktrap(&Graph::empty(0), &WalktrapConfig::default()).is_err());
        let (g, _) = special::complete(4).unwrap();
        assert!(walktrap(
            &g,
            &WalktrapConfig {
                walk_length: 0,
                ..WalktrapConfig::default()
            }
        )
        .is_err());
        assert!(walktrap(
            &g,
            &WalktrapConfig {
                num_communities: 0,
                ..WalktrapConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn edgeless_graph_keeps_singletons() {
        let g = Graph::empty(4);
        let partition = walktrap(&g, &WalktrapConfig::default()).unwrap();
        assert_eq!(partition.num_communities(), 4);
    }

    #[test]
    fn merges_a_clique_into_one_community() {
        let (g, _) = special::complete(12).unwrap();
        let config = WalktrapConfig {
            num_communities: 1,
            ..WalktrapConfig::default()
        };
        let partition = walktrap(&g, &config).unwrap();
        assert_eq!(partition.num_communities(), 1);
    }

    #[test]
    fn separates_a_ring_of_cliques() {
        let (g, truth) = special::ring_of_cliques(3, 10).unwrap();
        let config = WalktrapConfig {
            walk_length: 4,
            num_communities: 3,
        };
        let partition = walktrap(&g, &config).unwrap();
        let report = f_score(&partition, &truth);
        assert!(report.f_score > 0.9, "F = {}", report.f_score);
    }

    #[test]
    fn separates_a_small_two_block_ppm() {
        let params = PpmParams::new(120, 2, 0.35, 0.01).unwrap();
        let (g, truth) = generate_ppm(&params, 5).unwrap();
        let partition = walktrap(&g, &WalktrapConfig::default()).unwrap();
        let report = f_score(&partition, &truth);
        assert!(report.f_score > 0.85, "F = {}", report.f_score);
    }

    #[test]
    fn disconnected_components_stop_the_merging_early() {
        // Two disjoint triangles but a target of 1 community: merging cannot
        // cross components, so two communities remain.
        let g = cdrw_graph::GraphBuilder::from_edges(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        )
        .unwrap();
        let config = WalktrapConfig {
            walk_length: 3,
            num_communities: 1,
        };
        let partition = walktrap(&g, &config).unwrap();
        assert_eq!(partition.num_communities(), 2);
    }
}
