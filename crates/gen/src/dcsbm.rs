//! Degree-corrected stochastic block model (Karrer & Newman 2011) and a
//! weighted planted partition variant.
//!
//! The plain SBM forces every vertex of a block toward the same expected
//! degree, which makes planted instances unrealistically homogeneous. The
//! degree-corrected model attaches a *propensity* `θ_v > 0` to each vertex
//! and targets the expected edge weight `θ_u·θ_v·B_{rs}` for a pair in blocks
//! `(r, s)`. This crate realises that target exactly on the weighted CSR
//! substrate: a pair is present with probability
//! `q_uv = min(1, θ_u·θ_v·B_{rs})` and, when present, carries the
//! deterministic weight `θ_u·θ_v·B_{rs} / q_uv`, so
//! `E[weight·presence] = θ_u·θ_v·B_{rs}` with no weight variance. Heavy pairs
//! (`θ_u·θ_v·B_{rs} > 1`) are always present with a weight above one — the
//! weighted-graph analogue of the multi-edges the original multigraph model
//! assigns them.
//!
//! Sampling stays `O(n + m)` in the sparse regime: the DC-SBM is the SBM of
//! *envelope* rates `p_max = min(1, θ_max·θ'_max·B_{rs})` (`θ_max`, `θ'_max`
//! the largest propensities of the two blocks), drawn by the same block
//! driver and skip sampler as [`crate::generate_sbm`], with each hit thinned
//! to probability `q_uv / p_max` — standard envelope/acceptance thinning,
//! which preserves pairwise independence.
//!
//! [`generate_weighted_ppm`] is the simpler heterogeneous instance family:
//! the symmetric SBM of [`crate::generate_ppm`] (identical RNG consumption,
//! so the same seed yields the same edge set) with constant weights `w_in` on
//! intra-block and `w_out` on inter-block edges.

use cdrw_graph::{Graph, Partition};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sbm::{block_partition, check_block_shape, sample_blocks, symmetric_blocks};
use crate::{GenError, PpmParams, SbmParams};

/// Parameters of a degree-corrected SBM: a block structure, a symmetric
/// affinity matrix `B`, and one positive propensity `θ_v` per vertex.
///
/// `B` entries are *affinities*, not probabilities — `θ_u·θ_v·B_{rs}` is an
/// expected edge weight and may exceed one (the pair is then deterministically
/// present with weight above one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DcsbmParams {
    /// Size of each block (all ≥ 1).
    pub block_sizes: Vec<usize>,
    /// Symmetric non-negative affinity matrix, one row per block.
    pub block_matrix: Vec<Vec<f64>>,
    /// Per-vertex propensities `θ_v > 0`, length `Σ block_sizes`, indexed by
    /// global vertex id (block `i` owns the contiguous range after blocks
    /// `0..i`).
    pub theta: Vec<f64>,
}

impl DcsbmParams {
    /// Validates and creates the parameter set.
    ///
    /// # Errors
    ///
    /// * [`GenError::InvalidSize`] for empty/zero blocks or a `theta` length
    ///   not matching the vertex count.
    /// * [`GenError::MalformedBlockMatrix`] for a non-square, asymmetric,
    ///   negative or non-finite affinity matrix.
    /// * [`GenError::ProbabilityOutOfRange`] for a non-positive or non-finite
    ///   propensity (reported under the name `theta[v]`).
    pub fn new(
        block_sizes: Vec<usize>,
        block_matrix: Vec<Vec<f64>>,
        theta: Vec<f64>,
    ) -> Result<Self, GenError> {
        let params = DcsbmParams {
            block_sizes,
            block_matrix,
            theta,
        };
        params.validate()?;
        Ok(params)
    }

    /// The checks of [`DcsbmParams::new`], re-run by [`generate_dcsbm`] on
    /// parameters whose public fields were set directly.
    fn validate(&self) -> Result<(), GenError> {
        check_block_shape(&self.block_sizes, &self.block_matrix, |i, j, value| {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                Err(GenError::MalformedBlockMatrix {
                    reason: format!("B[{i}][{j}] = {value} must be finite and non-negative"),
                })
            }
        })?;
        let n = self.num_vertices();
        if self.theta.len() != n {
            return Err(GenError::InvalidSize {
                reason: format!("theta has {} entries for {n} vertices", self.theta.len()),
            });
        }
        for (v, &t) in self.theta.iter().enumerate() {
            if !t.is_finite() || t <= 0.0 {
                return Err(GenError::ProbabilityOutOfRange {
                    name: format!("theta[{v}]"),
                    value: t,
                });
            }
        }
        Ok(())
    }

    /// The symmetric workhorse instance: `r` equal blocks of size `n/r` with
    /// affinities `b_in` on the diagonal and `b_out` off it, and propensities
    /// ramping linearly from `theta_min` to `theta_max` *within each block*
    /// (so every block has the same heterogeneity profile).
    ///
    /// # Errors
    ///
    /// Same validation as [`DcsbmParams::new`], plus [`GenError::InvalidSize`]
    /// when `r` does not divide `n`.
    pub fn symmetric(
        n: usize,
        r: usize,
        b_in: f64,
        b_out: f64,
        theta_min: f64,
        theta_max: f64,
    ) -> Result<Self, GenError> {
        let (block_sizes, block_matrix) = symmetric_blocks(n, r, b_in, b_out)?;
        let block = n / r;
        let theta = (0..n)
            .map(|v| {
                let pos = v % block;
                if block == 1 {
                    theta_min
                } else {
                    theta_min + (theta_max - theta_min) * pos as f64 / (block - 1) as f64
                }
            })
            .collect();
        DcsbmParams::new(block_sizes, block_matrix, theta)
    }

    /// Lifts a plain [`SbmParams`] into the degree-corrected model with all
    /// propensities one (same expected edge structure; every realised edge
    /// has weight `1/q·q = 1` only when `B` entries are ≤ 1, in which case
    /// the generated weight lane is all ones).
    pub fn from_sbm(params: &SbmParams) -> Self {
        let n = params.num_vertices();
        DcsbmParams {
            block_sizes: params.block_sizes.clone(),
            block_matrix: params.block_matrix.clone(),
            theta: vec![1.0; n],
        }
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.block_sizes.iter().sum()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_sizes.len()
    }
}

/// Generates a degree-corrected SBM graph (weighted CSR) and its ground-truth
/// [`Partition`]. Block `i` occupies the contiguous vertex range following
/// blocks `0..i`.
///
/// See the module-level documentation for the presence/weight semantics.
///
/// # Errors
///
/// The errors of [`DcsbmParams::new`] when the fields were set directly to
/// values it rejects.
pub fn generate_dcsbm(params: &DcsbmParams, seed: u64) -> Result<(Graph, Partition), GenError> {
    params.validate()?;
    let mut start = 0;
    let theta_max: Vec<f64> = params
        .block_sizes
        .iter()
        .map(|&size| {
            start += size;
            params.theta[start - size..start]
                .iter()
                .fold(0.0f64, |a, &b| a.max(b))
        })
        .collect();
    let envelope: Vec<Vec<f64>> = (0..theta_max.len())
        .map(|i| {
            (0..theta_max.len())
                .map(|j| (theta_max[i] * theta_max[j] * params.block_matrix[i][j]).min(1.0))
                .collect()
        })
        .collect();
    let graph = sample_blocks(
        &params.block_sizes,
        &envelope,
        seed,
        |builder, rng, (u, v), (i, j)| {
            // Presence probability `q` and weight `w` of the affinity target.
            let target = params.theta[u] * params.theta[v] * params.block_matrix[i][j];
            let (q, w) = if target >= 1.0 {
                (1.0, target)
            } else {
                (target, 1.0)
            };
            // One uniform per envelope hit keeps RNG consumption deterministic.
            if q > 0.0 && rng.gen_range(0.0..1.0) < q / envelope[i][j] {
                builder.add_weighted_edge(u, v, w)?;
            }
            Ok(())
        },
    )?;
    Ok((graph, block_partition(&params.block_sizes)?))
}

/// Parameters of the weighted planted partition model: the topology of
/// [`PpmParams`] with constant edge weights `w_in` (intra-block) and `w_out`
/// (inter-block).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedPpmParams {
    /// Topology parameters (blocks, `p`, `q`).
    pub base: PpmParams,
    /// Weight of every intra-block edge (> 0, finite).
    pub w_in: f64,
    /// Weight of every inter-block edge (> 0, finite).
    pub w_out: f64,
}

impl WeightedPpmParams {
    /// Validates and creates the parameter set.
    ///
    /// # Errors
    ///
    /// [`GenError::ProbabilityOutOfRange`] (under the names `w_in`/`w_out`)
    /// when a weight is non-positive or non-finite.
    pub fn new(base: PpmParams, w_in: f64, w_out: f64) -> Result<Self, GenError> {
        for (name, value) in [("w_in", w_in), ("w_out", w_out)] {
            if !value.is_finite() || value <= 0.0 {
                return Err(GenError::ProbabilityOutOfRange {
                    name: name.to_string(),
                    value,
                });
            }
        }
        Ok(WeightedPpmParams { base, w_in, w_out })
    }

    /// Expected *weighted* conductance of one planted block — the weighted
    /// analogue of [`PpmParams::expected_block_conductance`].
    pub fn expected_block_conductance(&self) -> f64 {
        let b = self.base.block_size() as f64;
        let out = self.w_out * self.base.q * (self.base.n as f64 - b);
        let total = self.w_in * self.base.p * (b - 1.0) + out;
        if total <= 0.0 {
            1.0
        } else {
            out / total
        }
    }
}

/// Generates a weighted PPM graph and its ground-truth [`Partition`].
///
/// The edge set is *identical* to [`crate::generate_ppm`] with the same
/// `base` parameters and seed (both are the same symmetric SBM drawn in one
/// pass); only the weight lane differs.
///
/// # Errors
///
/// Propagates graph-construction failures (which cannot occur for validated
/// [`WeightedPpmParams`]).
pub fn generate_weighted_ppm(
    params: &WeightedPpmParams,
    seed: u64,
) -> Result<(Graph, Partition), GenError> {
    let base = &params.base;
    let sbm = SbmParams::symmetric(base.n, base.r, base.p, base.q)?;
    let graph = sample_blocks(
        &sbm.block_sizes,
        &sbm.block_matrix,
        seed,
        |builder, _, (u, v), (i, j)| {
            let weight = if i == j { params.w_in } else { params.w_out };
            Ok(builder.add_weighted_edge(u, v, weight)?)
        },
    )?;
    Ok((graph, block_partition(&sbm.block_sizes)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::properties;
    use proptest::prelude::*;

    #[test]
    fn validation_rejects_malformed_inputs() {
        // No blocks, empty block, theta length mismatch.
        assert!(DcsbmParams::new(vec![], vec![], vec![]).is_err());
        assert!(DcsbmParams::new(vec![0], vec![vec![0.1]], vec![]).is_err());
        assert!(DcsbmParams::new(vec![2], vec![vec![0.1]], vec![1.0]).is_err());
        // Bad theta values.
        assert!(DcsbmParams::new(vec![2], vec![vec![0.1]], vec![1.0, 0.0]).is_err());
        assert!(DcsbmParams::new(vec![2], vec![vec![0.1]], vec![1.0, -1.0]).is_err());
        assert!(DcsbmParams::new(vec![2], vec![vec![0.1]], vec![1.0, f64::NAN]).is_err());
        // Bad matrices.
        assert!(DcsbmParams::new(vec![1, 1], vec![vec![0.1, 0.2]], vec![1.0, 1.0]).is_err());
        assert!(
            DcsbmParams::new(vec![1, 1], vec![vec![0.1], vec![0.2, 0.3]], vec![1.0, 1.0]).is_err()
        );
        assert!(DcsbmParams::new(
            vec![1, 1],
            vec![vec![0.1, 0.2], vec![0.3, 0.1]],
            vec![1.0, 1.0]
        )
        .is_err());
        assert!(DcsbmParams::new(
            vec![1, 1],
            vec![vec![0.1, -0.2], vec![-0.2, 0.1]],
            vec![1.0, 1.0]
        )
        .is_err());
        // Symmetric constructor divisibility.
        assert!(DcsbmParams::symmetric(10, 3, 0.5, 0.1, 0.5, 2.0).is_err());
    }

    #[test]
    fn symmetric_theta_ramps_within_each_block() {
        let params = DcsbmParams::symmetric(8, 2, 0.5, 0.1, 0.5, 2.0).unwrap();
        assert_eq!(params.theta.len(), 8);
        assert_eq!(params.theta[0], 0.5);
        assert_eq!(params.theta[3], 2.0);
        // Both blocks share the heterogeneity profile.
        assert_eq!(params.theta[..4], params.theta[4..]);
        assert!(params.theta.windows(2).take(3).all(|w| w[0] < w[1]));
    }

    #[test]
    fn generated_graph_is_weighted_with_block_structure() {
        let params = DcsbmParams::symmetric(120, 3, 0.5, 0.01, 0.4, 1.8).unwrap();
        let (graph, truth) = generate_dcsbm(&params, 13).unwrap();
        assert_eq!(graph.num_vertices(), 120);
        assert_eq!(truth.num_communities(), 3);
        assert!(graph.is_weighted());
        assert!(graph.num_edges() > 0);
        // Blocks are denser inside than toward the rest.
        for c in 0..3 {
            let phi = properties::set_conductance(&graph, truth.members(c));
            assert!(phi < 0.5, "block {c} conductance {phi}");
        }
    }

    #[test]
    fn heavy_pairs_are_deterministically_present_with_compensating_weight() {
        // θ_u·θ_v·B = 4 > 1 for every pair: the graph is complete and every
        // weight is exactly the affinity target.
        let params = DcsbmParams::new(vec![4], vec![vec![1.0]], vec![2.0, 2.0, 2.0, 2.0]).unwrap();
        let (graph, _) = generate_dcsbm(&params, 3).unwrap();
        assert_eq!(graph.num_edges(), 6);
        for (u, v) in graph.edges() {
            assert_eq!(graph.edge_weight(u, v), Some(4.0));
        }
    }

    #[test]
    fn propensities_tilt_the_weighted_degrees() {
        // Within a block, high-θ vertices must end up with systematically
        // larger weighted degrees than low-θ vertices.
        let params = DcsbmParams::symmetric(300, 1, 0.1, 0.0, 0.25, 2.0).unwrap();
        let (graph, _) = generate_dcsbm(&params, 5).unwrap();
        let low: f64 = (0..50).map(|v| graph.weighted_degree(v)).sum::<f64>() / 50.0;
        let high: f64 = (250..300).map(|v| graph.weighted_degree(v)).sum::<f64>() / 50.0;
        assert!(
            high > 2.0 * low,
            "high-θ mean {high} not above low-θ mean {low}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let params = DcsbmParams::symmetric(100, 2, 0.2, 0.02, 0.5, 1.5).unwrap();
        let (a, _) = generate_dcsbm(&params, 1).unwrap();
        let (b, _) = generate_dcsbm(&params, 1).unwrap();
        let (c, _) = generate_dcsbm(&params, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn from_sbm_with_unit_theta_matches_sbm_expectation() {
        let sbm = SbmParams::symmetric(200, 2, 0.1, 0.01).unwrap();
        let dc = DcsbmParams::from_sbm(&sbm);
        let (graph, _) = generate_dcsbm(&dc, 9).unwrap();
        // Unit propensities with probability-valued affinities give an
        // all-ones weight lane.
        assert!(graph.is_weighted());
        for v in graph.vertices() {
            assert_eq!(
                graph.weighted_degree(v).to_bits(),
                (graph.degree(v) as f64).to_bits()
            );
        }
    }

    #[test]
    fn weighted_ppm_validation_and_expectations() {
        let base = PpmParams::new(100, 2, 0.2, 0.02).unwrap();
        assert!(WeightedPpmParams::new(base, 0.0, 1.0).is_err());
        assert!(WeightedPpmParams::new(base, 1.0, f64::INFINITY).is_err());
        let params = WeightedPpmParams::new(base, 3.0, 0.5).unwrap();
        let phi = params.expected_block_conductance();
        assert!(phi > 0.0 && phi < params.base.expected_block_conductance());
    }

    #[test]
    fn weighted_ppm_topology_matches_the_plain_ppm() {
        let base = PpmParams::new(120, 3, 0.15, 0.01).unwrap();
        let params = WeightedPpmParams::new(base, 2.0, 0.25).unwrap();
        let (weighted, truth_w) = generate_weighted_ppm(&params, 11).unwrap();
        let (plain, truth_p) = crate::generate_ppm(&base, 11).unwrap();
        assert_eq!(truth_w, truth_p);
        assert_eq!(weighted.num_edges(), plain.num_edges());
        for u in plain.vertices() {
            assert_eq!(weighted.neighbor_slice(u), plain.neighbor_slice(u));
        }
        // Intra-block edges weigh w_in, inter-block w_out.
        let block = base.block_size();
        for (u, v) in weighted.edges() {
            let expected = if u / block == v / block { 2.0 } else { 0.25 };
            assert_eq!(weighted.edge_weight(u, v), Some(expected));
        }
    }

    proptest! {
        /// Arbitrary valid DC-SBMs generate well-formed weighted graphs with
        /// the right block structure and a positive weight lane.
        #[test]
        fn generator_is_well_formed(
            sizes in proptest::collection::vec(1usize..15, 1..4),
            diag in 0.0f64..1.2,
            off in 0.0f64..0.4,
            spread in 1.0f64..4.0,
            seed in any::<u64>(),
        ) {
            let r = sizes.len();
            let n: usize = sizes.iter().sum();
            let matrix: Vec<Vec<f64>> = (0..r)
                .map(|i| (0..r).map(|j| if i == j { diag } else { off }).collect())
                .collect();
            let theta: Vec<f64> = (0..n).map(|v| 0.5 + (v % 5) as f64 * spread / 5.0).collect();
            let params = DcsbmParams::new(sizes.clone(), matrix, theta).unwrap();
            let (graph, truth) = generate_dcsbm(&params, seed).unwrap();
            prop_assert_eq!(graph.num_vertices(), n);
            prop_assert_eq!(truth.community_sizes(), sizes);
            if graph.num_edges() > 0 {
                prop_assert!(graph.is_weighted());
                for u in graph.vertices() {
                    if let Some(ws) = graph.weight_slice(u) {
                        prop_assert!(ws.iter().all(|&w| w.is_finite() && w > 0.0));
                    }
                }
                // Weighted volume is at least the structural volume scaled by
                // the smallest weight... simply: finite and positive.
                prop_assert!(graph.weighted_volume() > 0.0);
            }
        }
    }
}
