//! General stochastic block model with an arbitrary block-probability
//! matrix, and the one block driver every generator of this crate samples
//! through: the PPM is the symmetric SBM, `G(n, p)` is one block, and the
//! DC-SBM samples its envelope rates and thins each hit.

use cdrw_graph::{Graph, GraphBuilder, Partition};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::gnp::{check_probability, for_each_selected, unrank_pair};
use crate::GenError;

/// Parameters of a general stochastic block model (Holland, Laskey, Leinhardt;
/// reference \[21\] of the paper).
///
/// Unlike the symmetric [`crate::PpmParams`], the general SBM allows blocks of
/// different sizes and an arbitrary symmetric matrix `B` of connection
/// probabilities: vertices in blocks `i` and `j` connect independently with
/// probability `B[i][j]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SbmParams {
    /// Size of each block (must all be ≥ 1).
    pub block_sizes: Vec<usize>,
    /// Symmetric block-probability matrix, `block_sizes.len()` × same.
    pub block_matrix: Vec<Vec<f64>>,
}

impl SbmParams {
    /// Validates and creates the parameter set.
    ///
    /// # Errors
    ///
    /// * [`GenError::InvalidSize`] if there are no blocks or a block is empty.
    /// * [`GenError::MalformedBlockMatrix`] if the matrix is not square of
    ///   matching dimension or not symmetric.
    /// * [`GenError::ProbabilityOutOfRange`] if an entry is outside `[0, 1]`.
    pub fn new(block_sizes: Vec<usize>, block_matrix: Vec<Vec<f64>>) -> Result<Self, GenError> {
        let params = SbmParams {
            block_sizes,
            block_matrix,
        };
        params.validate()?;
        Ok(params)
    }

    /// The checks of [`SbmParams::new`], re-run by [`generate_sbm`] on
    /// parameters whose public fields were set directly.
    fn validate(&self) -> Result<(), GenError> {
        check_block_shape(&self.block_sizes, &self.block_matrix, |i, j, value| {
            check_probability(&format!("B[{i}][{j}]"), value)
        })
    }

    /// Builds the SBM equivalent of a symmetric PPM: `r` blocks of equal size
    /// with `p` on the diagonal and `q` off it.
    ///
    /// # Errors
    ///
    /// Same validation as [`SbmParams::new`], plus [`GenError::InvalidSize`]
    /// when `r` does not divide `n`.
    pub fn symmetric(n: usize, r: usize, p: f64, q: f64) -> Result<Self, GenError> {
        let (block_sizes, block_matrix) = symmetric_blocks(n, r, p, q)?;
        SbmParams::new(block_sizes, block_matrix)
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.block_sizes.iter().sum()
    }

    /// Number of blocks `r`.
    pub fn num_blocks(&self) -> usize {
        self.block_sizes.len()
    }

    /// Whether the model is assortative / separable: every diagonal entry is
    /// strictly larger than every off-diagonal entry in its row.
    pub fn is_separable(&self) -> bool {
        let r = self.num_blocks();
        (0..r).all(|i| {
            (0..r)
                .filter(|&j| j != i)
                .all(|j| self.block_matrix[i][i] > self.block_matrix[i][j])
        })
    }

    /// Expected total number of edges of the model.
    pub fn expected_edges(&self) -> f64 {
        let r = self.num_blocks();
        let mut total = 0.0;
        for i in 0..r {
            let si = self.block_sizes[i] as f64;
            total += si * (si - 1.0) / 2.0 * self.block_matrix[i][i];
            for j in (i + 1)..r {
                let sj = self.block_sizes[j] as f64;
                total += si * sj * self.block_matrix[i][j];
            }
        }
        total
    }
}

/// Generates a general SBM graph and its ground-truth [`Partition`].
///
/// Block `i` occupies the contiguous vertex range following blocks `0..i`.
///
/// # Errors
///
/// The errors of [`SbmParams::new`] when the fields were set directly to
/// values it rejects.
pub fn generate_sbm(params: &SbmParams, seed: u64) -> Result<(Graph, Partition), GenError> {
    params.validate()?;
    let graph = sample_blocks(
        &params.block_sizes,
        &params.block_matrix,
        seed,
        |builder, _, (u, v), _| Ok(builder.add_edge(u, v)?),
    )?;
    Ok((graph, block_partition(&params.block_sizes)?))
}

/// The block driver: lays out `block_sizes` as contiguous vertex ranges and
/// selects each pair of blocks `i ≤ j` independently at rate `rates[i][j]` —
/// first each block's `C(s, 2)` internal pairs, then each block pair `i < j`
/// over its `s_i·s_j` rectangle, in that order, all from one RNG seeded with
/// `seed`. `add(builder, rng, (u, v), (i, j))` records each selected pair
/// `u < v` with `u` in block `i` and `v` in block `j`; it may draw from the
/// RNG. Returns the built graph; [`block_partition`] is its truth.
///
/// The order of the blocks and of the draws is what makes every generator's
/// output reproducible from its seed; `tests/generator_identity.rs` pins it.
pub(crate) fn sample_blocks(
    block_sizes: &[usize],
    rates: &[Vec<f64>],
    seed: u64,
    mut add: impl FnMut(
        &mut GraphBuilder,
        &mut SmallRng,
        (usize, usize),
        (usize, usize),
    ) -> Result<(), GenError>,
) -> Result<Graph, GenError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(block_sizes.iter().sum());
    let starts: Vec<usize> = block_sizes
        .iter()
        .scan(0, |end, &size| {
            *end += size;
            Some(*end - size)
        })
        .collect();
    for (i, (&start, &size)) in starts.iter().zip(block_sizes).enumerate() {
        let pairs = size * size.saturating_sub(1) / 2;
        for_each_selected(&mut rng, pairs, rates[i][i], |rng, index| {
            let (a, b) = unrank_pair(index, size);
            add(&mut builder, rng, (start + a, start + b), (i, i))
        })?;
    }
    for i in 0..block_sizes.len() {
        for j in (i + 1)..block_sizes.len() {
            let width = block_sizes[j];
            for_each_selected(
                &mut rng,
                block_sizes[i] * width,
                rates[i][j],
                |rng, index| {
                    let pair = (starts[i] + index / width, starts[j] + index % width);
                    add(&mut builder, rng, pair, (i, j))
                },
            )?;
        }
    }
    Ok(builder.build())
}

/// The partition of the contiguous blocks [`sample_blocks`] lays out.
pub(crate) fn block_partition(block_sizes: &[usize]) -> Result<Partition, GenError> {
    let assignment = block_sizes
        .iter()
        .enumerate()
        .flat_map(|(i, &size)| std::iter::repeat_n(i, size))
        .collect();
    Ok(Partition::from_assignment(assignment)?)
}

/// The block-structure checks every block model shares: at least one block,
/// no empty block, and an `r × r` symmetric matrix (to `1e-12`) whose
/// entries pass `check_entry(i, j, value)`.
pub(crate) fn check_block_shape(
    block_sizes: &[usize],
    block_matrix: &[Vec<f64>],
    check_entry: impl Fn(usize, usize, f64) -> Result<(), GenError>,
) -> Result<(), GenError> {
    if block_sizes.is_empty() {
        return Err(GenError::InvalidSize {
            reason: "a block model needs at least one block".to_string(),
        });
    }
    if let Some(i) = block_sizes.iter().position(|&s| s == 0) {
        return Err(GenError::InvalidSize {
            reason: format!("block {i} has zero vertices"),
        });
    }
    let r = block_sizes.len();
    if block_matrix.len() != r {
        return Err(GenError::MalformedBlockMatrix {
            reason: format!(
                "expected {r} rows to match the number of blocks, found {}",
                block_matrix.len()
            ),
        });
    }
    for (i, row) in block_matrix.iter().enumerate() {
        if row.len() != r {
            return Err(GenError::MalformedBlockMatrix {
                reason: format!("row {i} has {} entries, expected {r}", row.len()),
            });
        }
        for (j, &value) in row.iter().enumerate() {
            check_entry(i, j, value)?;
            // Rows before `i` already have `r` entries.
            if j < i && (block_matrix[j][i] - value).abs() > 1e-12 {
                return Err(GenError::MalformedBlockMatrix {
                    reason: format!(
                        "matrix is not symmetric at ({j}, {i}): {} vs {value}",
                        block_matrix[j][i]
                    ),
                });
            }
        }
    }
    Ok(())
}

/// [`GenError::InvalidSize`] unless `r > 0` divides `n > 0`, so `n`
/// vertices split into `r` equal blocks.
pub(crate) fn check_equal_blocks(n: usize, r: usize) -> Result<(), GenError> {
    if r == 0 || n == 0 || !n.is_multiple_of(r) {
        return Err(GenError::InvalidSize {
            reason: format!("need r > 0 dividing n (got n = {n}, r = {r})"),
        });
    }
    Ok(())
}

/// `r` equal blocks of `n/r` vertices with `diag` on the diagonal of the
/// block matrix and `off` off it.
///
/// # Errors
///
/// As [`check_equal_blocks`].
pub(crate) fn symmetric_blocks(
    n: usize,
    r: usize,
    diag: f64,
    off: f64,
) -> Result<(Vec<usize>, Vec<Vec<f64>>), GenError> {
    check_equal_blocks(n, r)?;
    let matrix = (0..r)
        .map(|i| (0..r).map(|j| if i == j { diag } else { off }).collect())
        .collect();
    Ok((vec![n / r; r], matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::properties;
    use proptest::prelude::*;

    #[test]
    fn validation_rejects_malformed_inputs() {
        assert!(SbmParams::new(vec![], vec![]).is_err());
        assert!(SbmParams::new(vec![0, 3], vec![vec![0.1, 0.1], vec![0.1, 0.1]]).is_err());
        assert!(SbmParams::new(vec![2, 3], vec![vec![0.1, 0.1]]).is_err());
        assert!(SbmParams::new(vec![2, 3], vec![vec![0.1], vec![0.1, 0.2]]).is_err());
        assert!(SbmParams::new(vec![2, 3], vec![vec![0.1, 0.3], vec![0.2, 0.1]]).is_err());
        assert!(SbmParams::new(vec![2, 3], vec![vec![0.1, 1.3], vec![1.3, 0.1]]).is_err());
    }

    #[test]
    fn symmetric_constructor_matches_ppm_shape() {
        let sbm = SbmParams::symmetric(100, 4, 0.3, 0.02).unwrap();
        assert_eq!(sbm.num_vertices(), 100);
        assert_eq!(sbm.num_blocks(), 4);
        assert!(sbm.is_separable());
        assert_eq!(sbm.block_sizes, vec![25; 4]);
        assert!(SbmParams::symmetric(100, 3, 0.3, 0.02).is_err());
    }

    #[test]
    fn separability_detection() {
        let assortative = SbmParams::new(vec![5, 5], vec![vec![0.9, 0.1], vec![0.1, 0.8]]).unwrap();
        assert!(assortative.is_separable());
        let disassortative =
            SbmParams::new(vec![5, 5], vec![vec![0.1, 0.9], vec![0.9, 0.1]]).unwrap();
        assert!(!disassortative.is_separable());
    }

    #[test]
    fn unequal_blocks_are_supported() {
        let params = SbmParams::new(
            vec![50, 100, 150],
            vec![
                vec![0.3, 0.01, 0.01],
                vec![0.01, 0.2, 0.01],
                vec![0.01, 0.01, 0.15],
            ],
        )
        .unwrap();
        let (graph, truth) = generate_sbm(&params, 8).unwrap();
        assert_eq!(graph.num_vertices(), 300);
        assert_eq!(truth.community_sizes(), vec![50, 100, 150]);
        // Each block should be denser inside than toward the rest.
        for c in 0..3 {
            let phi = properties::set_conductance(&graph, truth.members(c));
            assert!(phi < 0.5, "block {c} conductance {phi}");
        }
    }

    #[test]
    fn expected_edges_matches_empirical_count() {
        let params = SbmParams::symmetric(600, 3, 0.06, 0.005).unwrap();
        let expected = params.expected_edges();
        let (graph, _) = generate_sbm(&params, 77).unwrap();
        let m = graph.num_edges() as f64;
        assert!(
            (m - expected).abs() < 0.15 * expected,
            "m = {m}, expected = {expected}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let params = SbmParams::symmetric(120, 2, 0.2, 0.02).unwrap();
        let (a, _) = generate_sbm(&params, 1).unwrap();
        let (b, _) = generate_sbm(&params, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sbm_and_ppm_agree_in_distribution_shape() {
        // Different seeds, so not an exact equality, but the edge counts
        // must concentrate around the same expectation.
        let sbm = SbmParams::symmetric(400, 4, 0.1, 0.01).unwrap();
        let ppm = crate::PpmParams::new(400, 4, 0.1, 0.01).unwrap();
        let (g_sbm, _) = generate_sbm(&sbm, 5).unwrap();
        let (g_ppm, _) = crate::generate_ppm(&ppm, 6).unwrap();
        let m_sbm = g_sbm.num_edges() as f64;
        let m_ppm = g_ppm.num_edges() as f64;
        assert!((m_sbm - m_ppm).abs() < 0.2 * m_ppm.max(m_sbm));
    }

    proptest! {
        /// Arbitrary valid SBMs generate well-formed graphs with the right
        /// block structure.
        #[test]
        fn generator_is_well_formed(
            sizes in proptest::collection::vec(1usize..20, 1..4),
            diag in 0.0f64..1.0,
            off in 0.0f64..0.5,
            seed in any::<u64>(),
        ) {
            let r = sizes.len();
            let matrix: Vec<Vec<f64>> = (0..r)
                .map(|i| (0..r).map(|j| if i == j { diag } else { off }).collect())
                .collect();
            let params = SbmParams::new(sizes.clone(), matrix).unwrap();
            let (graph, truth) = generate_sbm(&params, seed).unwrap();
            prop_assert_eq!(graph.num_vertices(), sizes.iter().sum::<usize>());
            prop_assert_eq!(truth.community_sizes(), sizes);
            let degree_sum: usize = graph.vertices().map(|v| graph.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * graph.num_edges());
        }
    }
}
