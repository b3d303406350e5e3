//! Symmetric planted partition model `G(n, p, q)`.

use cdrw_graph::{Graph, Partition};
use serde::{Deserialize, Serialize};

use crate::gnp::check_probability;
use crate::sbm::check_equal_blocks;
use crate::{generate_sbm, GenError, SbmParams};

/// Parameters of a symmetric planted partition graph `G(n, p, q)` with `r`
/// equal-size blocks (Section I-B of the paper).
///
/// Every vertex belongs to exactly one of `r` blocks of size `n/r`. A pair
/// inside the same block is connected independently with probability `p`;
/// a pair across blocks with probability `q`. A *separable* community
/// structure requires `p > q`; the constructor does not enforce this (some
/// ablation experiments deliberately blur the structure) but
/// [`PpmParams::is_separable`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpmParams {
    /// Total number of vertices `n`.
    pub n: usize,
    /// Number of planted blocks `r`.
    pub r: usize,
    /// Intra-block edge probability `p`.
    pub p: f64,
    /// Inter-block edge probability `q`.
    pub q: f64,
}

impl PpmParams {
    /// Validates and creates the parameter set.
    ///
    /// # Errors
    ///
    /// * [`GenError::InvalidSize`] when `n == 0`, `r == 0`, or `r` does not
    ///   divide `n` (the model is the *symmetric* PPM of the paper).
    /// * [`GenError::ProbabilityOutOfRange`] when `p` or `q` lies outside
    ///   `[0, 1]`.
    pub fn new(n: usize, r: usize, p: f64, q: f64) -> Result<Self, GenError> {
        check_equal_blocks(n, r)?;
        check_probability("p", p)?;
        check_probability("q", q)?;
        Ok(PpmParams { n, r, p, q })
    }

    /// Size of each block, `n/r`.
    pub fn block_size(&self) -> usize {
        self.n / self.r
    }

    /// Whether the parameters describe a separable community structure
    /// (`p > q`).
    pub fn is_separable(&self) -> bool {
        self.p > self.q
    }

    /// Expected degree of a vertex: `p·(n/r − 1) + q·(n − n/r)`.
    pub fn expected_degree(&self) -> f64 {
        let b = self.block_size() as f64;
        self.p * (b - 1.0) + self.q * (self.n as f64 - b)
    }

    /// Expected number of edges inside one block, `C(n/r, 2)·p`.
    pub fn expected_intra_edges_per_block(&self) -> f64 {
        let b = self.block_size() as f64;
        b * (b - 1.0) / 2.0 * self.p
    }

    /// Expected number of edges leaving one block, `(n/r)(n − n/r)·q`.
    pub fn expected_inter_edges_per_block(&self) -> f64 {
        let b = self.block_size() as f64;
        b * (self.n as f64 - b) * self.q
    }

    /// Expected conductance of one planted block,
    /// `q(n − n/r) / (p(n/r − 1) + q(n − n/r))` — the quantity the paper uses
    /// as the stopping threshold `δ = Φ_G` in its experiments.
    pub fn expected_block_conductance(&self) -> f64 {
        let b = self.block_size() as f64;
        let out = self.q * (self.n as f64 - b);
        let total = self.p * (b - 1.0) + out;
        if total <= 0.0 {
            1.0
        } else {
            out / total
        }
    }

    /// The ratio `p/q` (infinite when `q == 0`), compared against the
    /// theoretical recovery condition `q = o(p / (r·log(n/r)))` of Theorem 6.
    pub fn p_over_q(&self) -> f64 {
        if self.q == 0.0 {
            f64::INFINITY
        } else {
            self.p / self.q
        }
    }

    /// The threshold `r·ln(n/r)` that `p/q` must (asymptotically) exceed for
    /// Theorem 6 to guarantee recovery.
    pub fn theorem6_threshold(&self) -> f64 {
        let block = self.block_size().max(2) as f64;
        self.r as f64 * block.ln()
    }
}

/// Generates a planted partition graph and its ground-truth [`Partition`]:
/// the symmetric SBM, `generate_sbm(&SbmParams::symmetric(n, r, p, q)?)`.
///
/// Block `i` consists of the contiguous vertex range
/// `i·(n/r) .. (i+1)·(n/r)`; the ground-truth partition records exactly this
/// assignment. Each block's pairs, then each block pair's rectangle, are
/// drawn with the geometric skip sampler of [`crate::generate_gnp`].
///
/// # Errors
///
/// [`GenError::InvalidSize`] (or [`GenError::ProbabilityOutOfRange`]) when
/// the fields were set directly to values [`PpmParams::new`] rejects.
pub fn generate_ppm(params: &PpmParams, seed: u64) -> Result<(Graph, Partition), GenError> {
    generate_sbm(
        &SbmParams::symmetric(params.n, params.r, params.p, params.q)?,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::properties;
    use proptest::prelude::*;

    #[test]
    fn params_validation() {
        assert!(PpmParams::new(0, 1, 0.5, 0.1).is_err());
        assert!(PpmParams::new(10, 0, 0.5, 0.1).is_err());
        assert!(PpmParams::new(10, 3, 0.5, 0.1).is_err());
        assert!(PpmParams::new(10, 2, 1.5, 0.1).is_err());
        assert!(PpmParams::new(10, 2, 0.5, -0.1).is_err());
        let params = PpmParams::new(12, 3, 0.5, 0.1).unwrap();
        assert_eq!(params.block_size(), 4);
        assert!(params.is_separable());
    }

    #[test]
    fn expected_quantities_are_consistent() {
        let params = PpmParams::new(1000, 5, 0.05, 0.001).unwrap();
        let b = 200.0;
        assert!((params.expected_degree() - (0.05 * 199.0 + 0.001 * 800.0)).abs() < 1e-12);
        assert!((params.expected_intra_edges_per_block() - b * 199.0 / 2.0 * 0.05).abs() < 1e-9);
        assert!((params.expected_inter_edges_per_block() - b * 800.0 * 0.001).abs() < 1e-9);
        let phi = params.expected_block_conductance();
        assert!(phi > 0.0 && phi < 1.0);
        assert!((params.p_over_q() - 50.0).abs() < 1e-12);
        assert!(params.theorem6_threshold() > 0.0);
    }

    #[test]
    fn figure3_worked_example_edge_counts() {
        // Figure 3's worked example (Section IV): with block size 2¹⁰,
        // p = 2·log₂(2¹⁰)/2¹⁰ and q = 0.6/2¹⁰ the paper reports
        // e_in ≈ 10230 intra and e_out ≈ 614 inter edges per block.
        let block = 1024;
        let p = crate::log2_n_over_n(block, 2.0);
        let q = 0.6 / block as f64;
        let params = PpmParams::new(2 * block, 2, p, q).unwrap();
        let e_in = params.expected_intra_edges_per_block();
        let e_out = params.expected_inter_edges_per_block();
        assert!((e_in - 10230.0).abs() < 10.0, "e_in = {e_in}");
        assert!((e_out - 614.0).abs() < 2.0, "e_out = {e_out}");
        assert!((e_out / e_in - 0.06).abs() < 0.01);
    }

    #[test]
    fn literal_fields_that_new_rejects_are_typed_errors() {
        for (n, r) in [(0, 1), (10, 0), (10, 3)] {
            let params = PpmParams {
                n,
                r,
                p: 0.5,
                q: 0.1,
            };
            assert!(matches!(
                generate_ppm(&params, 1),
                Err(GenError::InvalidSize { .. })
            ));
        }
    }

    #[test]
    fn conductance_is_one_when_no_edges_expected() {
        let params = PpmParams::new(10, 2, 0.0, 0.0).unwrap();
        assert_eq!(params.expected_block_conductance(), 1.0);
        assert!(params.p_over_q().is_infinite());
    }

    #[test]
    fn ground_truth_blocks_are_contiguous_and_equal() {
        let params = PpmParams::new(120, 4, 0.4, 0.01).unwrap();
        let (graph, truth) = generate_ppm(&params, 3).unwrap();
        assert_eq!(graph.num_vertices(), 120);
        assert_eq!(truth.num_communities(), 4);
        for c in 0..4 {
            let members = truth.members(c);
            assert_eq!(members.len(), 30);
            assert_eq!(members[0], c * 30);
            assert_eq!(*members.last().unwrap(), c * 30 + 29);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let params = PpmParams::new(200, 2, 0.1, 0.01).unwrap();
        let (a, _) = generate_ppm(&params, 9).unwrap();
        let (b, _) = generate_ppm(&params, 9).unwrap();
        let (c, _) = generate_ppm(&params, 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn intra_and_inter_edge_counts_concentrate() {
        let params = PpmParams::new(800, 4, 0.08, 0.004).unwrap();
        let (graph, truth) = generate_ppm(&params, 21).unwrap();
        for c in 0..4 {
            let members = truth.members(c);
            let intra = properties::internal_edges(&graph, members) as f64;
            let inter = properties::cut_size(&graph, members) as f64;
            let expected_intra = params.expected_intra_edges_per_block();
            let expected_inter = params.expected_inter_edges_per_block();
            assert!(
                (intra - expected_intra).abs() < 0.25 * expected_intra,
                "block {c}: intra = {intra}, expected = {expected_intra}"
            );
            assert!(
                (inter - expected_inter).abs() < 0.35 * expected_inter,
                "block {c}: inter = {inter}, expected = {expected_inter}"
            );
        }
    }

    #[test]
    fn measured_block_conductance_matches_expectation() {
        let params = PpmParams::new(1000, 5, 0.05, 0.001).unwrap();
        let (graph, truth) = generate_ppm(&params, 1).unwrap();
        let expected = params.expected_block_conductance();
        for c in 0..5 {
            let phi = properties::set_conductance(&graph, truth.members(c));
            assert!(
                (phi - expected).abs() < 0.5 * expected,
                "block {c}: φ = {phi}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn figure1_parameters_generate_expected_shape() {
        // Figure 1: n = 1000, r = 5, p = 1/20, q = 1/1000.
        let params = PpmParams::new(1000, 5, 1.0 / 20.0, 1.0 / 1000.0).unwrap();
        let (graph, truth) = generate_ppm(&params, 4).unwrap();
        assert_eq!(truth.num_communities(), 5);
        // Expected degree ≈ 0.05·199 + 0.001·800 ≈ 10.75.
        let stats = properties::degree_stats(&graph).unwrap();
        assert!((stats.mean - params.expected_degree()).abs() < 1.0);
    }

    #[test]
    fn r_equals_one_is_a_plain_gnp() {
        let params = PpmParams::new(300, 1, 0.05, 0.9).unwrap();
        let (graph, truth) = generate_ppm(&params, 5).unwrap();
        assert_eq!(truth.num_communities(), 1);
        // q is irrelevant when there is a single block.
        let expected_edges = params.expected_intra_edges_per_block();
        assert!((graph.num_edges() as f64 - expected_edges).abs() < 0.3 * expected_edges);
    }

    #[test]
    fn q_one_connects_all_cross_pairs() {
        let params = PpmParams::new(40, 2, 0.0, 1.0).unwrap();
        let (graph, truth) = generate_ppm(&params, 5).unwrap();
        // Complete bipartite between the two blocks of 20: 400 edges.
        assert_eq!(graph.num_edges(), 400);
        assert_eq!(properties::internal_edges(&graph, truth.members(0)), 0);
    }

    proptest! {
        /// The generator never produces self-loops or duplicate edges and the
        /// ground truth always covers all vertices with equal blocks.
        #[test]
        fn generator_is_well_formed(
            r in 1usize..5,
            block in 2usize..30,
            p in 0.0f64..1.0,
            q in 0.0f64..0.3,
            seed in any::<u64>(),
        ) {
            let n = r * block;
            let params = PpmParams::new(n, r, p, q).unwrap();
            let (graph, truth) = generate_ppm(&params, seed).unwrap();
            prop_assert_eq!(graph.num_vertices(), n);
            prop_assert_eq!(truth.num_vertices(), n);
            prop_assert_eq!(truth.num_communities(), r);
            let sizes = truth.community_sizes();
            for size in sizes {
                prop_assert_eq!(size, block);
            }
            // Handshake lemma on the CSR output.
            let degree_sum: usize = graph.vertices().map(|v| graph.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * graph.num_edges());
        }
    }
}
