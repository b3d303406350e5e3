//! Erdős–Rényi `G(n, p)` generator, and the geometric skip sampler every
//! generator of this crate selects its pairs with.

use cdrw_graph::Graph;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sbm::sample_blocks;
use crate::GenError;

/// Parameters of an Erdős–Rényi random graph `G(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GnpParams {
    /// Number of vertices `n`.
    pub n: usize,
    /// Edge probability `p`.
    pub p: f64,
}

impl GnpParams {
    /// Validates and creates the parameter set.
    ///
    /// # Errors
    ///
    /// * [`GenError::InvalidSize`] when `n == 0`.
    /// * [`GenError::ProbabilityOutOfRange`] when `p ∉ [0, 1]`.
    pub fn new(n: usize, p: f64) -> Result<Self, GenError> {
        if n == 0 {
            return Err(GenError::InvalidSize {
                reason: "G(n, p) requires at least one vertex".to_string(),
            });
        }
        check_probability("p", p)?;
        Ok(GnpParams { n, p })
    }

    /// Expected number of edges, `C(n, 2)·p`.
    pub fn expected_edges(&self) -> f64 {
        let n = self.n as f64;
        n * (n - 1.0) / 2.0 * self.p
    }

    /// Expected degree of a vertex, `(n − 1)·p`.
    pub fn expected_degree(&self) -> f64 {
        (self.n as f64 - 1.0) * self.p
    }
}

/// Generates a `G(n, p)` graph with the given seed: the one-block SBM.
///
/// Uses geometric "skip" sampling over the `C(n, 2)` vertex pairs so the
/// running time is `O(n + m)` rather than `O(n²)` for sparse graphs — the
/// regime the paper cares about (`p = Θ(log n / n)`).
///
/// # Errors
///
/// Propagates graph-construction failures (which cannot occur for valid
/// [`GnpParams`]).
pub fn generate_gnp(params: &GnpParams, seed: u64) -> Result<Graph, GenError> {
    sample_blocks(
        &[params.n],
        &[vec![params.p]],
        seed,
        |builder, _, (u, v), _| Ok(builder.add_edge(u, v)?),
    )
}

/// Calls `visit(rng, index)` for each index of `0..total` selected
/// independently with probability `p`, in ascending order: every index when
/// `p ≥ 1`, none when `p ≤ 0`, and otherwise by jumping `Geometric(p)`
/// skips through the index space, one uniform draw per skip. `visit` gets
/// the RNG so it can draw between skips (the DC-SBM's thinning does).
pub(crate) fn for_each_selected(
    rng: &mut SmallRng,
    total: usize,
    p: f64,
    mut visit: impl FnMut(&mut SmallRng, usize) -> Result<(), GenError>,
) -> Result<(), GenError> {
    if total == 0 || p <= 0.0 {
        return Ok(());
    }
    if p >= 1.0 {
        return (0..total).try_for_each(|index| visit(rng, index));
    }
    // `ln_1p` stays accurate where `1 − p` would round (to one for
    // p ≲ 1.1e-16, making every skip one); the saturating arithmetic keeps
    // the longest skips in range.
    let ln_1_minus_p = (-p).ln_1p();
    let mut index: i64 = -1;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = ((u.ln() / ln_1_minus_p).floor() as i64).saturating_add(1);
        index = index.saturating_add(skip.max(1));
        if index as usize >= total {
            return Ok(());
        }
        visit(rng, index as usize)?;
    }
}

/// Maps a linear index in `0..C(k,2)` to the pair `(i, j)` with `i < j` in the
/// row-major enumeration `(0,1), (0,2), …, (0,k−1), (1,2), …`.
pub(crate) fn unrank_pair(index: usize, k: usize) -> (usize, usize) {
    debug_assert!(index < k * (k - 1) / 2);
    // Row i starts at offset i*k − i(i+3)/2 ... solving directly is fiddly;
    // walk rows arithmetically (row lengths shrink by one), which is O(1)
    // amortised because we precompute with the quadratic formula and adjust.
    let kf = k as f64;
    let idx = index as f64;
    // Solve i from: index < (i+1)(k-1) − (i+1)i/2  — use the closed form and
    // then correct by at most one step.
    let mut i = (kf - 0.5 - ((kf - 0.5).powi(2) - 2.0 * idx).max(0.0).sqrt()).floor() as usize;
    i = i.min(k.saturating_sub(2));
    loop {
        let row_start = i * (k - 1) - i * (i.saturating_sub(1)) / 2;
        let row_len = k - 1 - i;
        if index < row_start {
            i -= 1;
            continue;
        }
        if index >= row_start + row_len {
            i += 1;
            continue;
        }
        let j = i + 1 + (index - row_start);
        return (i, j);
    }
}

pub(crate) fn check_probability(name: &str, value: f64) -> Result<(), GenError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(GenError::ProbabilityOutOfRange {
            name: name.to_string(),
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::traversal;
    use proptest::prelude::*;

    #[test]
    fn params_validation() {
        assert!(GnpParams::new(0, 0.5).is_err());
        assert!(GnpParams::new(10, -0.1).is_err());
        assert!(GnpParams::new(10, 1.5).is_err());
        assert!(GnpParams::new(10, f64::NAN).is_err());
        let p = GnpParams::new(10, 0.5).unwrap();
        assert!((p.expected_edges() - 22.5).abs() < 1e-12);
        assert!((p.expected_degree() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn p_zero_gives_empty_graph() {
        let g = generate_gnp(&GnpParams::new(50, 0.0).unwrap(), 1).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn p_one_gives_complete_graph() {
        let g = generate_gnp(&GnpParams::new(20, 1.0).unwrap(), 1).unwrap();
        assert_eq!(g.num_edges(), 20 * 19 / 2);
    }

    #[test]
    fn single_vertex_graph() {
        let g = generate_gnp(&GnpParams::new(1, 0.7).unwrap(), 3).unwrap();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let params = GnpParams::new(200, 0.05).unwrap();
        let a = generate_gnp(&params, 42).unwrap();
        let b = generate_gnp(&params, 42).unwrap();
        let c = generate_gnp(&params, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn edge_count_concentrates_around_expectation() {
        let params = GnpParams::new(500, 0.04).unwrap();
        let expected = params.expected_edges();
        let g = generate_gnp(&params, 7).unwrap();
        let m = g.num_edges() as f64;
        // 4990 expected edges; allow ±12% which is > 5 standard deviations.
        assert!(
            (m - expected).abs() < 0.12 * expected,
            "m = {m}, expected = {expected}"
        );
    }

    #[test]
    fn above_connectivity_threshold_graph_is_connected() {
        // p = 3 ln n / n is comfortably above the threshold.
        let n = 600;
        let p = 3.0 * (n as f64).ln() / n as f64;
        let g = generate_gnp(&GnpParams::new(n, p).unwrap(), 11).unwrap();
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn degrees_concentrate_in_dense_regime() {
        let n = 400;
        let p = 0.1;
        let g = generate_gnp(&GnpParams::new(n, p).unwrap(), 5).unwrap();
        let stats = cdrw_graph::properties::degree_stats(&g).unwrap();
        let expected = (n - 1) as f64 * p;
        assert!((stats.mean - expected).abs() < 0.15 * expected);
        // Max degree should not be wildly above the mean in this regime.
        assert!((stats.max as f64) < 2.5 * expected);
    }

    #[test]
    fn unrank_pair_enumerates_all_pairs_once() {
        for k in 2..12 {
            let total = k * (k - 1) / 2;
            let mut seen = std::collections::HashSet::new();
            for index in 0..total {
                let (i, j) = unrank_pair(index, k);
                assert!(i < j && j < k, "bad pair ({i}, {j}) for k = {k}");
                assert!(seen.insert((i, j)), "pair ({i}, {j}) repeated for k = {k}");
            }
            assert_eq!(seen.len(), total);
        }
    }

    proptest! {
        /// The skip sampler produces edge counts within a loose binomial
        /// envelope and never panics for arbitrary (n, p).
        #[test]
        fn skip_sampler_is_well_behaved(n in 2usize..150, p in 0.0f64..1.0, seed in any::<u64>()) {
            let params = GnpParams::new(n, p).unwrap();
            let g = generate_gnp(&params, seed).unwrap();
            prop_assert_eq!(g.num_vertices(), n);
            let max_edges = n * (n - 1) / 2;
            prop_assert!(g.num_edges() <= max_edges);
        }

        /// unrank_pair round-trips against a direct enumeration.
        #[test]
        fn unrank_matches_enumeration(k in 2usize..40, index_fraction in 0.0f64..1.0) {
            let total = k * (k - 1) / 2;
            let index = ((total as f64 - 1.0) * index_fraction).round() as usize;
            let (i, j) = unrank_pair(index, k);
            // Recompute the linear index of (i, j) in row-major order.
            let row_start = i * (k - 1) - i * i.saturating_sub(1) / 2;
            let recomputed = row_start + (j - i - 1);
            prop_assert_eq!(recomputed, index);
        }
    }
}
