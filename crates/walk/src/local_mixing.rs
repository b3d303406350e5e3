//! Local mixing sets — the paper's central primitive.
//!
//! Definition 2 of the paper: a random walk started at `s` *locally mixes* in
//! a set `S ∋ s` at time `t` if `‖p^t_S − π_S‖₁ < ε`. CDRW does not work with
//! an explicit candidate set; instead (Algorithm 1, lines 12–17) it scores
//! every node by
//!
//! ```text
//! x_u = | p_ℓ(u) − d(u) / µ′(S) |        with µ′(S) = (2m/n)·|S|
//! ```
//!
//! and declares that a mixing set of size `|S|` exists when the sum of the
//! `|S|` smallest scores is below `1/2e`. The approximation `µ′(S)` (average
//! volume) replaces the true volume `µ(S)` because a node can compute it
//! knowing only `|S|`, `n` and `m` — that is what makes the test computable
//! with local information plus an aggregation tree in the CONGEST model.
//!
//! On a weighted graph every degree in these formulas is the *weighted*
//! degree `w(u)` and `µ′(S) = (w(V)/n)·|S|`: the stationary distribution of
//! the weighted walk is `π(u) = w(u)/w(V)`, so the scores compare the walk
//! against the correct target. Unweighted graphs evaluate the identical
//! arithmetic (`w(u)` *is* `d(u) as f64` there), keeping the historical
//! behaviour bit for bit.
//!
//! The candidate size sweep starts at a minimum size `R` (the paper assumes
//! communities have at least `log n` members) and grows geometrically by the
//! factor `1 + 1/8e`; growing by a constant factor keeps the number of
//! candidate sizes at `O(log n)` while — as shown in Lemma 3 of the local
//! mixing paper \[33\] — not overshooting a valid mixing set by more than the
//! slack the `1/2e` threshold tolerates.
//!
//! This module holds the sweep's configuration, its constants and its
//! result types; [`crate::WalkEngine::sweep`] runs it in
//! `O(|support| + |S|)` per candidate size. The dense oracle that scans all
//! `n` vertices per check lives in the dev-only `cdrw-reference` crate, and
//! the property tests in [`crate::WalkEngine`]'s module compare the two.

use cdrw_graph::VertexId;
use serde::{Deserialize, Serialize};

use crate::{MixingCriterion, WalkError};

/// The mixing-condition threshold `1/2e` from Algorithm 1, line 15.
pub const MIXING_THRESHOLD: f64 = 1.0 / (2.0 * std::f64::consts::E);

/// The candidate-size growth factor `1 + 1/8e` from Algorithm 1, line 12.
pub const SIZE_GROWTH_FACTOR: f64 = 1.0 + 1.0 / (8.0 * std::f64::consts::E);

/// Configuration of the local-mixing-set search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalMixingConfig {
    /// Smallest candidate set size `R`. Algorithm 1 initialises this to
    /// `log n`, assuming every community has at least `log n` members.
    pub min_size: usize,
    /// Geometric growth factor between consecutive candidate sizes.
    pub growth_factor: f64,
    /// Mixing threshold; the paper fixes it at [`MIXING_THRESHOLD`].
    pub threshold: f64,
    /// The stopping/selection rule applied per candidate size. It also
    /// decides whether the sweep stops at the first size that fails after a
    /// pass (the paper's behaviour) or scans every size and keeps the
    /// largest pass ([`MixingCriterion::stops_at_first_failure`]). The walk
    /// crate's constructors default to the paper's [`MixingCriterion::Strict`];
    /// `cdrw_core::CdrwConfig` injects its own default,
    /// [`MixingCriterion::Renormalized`].
    pub criterion: MixingCriterion,
}

impl LocalMixingConfig {
    /// The paper's configuration for a graph of `n` vertices:
    /// `R = max(2, ⌈ln n⌉)`, growth `1 + 1/8e`, threshold `1/2e`.
    pub fn for_graph_size(n: usize) -> Self {
        let ln_n = (n.max(2) as f64).ln().ceil() as usize;
        LocalMixingConfig {
            min_size: ln_n.max(2),
            growth_factor: SIZE_GROWTH_FACTOR,
            threshold: MIXING_THRESHOLD,
            criterion: MixingCriterion::Strict,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::InvalidParameter`] for a zero minimum size, a
    /// growth factor ≤ 1, or a non-positive threshold.
    // The negated comparisons are deliberate: NaN fails `x > 1.0` and must be
    // rejected, which the un-negated form would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), WalkError> {
        if self.min_size == 0 {
            return Err(WalkError::InvalidParameter {
                name: "min_size",
                reason: "the smallest candidate size must be at least 1".to_string(),
            });
        }
        if !(self.growth_factor > 1.0) {
            return Err(WalkError::InvalidParameter {
                name: "growth_factor",
                reason: format!("must be > 1.0, got {}", self.growth_factor),
            });
        }
        if !(self.threshold > 0.0) {
            return Err(WalkError::InvalidParameter {
                name: "threshold",
                reason: format!("must be positive, got {}", self.threshold),
            });
        }
        self.criterion.validate()
    }

    /// The sequence of candidate sizes for a graph of `n` vertices:
    /// `R, ⌈(1+1/8e)R⌉, …` capped at `n` (each size appears once).
    pub fn candidate_sizes(&self, n: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        if n == 0 {
            return sizes;
        }
        let mut size = self.min_size.min(n);
        loop {
            if sizes.last() != Some(&size) {
                sizes.push(size);
            }
            if size >= n {
                break;
            }
            let next = ((size as f64) * self.growth_factor).ceil() as usize;
            size = next.max(size + 1).min(n);
        }
        sizes
    }
}

impl Default for LocalMixingConfig {
    fn default() -> Self {
        LocalMixingConfig {
            min_size: 2,
            growth_factor: SIZE_GROWTH_FACTOR,
            threshold: MIXING_THRESHOLD,
            criterion: MixingCriterion::Strict,
        }
    }
}

/// Result of checking the mixing condition for one candidate size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixingCheck {
    /// The candidate size `|S|`.
    pub size: usize,
    /// Sum of the `|S|` smallest `x_u` scores.
    pub score_sum: f64,
    /// Whether the sum is below the threshold.
    pub holds: bool,
}

/// Outcome of the candidate-size sweep at one step of the random walk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalMixingOutcome {
    /// The largest mixing set found (vertices with the `|S|` smallest
    /// scores), sorted by vertex id; `None` if no candidate size passed.
    pub set: Option<Vec<VertexId>>,
    /// Every size checked during the sweep, in order.
    pub checks: Vec<MixingCheck>,
}

impl LocalMixingOutcome {
    /// Size of the largest mixing set, or 0 when none was found.
    pub fn size(&self) -> usize {
        self.set.as_ref().map(Vec::len).unwrap_or(0)
    }

    /// Whether any mixing set was found.
    pub fn found(&self) -> bool {
        self.set.is_some()
    }

    /// Number of candidate sizes examined (the CONGEST simulator charges one
    /// aggregation per check).
    pub fn sizes_checked(&self) -> usize {
        self.checks.len()
    }

    /// The mixing margin of the selected set: `threshold` minus the winning
    /// check's score. The sweep keeps the *last* passing check's set, so
    /// that check's score is the winner's; infinity-negative (no margin)
    /// results are impossible while [`LocalMixingOutcome::set`] is `Some`.
    /// Shared by the sequential and CONGEST drivers so the evidence both
    /// record cannot drift apart.
    pub fn winning_margin(&self, threshold: f64) -> f64 {
        let winning_score = self
            .checks
            .iter()
            .rev()
            .find(|check| check.holds)
            .map(|check| check.score_sum)
            .unwrap_or(f64::INFINITY);
        threshold - winning_score
    }
}

/// The walk-affinity sweep key `p(u)/w(u)` over the *weighted* degree, with
/// the conventions every affinity order in this crate shares: zero mass
/// maps to affinity `0` regardless of the degree, and mass trapped on an
/// isolated vertex maps to `+∞` (it is its own mixing set). Edge weights are
/// validated positive at graph construction, so `w(v) = 0 ⟺ d(v) = 0` and
/// the isolated-vertex convention is unchanged by weighting; on an
/// unweighted graph `w(u)` is exactly `d(u) as f64` and the quotient is the
/// historical one bit for bit.
///
/// The result is never NaN: probabilities are finite and non-negative by
/// construction, the two division-by-zero shapes (`0/0` and `p/0`) are
/// handled explicitly above, and a finite non-negative numerator over a
/// positive finite denominator is always an ordered float. Affinity
/// comparators may therefore use `total_cmp` and get exactly the IEEE
/// partial order — the sparse engine's support sort relies on this.
pub(crate) fn affinity_ratio(probability: f64, weighted_degree: f64) -> f64 {
    if probability == 0.0 {
        0.0
    } else if weighted_degree == 0.0 {
        f64::INFINITY
    } else {
        probability / weighted_degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_paper() {
        assert!((MIXING_THRESHOLD - 0.1839397).abs() < 1e-6);
        assert!((SIZE_GROWTH_FACTOR - 1.0459849).abs() < 1e-6);
    }

    #[test]
    fn config_validation() {
        let mut config = LocalMixingConfig::default();
        assert!(config.validate().is_ok());
        config.min_size = 0;
        assert!(config.validate().is_err());
        config = LocalMixingConfig::default();
        config.growth_factor = 1.0;
        assert!(config.validate().is_err());
        config = LocalMixingConfig::default();
        config.threshold = 0.0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn for_graph_size_uses_log_n() {
        let config = LocalMixingConfig::for_graph_size(1024);
        assert_eq!(config.min_size, 7); // ⌈ln 1024⌉ = 7
        assert_eq!(LocalMixingConfig::for_graph_size(0).min_size, 2);
    }

    #[test]
    fn candidate_sizes_are_strictly_increasing_and_capped() {
        let config = LocalMixingConfig::for_graph_size(500);
        let sizes = config.candidate_sizes(500);
        assert_eq!(*sizes.first().unwrap(), config.min_size);
        assert_eq!(*sizes.last().unwrap(), 500);
        for window in sizes.windows(2) {
            assert!(window[0] < window[1]);
        }
        assert!(config.candidate_sizes(0).is_empty());
        // min_size larger than n is clamped.
        let tiny = config.candidate_sizes(3);
        assert_eq!(tiny, vec![3]);
    }

    #[test]
    fn outcome_accessors() {
        let outcome = LocalMixingOutcome {
            set: None,
            checks: vec![MixingCheck {
                size: 4,
                score_sum: 1.0,
                holds: false,
            }],
        };
        assert!(!outcome.found());
        assert_eq!(outcome.size(), 0);
        assert_eq!(outcome.sizes_checked(), 1);
    }
}
