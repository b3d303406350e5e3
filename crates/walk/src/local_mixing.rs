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
//! The functions in this module are the *dense reference* implementation:
//! every check scans all `n` vertices. The hot paths (`cdrw-core`,
//! `cdrw-congest`) run the sweep through [`crate::WalkEngine::sweep`]
//! instead, which produces identical sets in `O(|support| + |S|)` per
//! candidate size; the property tests in [`crate::WalkEngine`]'s module
//! compare the two.

use cdrw_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

use crate::{MixingCriterion, WalkDistribution, WalkError};

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
    /// crate's constructors default to the paper's [`MixingCriterion::Strict`]
    /// (this module is the paper-faithful reference); `cdrw_core::CdrwConfig`
    /// injects its own default, [`MixingCriterion::Renormalized`].
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

/// Computes the per-node scores `x_u = |p(u) − d(u)/µ′(S)|` for a candidate
/// size, where `µ′(S) = (2m/n)·|S|`.
///
/// # Errors
///
/// * [`WalkError::NoEdges`] when the graph has no edges (µ′ is zero).
/// * [`WalkError::DimensionMismatch`] when the distribution does not match
///   the graph.
/// * [`WalkError::InvalidParameter`] when `size` is zero or exceeds `n`.
pub fn node_scores(
    graph: &Graph,
    distribution: &WalkDistribution,
    size: usize,
) -> Result<Vec<f64>, WalkError> {
    validate_check_inputs(graph, distribution, size)?;
    let average_volume = graph.weighted_volume() / graph.num_vertices() as f64 * size as f64;
    Ok(graph
        .vertices()
        .map(|u| (distribution.probability(u) - graph.weighted_degree(u) / average_volume).abs())
        .collect())
}

/// Shared input validation for every per-size check: edgeless graphs,
/// mismatched distributions, and out-of-range candidate sizes are rejected
/// identically by every criterion.
fn validate_check_inputs(
    graph: &Graph,
    distribution: &WalkDistribution,
    size: usize,
) -> Result<(), WalkError> {
    if graph.total_volume() == 0 {
        return Err(WalkError::NoEdges);
    }
    if distribution.len() != graph.num_vertices() {
        return Err(WalkError::DimensionMismatch {
            left: distribution.len(),
            right: graph.num_vertices(),
        });
    }
    if size == 0 || size > graph.num_vertices() {
        return Err(WalkError::InvalidParameter {
            name: "size",
            reason: format!(
                "candidate size must be in 1..={}, got {size}",
                graph.num_vertices()
            ),
        });
    }
    Ok(())
}

/// Selects the `size` vertices with the smallest strict scores and returns
/// them (in selection order) together with their score sum — the shared
/// selection pipeline of the strict and adaptive criteria.
///
/// Ties are broken by vertex id, keeping experiments reproducible (the
/// paper's distributed version adds a tiny random perturbation instead; the
/// effect on the sum is negligible either way). A full sort is not needed —
/// selecting the `size` smallest scores is enough and keeps each check
/// linear in n.
fn select_smallest_scores(
    graph: &Graph,
    distribution: &WalkDistribution,
    size: usize,
) -> Result<(Vec<VertexId>, f64), WalkError> {
    let scores = node_scores(graph, distribution, size)?;
    let mut order: Vec<VertexId> = graph.vertices().collect();
    let compare = |&a: &VertexId, &b: &VertexId| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    };
    if size < order.len() {
        order.select_nth_unstable_by(size - 1, compare);
    }
    order.truncate(size);
    let score_sum: f64 = order.iter().map(|&v| scores[v]).sum();
    Ok((order, score_sum))
}

/// Packages a check verdict: when it holds, the selected vertices become the
/// member set, sorted by id.
fn finish_check(
    size: usize,
    score_sum: f64,
    holds: bool,
    selected: Vec<VertexId>,
) -> (MixingCheck, Option<Vec<VertexId>>) {
    let check = MixingCheck {
        size,
        score_sum,
        holds,
    };
    if holds {
        let mut members = selected;
        members.sort_unstable();
        (check, Some(members))
    } else {
        (check, None)
    }
}

/// Checks the mixing condition for one candidate size and, when it holds,
/// returns the member set (the `size` vertices with the smallest scores).
///
/// # Errors
///
/// Same conditions as [`node_scores`].
pub fn mixing_condition_holds(
    graph: &Graph,
    distribution: &WalkDistribution,
    size: usize,
    threshold: f64,
) -> Result<(MixingCheck, Option<Vec<VertexId>>), WalkError> {
    let (selected, score_sum) = select_smallest_scores(graph, distribution, size)?;
    let holds = score_sum < threshold;
    Ok(finish_check(size, score_sum, holds, selected))
}

/// Checks one candidate size under the configuration's
/// [`MixingCriterion`] — the criterion-aware generalisation of
/// [`mixing_condition_holds`], and the dense reference the sparse
/// [`crate::WalkEngine::sweep`] is property-tested against.
///
/// For [`MixingCriterion::Strict`] and [`MixingCriterion::Lazy`] this is
/// exactly [`mixing_condition_holds`] (the lazy criterion changes the walk,
/// not the per-size check).
///
/// # Errors
///
/// Same conditions as [`node_scores`], plus criterion validation.
pub fn mixing_check(
    graph: &Graph,
    distribution: &WalkDistribution,
    size: usize,
    config: &LocalMixingConfig,
) -> Result<(MixingCheck, Option<Vec<VertexId>>), WalkError> {
    config.criterion.validate()?;
    match config.criterion {
        MixingCriterion::Strict | MixingCriterion::Lazy(_) => {
            mixing_condition_holds(graph, distribution, size, config.threshold)
        }
        MixingCriterion::Adaptive => {
            adaptive_condition_holds(graph, distribution, size, config.threshold)
        }
        MixingCriterion::Renormalized => {
            renormalized_condition_holds(graph, distribution, size, config.threshold)
        }
    }
}

/// The adaptive variant of [`mixing_condition_holds`]: identical scoring and
/// selection, but the per-check threshold is loosened by the leaked mass
/// `1 − p(S)` observed on the selected set.
fn adaptive_condition_holds(
    graph: &Graph,
    distribution: &WalkDistribution,
    size: usize,
    threshold: f64,
) -> Result<(MixingCheck, Option<Vec<VertexId>>), WalkError> {
    let (selected, score_sum) = select_smallest_scores(graph, distribution, size)?;
    let retained: f64 = selected.iter().map(|&v| distribution.probability(v)).sum();
    let holds = score_sum < threshold + (1.0 - retained).max(0.0);
    Ok(finish_check(size, score_sum, holds, selected))
}

/// The renormalised restricted-score check: candidates are the `|S|` vertices
/// with the largest walk affinity `p(u)/d(u)` (the sweep order of local
/// clustering algorithms), and the walk's *conditional* distribution on the
/// candidate set is compared against `π′_S`:
///
/// ```text
/// x_u = | p(u)/p(S) − d(u)/µ′(S) |       with p(S) = Σ_{u∈S} p(u)
/// ```
///
/// Dividing by the retained mass `p(S)` cancels inter-community leakage, so
/// the criterion fires once the walk's *shape* over `S` is stationary even
/// while mass is still escaping — the regime where the strict rule
/// under-fires (see `ROADMAP.md`).
fn renormalized_condition_holds(
    graph: &Graph,
    distribution: &WalkDistribution,
    size: usize,
    threshold: f64,
) -> Result<(MixingCheck, Option<Vec<VertexId>>), WalkError> {
    validate_check_inputs(graph, distribution, size)?;
    let n = graph.num_vertices();
    let average_volume = graph.weighted_volume() / n as f64 * size as f64;
    let ratios: Vec<f64> = graph
        .vertices()
        .map(|u| affinity_ratio(distribution.probability(u), graph.weighted_degree(u)))
        .collect();
    let mut order: Vec<VertexId> = graph.vertices().collect();
    // Affinity descending; ties (the zero-mass tail) by (weighted degree,
    // id) ascending — the same total order the sparse engine's merge uses,
    // so the selected sets are identical.
    order.sort_unstable_by(|&a, &b| {
        ratios[b]
            .partial_cmp(&ratios[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| crate::engine::degree_key_cmp(graph, a, b))
    });
    order.truncate(size);
    let retained: f64 = order.iter().map(|&v| distribution.probability(v)).sum();
    let score_sum: f64 = if retained > 0.0 {
        order
            .iter()
            .map(|&v| {
                (distribution.probability(v) / retained - graph.weighted_degree(v) / average_volume)
                    .abs()
            })
            .sum()
    } else {
        f64::INFINITY
    };
    let holds = score_sum < threshold;
    Ok(finish_check(size, score_sum, holds, order))
}

/// The walk-affinity sweep key `p(u)/w(u)` over the *weighted* degree, with
/// the conventions shared by the dense and sparse implementations: zero mass
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

/// Runs the full candidate-size sweep and returns the largest mixing set at
/// this step of the walk (Algorithm 1, lines 12–17), applying the
/// configuration's [`MixingCriterion`] per size.
///
/// # Errors
///
/// Propagates configuration validation and [`node_scores`] failures.
pub fn largest_mixing_set(
    graph: &Graph,
    distribution: &WalkDistribution,
    config: &LocalMixingConfig,
) -> Result<LocalMixingOutcome, WalkError> {
    config.validate()?;
    if graph.total_volume() == 0 {
        return Err(WalkError::NoEdges);
    }
    // A criterion with a possibly-disconnected pass-region must scan every
    // size — an early exit could return a transient small prefix instead of
    // the community-sized set.
    let stop_early = config.criterion.stops_at_first_failure();
    let mut best: Option<Vec<VertexId>> = None;
    let mut checks = Vec::new();
    for size in config.candidate_sizes(graph.num_vertices()) {
        let (check, members) = mixing_check(graph, distribution, size, config)?;
        let holds = check.holds;
        checks.push(check);
        if holds {
            best = members;
        } else if stop_early && best.is_some() {
            break;
        }
    }
    Ok(LocalMixingOutcome { set: best, checks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalkOperator;
    use cdrw_gen::{generate_ppm, special, PpmParams};
    use cdrw_graph::GraphBuilder;
    use proptest::prelude::*;

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
    fn node_scores_validation() {
        let g = complete(6);
        let d = WalkDistribution::uniform(6).unwrap();
        assert!(node_scores(&g, &d, 0).is_err());
        assert!(node_scores(&g, &d, 7).is_err());
        let wrong = WalkDistribution::uniform(5).unwrap();
        assert!(node_scores(&g, &wrong, 3).is_err());
        let empty = Graph::empty(6);
        assert!(node_scores(&empty, &d, 3).is_err());
    }

    #[test]
    fn stationary_distribution_scores_are_zero_at_full_size() {
        // On a regular graph, p = π and |S| = n gives x_u = 0 for every u.
        let g = complete(8);
        let pi = WalkDistribution::stationary(&g).unwrap();
        let scores = node_scores(&g, &pi, 8).unwrap();
        assert!(scores.iter().all(|&x| x < 1e-12));
        let (check, members) = mixing_condition_holds(&g, &pi, 8, MIXING_THRESHOLD).unwrap();
        assert!(check.holds);
        assert_eq!(members.unwrap().len(), 8);
    }

    #[test]
    fn point_mass_does_not_mix_over_large_sets() {
        let g = complete(30);
        let p0 = WalkDistribution::point_mass(30, 0).unwrap();
        let (check, members) = mixing_condition_holds(&g, &p0, 30, MIXING_THRESHOLD).unwrap();
        assert!(!check.holds, "sum = {}", check.score_sum);
        assert!(members.is_none());
    }

    #[test]
    fn mixed_walk_on_expander_mixes_over_whole_graph() {
        let g = complete(64);
        let op = WalkOperator::new(&g);
        let p = op
            .walk(&WalkDistribution::point_mass(64, 0).unwrap(), 6)
            .clone();
        let config = LocalMixingConfig::for_graph_size(64);
        let outcome = largest_mixing_set(&g, &p, &config).unwrap();
        assert!(outcome.found());
        assert_eq!(outcome.size(), 64);
    }

    #[test]
    fn walk_inside_one_clique_of_a_ring_mixes_over_that_clique() {
        // Ring of 4 cliques of 32: after a moderate number of steps the walk
        // started inside clique 0 should mix over (roughly) clique 0 but not
        // over the whole graph.
        let (graph, truth) = special::ring_of_cliques(4, 32).unwrap();
        let op = WalkOperator::new(&graph);
        let p = op.walk(&WalkDistribution::point_mass(128, 5).unwrap(), 8);
        let config = LocalMixingConfig {
            min_size: 8,
            ..LocalMixingConfig::default()
        };
        let outcome = largest_mixing_set(&graph, &p, &config).unwrap();
        assert!(outcome.found());
        let set = outcome.set.unwrap();
        // The detected set is mostly inside clique 0.
        let clique0 = truth.members(0);
        let inside = set.iter().filter(|v| clique0.contains(v)).count();
        assert!(
            inside as f64 >= 0.8 * set.len() as f64,
            "only {inside} of {} detected vertices are in the seed clique",
            set.len()
        );
        assert!(
            set.len() < 128,
            "walk should not have mixed over the whole ring yet"
        );
    }

    #[test]
    fn ppm_block_is_a_mixing_set_after_enough_steps() {
        let params = PpmParams::new(256, 2, 0.25, 0.002).unwrap();
        let (graph, truth) = generate_ppm(&params, 13).unwrap();
        let op = WalkOperator::new(&graph);
        let p = op.walk(&WalkDistribution::point_mass(256, 3).unwrap(), 12);
        let config = LocalMixingConfig::for_graph_size(256);
        let outcome = largest_mixing_set(&graph, &p, &config).unwrap();
        assert!(outcome.found());
        let set = outcome.set.unwrap();
        let block0 = truth.members(0);
        let inside = set.iter().filter(|v| block0.contains(v)).count();
        // Most of the detected set lies in the seed's block and the size is
        // in the right ballpark (not the whole graph).
        assert!(inside as f64 >= 0.8 * set.len() as f64);
        assert!(set.len() >= 64);
        assert!(set.len() <= 224);
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

    proptest! {
        /// The strict criterion is pinned to the pre-criterion behaviour of
        /// this crate: running the sweep through the criterion dispatch with
        /// [`MixingCriterion::Strict`] selects exactly the sets (and reports
        /// exactly the score sums) of a sweep hand-rolled from
        /// [`mixing_condition_holds`], which is the code path every release
        /// up to PR 1 used unconditionally.
        #[test]
        fn strict_criterion_is_bit_identical_to_pre_criterion_sweep(
            n in 4usize..40,
            source in 0usize..4,
            steps in 0usize..8,
        ) {
            let g = complete(n);
            let op = WalkOperator::new(&g);
            let p = op.walk(&WalkDistribution::point_mass(n, source).unwrap(), steps);
            let config = LocalMixingConfig {
                criterion: MixingCriterion::Strict,
                ..LocalMixingConfig::for_graph_size(n)
            };
            // The pre-criterion sweep, verbatim.
            let mut best: Option<Vec<VertexId>> = None;
            let mut checks = Vec::new();
            for size in config.candidate_sizes(n) {
                let (check, members) =
                    mixing_condition_holds(&g, &p, size, config.threshold).unwrap();
                let holds = check.holds;
                checks.push(check);
                if holds {
                    best = members;
                } else if config.criterion.stops_at_first_failure() && best.is_some() {
                    break;
                }
            }
            let via_criterion = largest_mixing_set(&g, &p, &config).unwrap();
            prop_assert_eq!(via_criterion.set, best);
            prop_assert_eq!(via_criterion.checks, checks);
        }

        /// The score sum reported for the selected set is indeed the minimum
        /// achievable over sets of that size: any random subset of the same
        /// size has a score sum at least as large.
        #[test]
        fn selected_set_minimises_score_sum(seed in any::<u64>(), size in 2usize..20) {
            let g = complete(20);
            let op = WalkOperator::new(&g);
            let p = op.walk(&WalkDistribution::point_mass(20, 0).unwrap(), 2);
            let scores = node_scores(&g, &p, size).unwrap();
            let (check, _) = mixing_condition_holds(&g, &p, size, MIXING_THRESHOLD).unwrap();
            // Compare against a pseudo-random subset of the same size.
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut vertices: Vec<usize> = (0..20).collect();
            vertices.shuffle(&mut rng);
            let random_sum: f64 = vertices[..size].iter().map(|&v| scores[v]).sum();
            prop_assert!(check.score_sum <= random_sum + 1e-12);
        }

        /// The sweep never reports a set larger than n and the checks are for
        /// strictly increasing sizes.
        #[test]
        fn sweep_is_well_formed(n in 4usize..60, steps in 0usize..6) {
            let g = complete(n);
            let op = WalkOperator::new(&g);
            let p = op.walk(&WalkDistribution::point_mass(n, 0).unwrap(), steps);
            let config = LocalMixingConfig::for_graph_size(n);
            let outcome = largest_mixing_set(&g, &p, &config).unwrap();
            prop_assert!(outcome.size() <= n);
            for window in outcome.checks.windows(2) {
                prop_assert!(window[0].size < window[1].size);
            }
        }
    }
}
