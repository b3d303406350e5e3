//! The dense local-mixing sweep: Definition 2 plus Algorithm 1, lines 12–17.
//!
//! Every node is scored by
//!
//! ```text
//! x_u = | p_ℓ(u) − d(u) / µ′(S) |        with µ′(S) = (2m/n)·|S|
//! ```
//!
//! and a mixing set of size `|S|` exists when the sum of the `|S|` smallest
//! scores is below `1/2e`. On a weighted graph every degree is the weighted
//! degree `w(u)` and `µ′(S) = (w(V)/n)·|S|`. The candidate sizes start at
//! `R` and grow by the factor `1 + 1/8e` up to `n`.
//!
//! Every check here scans all `n` vertices. The library's sparse sweep
//! answers the same questions in `O(|support| + |S|)` per size and must
//! select the same sets and make the same decisions.

use cdrw_graph::{Graph, VertexId};

/// The mixing-condition threshold `1/2e` (Algorithm 1, line 15).
pub const MIXING_THRESHOLD: f64 = 1.0 / (2.0 * std::f64::consts::E);

/// The candidate-size growth factor `1 + 1/8e` (Algorithm 1, line 12).
pub const SIZE_GROWTH_FACTOR: f64 = 1.0 + 1.0 / (8.0 * std::f64::consts::E);

/// The per-size rule of the sweep, mirroring the library's four mixing
/// criteria.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Criterion {
    /// The paper's rule: the `|S|` smallest scores must sum below `1/2e`.
    Strict,
    /// The strict rule, for a lazily stepped walk: the per-size check is the
    /// strict one, only the walk differs.
    Lazy,
    /// Candidates in descending affinity `p(u)/w(u)`, scored as
    /// `|p(u)/p(S) − w(u)/µ′(S)|`.
    Renormalized,
    /// Strict scoring with the threshold `1/2e + (1 − p(S))`.
    Adaptive,
}

impl Criterion {
    /// Every criterion, in the library's canonical order (strict, lazy,
    /// renormalised, adaptive).
    pub const ALL: [Criterion; 4] = [
        Criterion::Strict,
        Criterion::Lazy,
        Criterion::Renormalized,
        Criterion::Adaptive,
    ];
}

/// One candidate size's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MixingCheck {
    /// The candidate size `|S|`.
    pub size: usize,
    /// The score sum compared against the threshold.
    pub score_sum: f64,
    /// Whether the check passed.
    pub holds: bool,
}

/// The outcome of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The largest passing candidate set, sorted by id; `None` if no size
    /// passed.
    pub set: Option<Vec<VertexId>>,
    /// Every size checked, in order.
    pub checks: Vec<MixingCheck>,
}

impl SweepOutcome {
    /// Size of the selected set, or 0 when none was found.
    pub fn size(&self) -> usize {
        self.set.as_ref().map_or(0, Vec::len)
    }

    /// Whether any mixing set was found.
    pub fn found(&self) -> bool {
        self.set.is_some()
    }
}

/// The candidate sizes `R, ⌈(1+1/8e)R⌉, …` for a graph of `n` vertices:
/// strictly increasing (each step adds at least one vertex) and ending at
/// `n`; `R` above `n` is clamped to `n`.
fn candidate_sizes(n: usize, min_size: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut sizes = vec![min_size.min(n)];
    while let Some(&size) = sizes.last().filter(|&&size| size < n) {
        let grown = (size as f64 * SIZE_GROWTH_FACTOR).ceil() as usize;
        sizes.push(grown.max(size + 1).min(n));
    }
    sizes
}

/// The per-node scores `x_u = |p(u) − w(u)/µ′(S)|` for candidate size
/// `size`, with `µ′(S) = (w(V)/n)·|S|`.
///
/// # Panics
///
/// Panics on an edgeless graph, a distribution not over the graph's
/// vertices, or a size outside `1..=n`.
pub fn node_scores(graph: &Graph, distribution: &[f64], size: usize) -> Vec<f64> {
    check_inputs(graph, distribution, size);
    let average_volume = graph.weighted_volume() / graph.num_vertices() as f64 * size as f64;
    graph
        .vertices()
        .map(|u| (distribution[u] - graph.weighted_degree(u) / average_volume).abs())
        .collect()
}

fn check_inputs(graph: &Graph, distribution: &[f64], size: usize) {
    assert!(graph.total_volume() > 0, "the graph has no edges");
    assert_eq!(
        distribution.len(),
        graph.num_vertices(),
        "distribution is not over the graph's vertices"
    );
    assert!(
        (1..=graph.num_vertices()).contains(&size),
        "candidate size must be in 1..={}, got {size}",
        graph.num_vertices()
    );
}

/// The `size` vertices with the smallest scores (ties by id), in selection
/// order, with their score sum — the selection of the strict and adaptive
/// rules.
fn select_smallest_scores(
    graph: &Graph,
    distribution: &[f64],
    size: usize,
) -> (Vec<VertexId>, f64) {
    let scores = node_scores(graph, distribution, size);
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
    (order, score_sum)
}

/// Packages a verdict: when it holds, the selected vertices become the
/// member set, sorted by id.
fn finish_check(
    size: usize,
    score_sum: f64,
    holds: bool,
    mut selected: Vec<VertexId>,
) -> (MixingCheck, Option<Vec<VertexId>>) {
    let check = MixingCheck {
        size,
        score_sum,
        holds,
    };
    if holds {
        selected.sort_unstable();
        (check, Some(selected))
    } else {
        (check, None)
    }
}

/// The strict check for one candidate size: whether the `size` smallest
/// scores sum below `threshold`, and if so the member set.
///
/// # Panics
///
/// Same conditions as [`node_scores`].
pub fn mixing_condition_holds(
    graph: &Graph,
    distribution: &[f64],
    size: usize,
    threshold: f64,
) -> (MixingCheck, Option<Vec<VertexId>>) {
    let (selected, score_sum) = select_smallest_scores(graph, distribution, size);
    finish_check(size, score_sum, score_sum < threshold, selected)
}

/// One candidate size checked under `criterion` against `1/2e`.
///
/// # Panics
///
/// Same conditions as [`node_scores`].
pub fn mixing_check(
    graph: &Graph,
    distribution: &[f64],
    size: usize,
    criterion: Criterion,
) -> (MixingCheck, Option<Vec<VertexId>>) {
    match criterion {
        Criterion::Strict | Criterion::Lazy => {
            mixing_condition_holds(graph, distribution, size, MIXING_THRESHOLD)
        }
        Criterion::Adaptive => {
            let (selected, score_sum) = select_smallest_scores(graph, distribution, size);
            let retained: f64 = selected.iter().map(|&v| distribution[v]).sum();
            let holds = score_sum < MIXING_THRESHOLD + (1.0 - retained).max(0.0);
            finish_check(size, score_sum, holds, selected)
        }
        Criterion::Renormalized => renormalized_check(graph, distribution, size),
    }
}

/// The walk affinity `p(u)/w(u)`: zero mass is affinity 0 whatever the
/// degree, and mass on an isolated vertex is `+∞` (it is its own mixing
/// set).
fn affinity(probability: f64, weighted_degree: f64) -> f64 {
    if probability == 0.0 {
        0.0
    } else if weighted_degree == 0.0 {
        f64::INFINITY
    } else {
        probability / weighted_degree
    }
}

/// The renormalised check: the `size` vertices of largest affinity (ties
/// by weighted degree, then id, ascending), scored against the walk's
/// conditional distribution on them.
fn renormalized_check(
    graph: &Graph,
    distribution: &[f64],
    size: usize,
) -> (MixingCheck, Option<Vec<VertexId>>) {
    check_inputs(graph, distribution, size);
    let average_volume = graph.weighted_volume() / graph.num_vertices() as f64 * size as f64;
    let ratios: Vec<f64> = graph
        .vertices()
        .map(|u| affinity(distribution[u], graph.weighted_degree(u)))
        .collect();
    let mut order: Vec<VertexId> = graph.vertices().collect();
    order.sort_unstable_by(|&a, &b| {
        ratios[b]
            .partial_cmp(&ratios[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                graph
                    .weighted_degree(a)
                    .total_cmp(&graph.weighted_degree(b))
            })
            .then(a.cmp(&b))
    });
    order.truncate(size);
    let retained: f64 = order.iter().map(|&v| distribution[v]).sum();
    let score_sum: f64 = if retained > 0.0 {
        order
            .iter()
            .map(|&v| {
                (distribution[v] / retained - graph.weighted_degree(v) / average_volume).abs()
            })
            .sum()
    } else {
        f64::INFINITY
    };
    finish_check(size, score_sum, score_sum < MIXING_THRESHOLD, order)
}

/// The full candidate-size sweep from `min_size` (`R`): the largest passing
/// set. Every criterion but [`Criterion::Renormalized`] stops at the first
/// size that fails after a pass, as Algorithm 1 does; the renormalised
/// rule's pass-region can be disconnected, so it checks every size.
///
/// # Panics
///
/// Panics on an edgeless graph or a distribution not over the graph's
/// vertices.
pub fn largest_mixing_set(
    graph: &Graph,
    distribution: &[f64],
    min_size: usize,
    criterion: Criterion,
) -> SweepOutcome {
    let stop_early = criterion != Criterion::Renormalized;
    let mut best = None;
    let mut checks = Vec::new();
    for size in candidate_sizes(graph.num_vertices(), min_size) {
        let (check, members) = mixing_check(graph, distribution, size, criterion);
        let holds = check.holds;
        checks.push(check);
        if holds {
            best = members;
        } else if stop_early && best.is_some() {
            break;
        }
    }
    SweepOutcome { set: best, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_step;
    use cdrw_gen::{generate_ppm, special, PpmParams};
    use proptest::prelude::*;

    fn complete(n: usize) -> Graph {
        special::complete(n).unwrap().0
    }

    fn walk(graph: &Graph, source: VertexId, steps: usize) -> Vec<f64> {
        let mut p = vec![0.0; graph.num_vertices()];
        p[source] = 1.0;
        for _ in 0..steps {
            p = dense_step(graph, 0.0, &p);
        }
        p
    }

    /// `R = max(2, ⌈ln n⌉)`.
    fn paper_min_size(n: usize) -> usize {
        ((n as f64).ln().ceil() as usize).max(2)
    }

    #[test]
    fn constants_match_the_paper() {
        assert!((MIXING_THRESHOLD - 0.1839397).abs() < 1e-6);
        assert!((SIZE_GROWTH_FACTOR - 1.0459849).abs() < 1e-6);
    }

    #[test]
    fn node_scores_validation() {
        let g = complete(6);
        let empty = Graph::empty(6);
        let d = [1.0 / 6.0; 6];
        for (graph, distribution, size) in [(&g, &d[..], 0), (&g, &d[..], 7), (&g, &d[..5], 3)]
            .into_iter()
            .chain([(&empty, &d[..], 3)])
        {
            let call = std::panic::catch_unwind(|| node_scores(graph, distribution, size));
            assert!(
                call.is_err(),
                "size {size} over {} values",
                distribution.len()
            );
        }
    }

    #[test]
    fn stationary_distribution_scores_are_zero_at_full_size() {
        // On a regular graph, p = π and |S| = n gives x_u = 0 for every u.
        let g = complete(8);
        let pi = vec![1.0 / 8.0; 8];
        assert!(node_scores(&g, &pi, 8).iter().all(|&x| x < 1e-12));
        let (check, members) = mixing_condition_holds(&g, &pi, 8, MIXING_THRESHOLD);
        assert!(check.holds);
        assert_eq!(members.unwrap().len(), 8);
    }

    #[test]
    fn point_mass_does_not_mix_over_large_sets() {
        let g = complete(30);
        let (check, members) = mixing_condition_holds(&g, &walk(&g, 0, 0), 30, MIXING_THRESHOLD);
        assert!(!check.holds, "sum = {}", check.score_sum);
        assert!(members.is_none());
    }

    #[test]
    fn mixed_walk_on_expander_mixes_over_whole_graph() {
        let g = complete(64);
        let outcome =
            largest_mixing_set(&g, &walk(&g, 0, 6), paper_min_size(64), Criterion::Strict);
        assert!(outcome.found());
        assert_eq!(outcome.size(), 64);
    }

    #[test]
    fn walk_inside_one_clique_of_a_ring_mixes_over_that_clique() {
        // Ring of 4 cliques of 32: after a moderate number of steps the walk
        // started inside clique 0 should mix over (roughly) clique 0 but not
        // over the whole graph.
        let (graph, truth) = special::ring_of_cliques(4, 32).unwrap();
        let outcome = largest_mixing_set(&graph, &walk(&graph, 5, 8), 8, Criterion::Strict);
        let set = outcome.set.expect("a mixing set");
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
        let p = walk(&graph, 3, 12);
        let outcome = largest_mixing_set(&graph, &p, paper_min_size(256), Criterion::Strict);
        let set = outcome.set.expect("a mixing set");
        let block0 = truth.members(0);
        let inside = set.iter().filter(|v| block0.contains(v)).count();
        // Most of the detected set lies in the seed's block and the size is
        // in the right ballpark (not the whole graph).
        assert!(inside as f64 >= 0.8 * set.len() as f64);
        assert!(set.len() >= 64);
        assert!(set.len() <= 224);
    }

    proptest! {
        /// The sweep under [`Criterion::Strict`] selects exactly the sets
        /// (and reports exactly the score sums) of a sweep hand-rolled from
        /// [`mixing_condition_holds`].
        #[test]
        fn strict_criterion_is_bit_identical_to_pre_criterion_sweep(
            n in 4usize..40,
            source in 0usize..4,
            steps in 0usize..8,
        ) {
            let g = complete(n);
            let p = walk(&g, source, steps);
            let min_size = paper_min_size(n);
            // The pre-criterion sweep, verbatim.
            let mut best: Option<Vec<VertexId>> = None;
            let mut checks = Vec::new();
            for size in candidate_sizes(n, min_size) {
                let (check, members) = mixing_condition_holds(&g, &p, size, MIXING_THRESHOLD);
                let holds = check.holds;
                checks.push(check);
                if holds {
                    best = members;
                } else if best.is_some() {
                    break;
                }
            }
            let via_criterion = largest_mixing_set(&g, &p, min_size, Criterion::Strict);
            prop_assert_eq!(via_criterion.set, best);
            prop_assert_eq!(via_criterion.checks, checks);
        }

        /// The score sum reported for the selected set is indeed the minimum
        /// achievable over sets of that size: any random subset of the same
        /// size has a score sum at least as large.
        #[test]
        fn selected_set_minimises_score_sum(seed in any::<u64>(), size in 2usize..20) {
            let g = complete(20);
            let p = walk(&g, 0, 2);
            let scores = node_scores(&g, &p, size);
            let (check, _) = mixing_condition_holds(&g, &p, size, MIXING_THRESHOLD);
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
            let p = walk(&g, 0, steps);
            let outcome = largest_mixing_set(&g, &p, paper_min_size(n), Criterion::Strict);
            prop_assert!(outcome.size() <= n);
            for window in outcome.checks.windows(2) {
                prop_assert!(window[0].size < window[1].size);
            }
        }
    }
}
