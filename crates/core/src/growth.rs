//! The growth-rule stopping state of one CDRW walk, shared by every driver.
//!
//! Algorithm 1 stops a walk when the mixing set found at the current step is
//! less than `(1 + δ)` times the previous step's set (and the previous set
//! has reached the stop floor). [`crate::Pipeline`] feeds every walk's
//! per-step sweep outcomes through one [`GrowthTracker`] per lane — base
//! walks, ensemble follow-ups and assembly re-seeds alike — and every driver
//! (sequential, parallel, the incremental service, CONGEST, k-machine) runs
//! that pipeline, so a walk's detected member set is the same bit for bit
//! whichever [`crate::LaneExecutor`] stepped it.

use cdrw_graph::{Graph, VertexId};
use cdrw_walk::evidence::retain_reachable;
use cdrw_walk::LocalMixingOutcome;

/// One walk's final answer: its member set, the mixing margin of that set,
/// and — when tracking was requested — the last community-scale mixing set
/// the walk passed through (the evidence a globally-mixed walk votes with).
pub type WalkAnswer = (Vec<VertexId>, f64, Option<(Vec<VertexId>, f64)>);

/// Per-walk growth-rule state: the last two mixing sets with their margins,
/// the bounded community-scale fallback, and the stop parameters.
///
/// Feed every step's sweep outcome to [`GrowthTracker::observe`]; once it
/// reports the stop (or the walk-length cap is reached), call
/// [`GrowthTracker::conclude`] for the walk's final member set, margin and
/// bounded vote fallback. Members are cleaned of sweep-padded isolates
/// ([`retain_reachable`]) and always contain the seed.
#[derive(Debug, Clone)]
pub struct GrowthTracker {
    /// Smallest previous-set size at which the growth rule applies.
    stop_floor: usize,
    /// The growth threshold `δ`.
    delta: f64,
    /// When set, track the last mixing set of at most this many vertices seen
    /// at any step (the evidence a globally-mixed walk votes with).
    bounded_cap: Option<usize>,
    previous: Option<(Vec<VertexId>, f64)>,
    current: Option<(Vec<VertexId>, f64)>,
    bounded: Option<(Vec<VertexId>, f64)>,
    /// Whether the growth rule has fired (freezes the tracker).
    fired: bool,
}

impl GrowthTracker {
    /// A fresh tracker: the growth rule applies once the previous set reaches
    /// `stop_floor`; `bounded_cap` enables community-scale fallback tracking
    /// (pass the driver's `n / 2` vote cap for follow-up and re-seed walks,
    /// `None` for base walks).
    pub fn new(stop_floor: usize, delta: f64, bounded_cap: Option<usize>) -> Self {
        GrowthTracker {
            stop_floor,
            delta,
            bounded_cap,
            previous: None,
            current: None,
            bounded: None,
            fired: false,
        }
    }

    /// Whether the growth rule has fired; a fired tracker ignores further
    /// observations.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Feeds one step's sweep outcome (its found set, if any, plus the
    /// winning margin); returns `true` when the growth rule fires at this
    /// step — the walk should stop and [`GrowthTracker::conclude`].
    pub fn observe(
        &mut self,
        graph: &Graph,
        seed: VertexId,
        set: Option<Vec<VertexId>>,
        margin: f64,
    ) -> bool {
        if self.fired {
            return true;
        }
        let Some(set) = set else {
            // No mixing set at this step: keep walking. The sweep starts
            // producing sets once the walk has spread over at least `R`
            // vertices.
            return false;
        };
        if let Some(cap) = self.bounded_cap {
            if set.len() <= cap {
                // The stored vote set is cleaned of isolates (the sweep's
                // score-based selection pads sets with zero-degree vertices,
                // which the walk can never reach), so every recorded vote is
                // clean at the source.
                let mut clean = set.clone();
                retain_reachable(graph, seed, &mut clean);
                self.bounded = Some((clean, margin));
            }
        }
        self.previous = self.current.take();
        self.current = Some((set, margin));
        if let (Some((prev, _)), Some((cur, _))) = (&self.previous, &self.current) {
            // Stopping rule (Algorithm 1, line 18): the mixing set stopped
            // growing by more than a (1 + δ) factor, so the previous set is
            // the community. Tiny sets near the minimum candidate size are
            // excluded (see `CdrwConfig::MIN_STOP_SIZE_FACTOR`).
            if prev.len() >= self.stop_floor
                && (cur.len() as f64) < (1.0 + self.delta) * prev.len() as f64
            {
                self.fired = true;
                return true;
            }
        }
        false
    }

    /// Concludes the walk: the previous set when the growth rule fired, else
    /// the latest set seen, else the seed alone — cleaned of isolates and
    /// with the seed guaranteed present (sorted) — plus the margin and the
    /// bounded community-scale fallback.
    pub fn conclude(self, graph: &Graph, seed: VertexId) -> WalkAnswer {
        let (mut members, margin) = if self.fired {
            self.previous
                .expect("growth rule fired, so a previous set exists")
        } else {
            // Walk-length cap reached: report the best set seen (the latest
            // one), falling back to the seed alone if the walk never mixed
            // anywhere.
            self.current
                .or(self.previous)
                .unwrap_or_else(|| (vec![seed], 0.0))
        };
        retain_reachable(graph, seed, &mut members);
        if members.binary_search(&seed).is_err() {
            members.push(seed);
            members.sort_unstable();
        }
        (members, margin, self.bounded)
    }

    /// Convenience wrapper for the sweep outcome shape the drivers hold.
    pub fn observe_outcome(
        &mut self,
        graph: &Graph,
        seed: VertexId,
        outcome: LocalMixingOutcome,
        threshold: f64,
    ) -> bool {
        let margin = outcome.winning_margin(threshold);
        self.observe(graph, seed, outcome.set, margin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn fires_when_growth_stalls_past_the_floor() {
        let g = path(12);
        let mut tracker = GrowthTracker::new(3, 0.1, None);
        assert!(!tracker.observe(&g, 0, None, 0.0));
        assert!(!tracker.observe(&g, 0, Some(vec![0, 1, 2]), 0.05));
        // 3 → 6 grows by 2×: no stop.
        assert!(!tracker.observe(&g, 0, Some(vec![0, 1, 2, 3, 4, 5]), 0.04));
        // 6 → 6 is below (1 + δ): stop, previous set is the community.
        assert!(tracker.observe(&g, 0, Some(vec![0, 1, 2, 3, 4, 6]), 0.03));
        assert!(tracker.fired());
        let (members, margin, bounded) = tracker.conclude(&g, 0);
        assert_eq!(members, vec![0, 1, 2, 3, 4, 5]);
        assert!((margin - 0.04).abs() < 1e-15);
        assert!(bounded.is_none());
    }

    #[test]
    fn below_the_floor_the_rule_never_fires() {
        let g = path(8);
        let mut tracker = GrowthTracker::new(4, 0.1, None);
        assert!(!tracker.observe(&g, 0, Some(vec![0, 1]), 0.1));
        assert!(!tracker.observe(&g, 0, Some(vec![0, 1]), 0.1));
        assert!(!tracker.fired());
        let (members, _, _) = tracker.conclude(&g, 0);
        assert_eq!(members, vec![0, 1]);
    }

    #[test]
    fn conclude_without_any_set_is_the_seed_alone() {
        let g = path(4);
        let tracker = GrowthTracker::new(2, 0.1, None);
        let (members, margin, bounded) = tracker.conclude(&g, 2);
        assert_eq!(members, vec![2]);
        assert_eq!(margin, 0.0);
        assert!(bounded.is_none());
    }

    #[test]
    fn bounded_cap_tracks_the_last_community_scale_set() {
        let g = path(10);
        let mut tracker = GrowthTracker::new(100, 0.1, Some(4));
        tracker.observe(&g, 0, Some(vec![0, 1, 2]), 0.2);
        tracker.observe(&g, 0, Some(vec![0, 1, 2, 3]), 0.15);
        // Above the cap: the bounded fallback keeps the last small set.
        tracker.observe(&g, 0, Some((0..8).collect()), 0.1);
        let (members, _, bounded) = tracker.conclude(&g, 0);
        assert_eq!(members.len(), 8);
        assert_eq!(bounded, Some((vec![0, 1, 2, 3], 0.15)));
    }

    #[test]
    fn seed_is_inserted_and_isolates_are_stripped() {
        // Vertex 3 is isolated; a sweep-padded set containing it must be
        // cleaned, and the seed joins even when the set missed it.
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let mut tracker = GrowthTracker::new(1, 0.5, None);
        tracker.observe(&g, 0, Some(vec![1, 2, 3]), 0.1);
        let (members, _, _) = tracker.conclude(&g, 0);
        assert_eq!(members, vec![0, 1, 2]);
    }
}
