//! Multi-seed evidence aggregation — votes and margins across independent
//! walks.
//!
//! Near the connectivity threshold (`p = Θ(ln n/n)`) with several planted
//! blocks, a single walk barely mixes in-block before inter-block leakage
//! dominates: the growth rule of Algorithm 1 tends to fire on a small
//! transient mixing set around the seed, long before the walk has spread over
//! the community. *Agreement across several independent walks* is a much
//! stronger signal — the same intuition behind ensemble/consensus approaches
//! in distributed SBM recovery (Wu, Li & Zhu 2020) and the boosting step of
//! Chin, Rao & Vu's sparse spectral algorithm.
//!
//! [`WalkEvidence`] is the accumulator of that agreement: each walk records
//! the members of its detected mixing set together with the walk's
//! renormalised-score *margin* (how far below the mixing threshold the
//! winning sweep check landed), and the ensemble layer reads back per-vertex
//! co-occurrence votes and the quorum-filtered consensus. Like
//! [`crate::WalkWorkspace`], the accumulator is allocated once per driver and
//! reused across detections: [`WalkEvidence::begin`] is `O(1)` (epoch
//! stamping), and recording a walk costs `O(|set|)` — no `O(n)` work per
//! detection.
//!
//! [`select_interior_seeds`] picks the follow-up seeds: distinct members of
//! the current detection's interior, ranked by walk affinity `p(u)/w(u)`
//! (most confidently in-community first) and strided across that ranking so
//! the follow-up walks start spread over the detected set instead of
//! clustering around the original seed.
//!
//! # Examples
//!
//! ```
//! use cdrw_walk::evidence::WalkEvidence;
//!
//! let mut evidence = WalkEvidence::with_len(8);
//! evidence.begin();
//! evidence.record_walk(&[0, 1, 2, 3], 0.05).unwrap();
//! evidence.record_walk(&[1, 2, 3, 4], 0.02).unwrap();
//! evidence.record_walk(&[2, 3, 4, 5], 0.04).unwrap();
//! assert_eq!(evidence.walks_recorded(), 3);
//! assert_eq!(evidence.votes(2), 3);
//! // Quorum 2: vertices at least two walks agree on.
//! assert_eq!(evidence.consensus(2), vec![1, 2, 3, 4]);
//! // The accumulated margin follows the recording walks.
//! assert!((evidence.margin(1) - 0.07).abs() < 1e-15);
//! ```

use cdrw_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

use crate::local_mixing::affinity_ratio;
use crate::{WalkError, WalkWorkspace};

/// One detection's pooled evidence about one vertex: how many of that
/// detection's walks voted for the vertex and with what accumulated margin.
///
/// Claims are produced by [`WalkEvidence::pool_epoch`] and consumed by the
/// global assembly layer (`cdrw_core::assembly`), which reconciles the claims
/// of *all* detections of a run into a total partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PooledClaim {
    /// The claimed vertex.
    pub vertex: VertexId,
    /// Index of the detection (in run order) whose walks voted for the
    /// vertex.
    pub detection: u32,
    /// Number of that detection's walks that voted for the vertex.
    pub votes: u32,
    /// Accumulated mixing margin over those votes.
    pub margin: f64,
}

/// Accumulates per-vertex co-occurrence votes and renormalised-score margins
/// across the independent walks of one ensemble detection.
///
/// See the [module documentation](self) for the motivation and an example.
/// All buffers are epoch-stamped so the accumulator can be reused across
/// detections without `O(n)` clears, mirroring [`crate::WalkWorkspace`].
#[derive(Debug, Clone)]
pub struct WalkEvidence {
    /// Votes per vertex; meaningful only where `stamp[v] == epoch`.
    votes: Vec<u32>,
    /// Accumulated margins per vertex; meaningful only where
    /// `stamp[v] == epoch`.
    margins: Vec<f64>,
    /// Epoch marks replacing an `O(n)` clear per detection.
    stamp: Vec<u64>,
    /// Current epoch; bumped by [`WalkEvidence::begin`].
    epoch: u64,
    /// Vertices touched by the current detection's walks, in first-vote
    /// order.
    touched: Vec<VertexId>,
    /// Number of walks recorded since the last [`WalkEvidence::begin`].
    walks: usize,
    /// The cross-epoch pooled view: one claim per `(detection, vertex)` pair
    /// flushed by [`WalkEvidence::pool_epoch`], in flush order (claims of one
    /// detection are sorted by vertex).
    pooled: Vec<PooledClaim>,
}

impl WalkEvidence {
    /// Creates an empty accumulator over `n` vertices.
    pub fn with_len(n: usize) -> Self {
        WalkEvidence {
            votes: vec![0; n],
            margins: vec![0.0; n],
            stamp: vec![0; n],
            // Start above the zeroed stamps so recording works consistently
            // even before the first `begin` call.
            epoch: 1,
            touched: Vec::new(),
            walks: 0,
            pooled: Vec::new(),
        }
    }

    /// Creates an empty accumulator sized for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        Self::with_len(graph.num_vertices())
    }

    /// An accumulator sized for `graph` when `enabled`, or a zero-length
    /// stub otherwise. Single-walk detection paths never touch the
    /// accumulator, so drivers pass `ensemble.is_ensemble()` here to skip
    /// the `O(n)` buffer allocation under the default single-walk policy.
    pub fn for_graph_if(enabled: bool, graph: &Graph) -> Self {
        if enabled {
            Self::for_graph(graph)
        } else {
            Self::with_len(0)
        }
    }

    /// Number of vertices the accumulator is sized for.
    pub fn len(&self) -> usize {
        self.votes.len()
    }

    /// Whether the accumulator covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Starts accumulating a fresh detection's evidence. `O(1)`: previous
    /// votes are invalidated by bumping the epoch, not by clearing buffers.
    pub fn begin(&mut self) {
        self.epoch += 1;
        self.touched.clear();
        self.walks = 0;
    }

    /// Records one walk's detected set and its mixing margin (threshold minus
    /// the winning sweep check's score; larger means the walk passed the
    /// mixing condition more confidently).
    ///
    /// # Errors
    ///
    /// Returns a vertex-range error when a member is outside the accumulator.
    pub fn record_walk(&mut self, members: &[VertexId], margin: f64) -> Result<(), WalkError> {
        for &v in members {
            if v >= self.votes.len() {
                return Err(cdrw_graph::GraphError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: self.votes.len(),
                }
                .into());
            }
            if self.stamp[v] != self.epoch {
                self.stamp[v] = self.epoch;
                self.votes[v] = 0;
                self.margins[v] = 0.0;
                self.touched.push(v);
            }
            self.votes[v] += 1;
            self.margins[v] += margin;
        }
        self.walks += 1;
        Ok(())
    }

    /// Number of walks recorded since the last [`WalkEvidence::begin`].
    pub fn walks_recorded(&self) -> usize {
        self.walks
    }

    /// Number of distinct vertices any walk voted for so far.
    pub fn candidates(&self) -> usize {
        self.touched.len()
    }

    /// Votes for vertex `v` (0 when untouched or out of range).
    pub fn votes(&self, v: VertexId) -> u32 {
        match self.stamp.get(v) {
            Some(&stamp) if stamp == self.epoch => self.votes[v],
            _ => 0,
        }
    }

    /// Accumulated margin of vertex `v` over the walks that voted for it
    /// (0.0 when untouched or out of range).
    pub fn margin(&self, v: VertexId) -> f64 {
        match self.stamp.get(v) {
            Some(&stamp) if stamp == self.epoch => self.margins[v],
            _ => 0.0,
        }
    }

    /// The sorted quorum-filtered consensus: every vertex at least `quorum`
    /// walks voted for. A quorum of 1 is the union of the recorded sets; a
    /// quorum equal to [`WalkEvidence::walks_recorded`] is their
    /// intersection.
    pub fn consensus(&self, quorum: u32) -> Vec<VertexId> {
        let mut members: Vec<VertexId> = self
            .touched
            .iter()
            .copied()
            .filter(|&v| self.votes[v] >= quorum)
            .collect();
        members.sort_unstable();
        members
    }

    /// The quorum-filtered consensus joined with `base` — sorted and
    /// deduplicated. This is the ensemble layer's final member set: the
    /// corroborated vertices plus the base detection's own answer, so the
    /// ensemble only ever *adds* to Algorithm 1's result.
    pub fn consensus_with(&self, quorum: u32, base: &[VertexId]) -> Vec<VertexId> {
        let mut members = self.consensus(quorum);
        members.extend(base.iter().copied());
        members.sort_unstable();
        members.dedup();
        members
    }

    /// Flushes the current epoch's votes and margins into the cross-epoch
    /// pooled view, tagged with `detection` (the detection's index in run
    /// order). One [`PooledClaim`] is appended per vertex the epoch's walks
    /// voted for, in ascending vertex order, so the pooled view is a
    /// deterministic function of the recorded walks regardless of vote order.
    ///
    /// Pooling reads the epoch without consuming it: the per-detection
    /// accessors ([`WalkEvidence::votes`], [`WalkEvidence::consensus`], …)
    /// keep working until the next [`WalkEvidence::begin`]. Costs
    /// `O(|touched| log |touched|)`.
    pub fn pool_epoch(&mut self, detection: u32) {
        let mut flushed: Vec<VertexId> = self.touched.clone();
        flushed.sort_unstable();
        for v in flushed {
            self.pooled.push(PooledClaim {
                vertex: v,
                detection,
                votes: self.votes[v],
                margin: self.margins[v],
            });
        }
    }

    /// The pooled claims of every epoch flushed so far, in flush order.
    pub fn pooled_claims(&self) -> &[PooledClaim] {
        &self.pooled
    }

    /// Appends externally gathered claims to the pooled view (used by
    /// `detect_parallel`-style drivers that pool per worker and merge).
    pub fn extend_pool(&mut self, claims: &[PooledClaim]) {
        self.pooled.extend_from_slice(claims);
    }

    /// Moves the pooled claims out, leaving the pool empty. Per-detection
    /// epoch state is untouched.
    pub fn take_pool(&mut self) -> Vec<PooledClaim> {
        std::mem::take(&mut self.pooled)
    }

    /// Retains only the pooled claims `keep` accepts, preserving flush
    /// order. This makes the pool the unit of *cache* rather than the unit
    /// of run: an incremental driver drops the claims of invalidated
    /// detections and keeps the rest for the next assembly.
    fn retain_pool(&mut self, mut keep: impl FnMut(&PooledClaim) -> bool) {
        self.pooled.retain(|claim| keep(claim));
    }

    /// Drops every pooled claim tagged with one of the `retired` detection
    /// indices (the per-group invalidation behind incremental re-detection:
    /// a commit's dirty vertices retire the evidence groups they touch, and
    /// the surviving groups' claims stay pooled). Order of the surviving
    /// claims is preserved.
    pub fn retire_groups(&mut self, retired: &[u32]) {
        if retired.is_empty() {
            return;
        }
        let mut sorted = retired.to_vec();
        sorted.sort_unstable();
        self.retain_pool(|claim| sorted.binary_search(&claim.detection).is_err());
    }
}

/// The set a follow-up walk votes with: its detected set when it is
/// community-scale (at most `cap` vertices), otherwise the last
/// community-scale mixing set the walk passed through (`bounded`), or `None`
/// to abstain — once a walk is globally mixed, its final set carries no
/// community-scale information (the whole graph passes the mixing
/// condition). Shared by the sequential and CONGEST drivers so their voting
/// rules cannot drift apart.
pub fn community_scale_vote(
    members: Vec<VertexId>,
    margin: f64,
    bounded: Option<(Vec<VertexId>, f64)>,
    cap: usize,
) -> Option<(Vec<VertexId>, f64)> {
    if members.len() <= cap {
        Some((members, margin))
    } else {
        bounded
    }
}

/// Removes zero-degree vertices — other than `keep`, the walk's own seed —
/// from a detected member set in place.
///
/// A walk can never place probability mass on a vertex it cannot reach, yet
/// the sweep's score-based selection pads every candidate set with isolated
/// vertices: outside the support the score is `d(u)/µ′(S)`, which is exactly
/// `0` for a zero-degree vertex, so isolates sort ahead of every genuine
/// candidate and are silently absorbed into whichever community is detected
/// first. Stripping them at the point where a walk's set becomes a detection
/// or a vote keeps zero-degree vertices unclaimed, so the pool loop later
/// seeds them into their own singleton communities. Shared by the sequential
/// and CONGEST drivers so their member sets cannot drift apart.
pub fn retain_reachable(graph: &Graph, keep: VertexId, members: &mut Vec<VertexId>) {
    members.retain(|&v| v == keep || graph.degree(v) > 0);
}

/// Selects up to `count` distinct follow-up seeds from a detection's
/// interior.
///
/// Members are ranked by walk affinity `p(u)/w(u)` descending — `p(u)/d(u)`
/// on an unweighted graph — (ties by `(weighted degree, id)`, the same total
/// order the renormalised sweep uses), the
/// original seed is excluded, and the picks are *strided* across the ranking:
/// the first pick is the highest-affinity member, later picks step down the
/// ranking at equal intervals. High affinity keeps the follow-up walks
/// anchored inside the community; the stride spreads their start points over
/// the detected set so their evidence covers more of it.
///
/// The probabilities are read from `workspace`'s current distribution — the
/// state the detection's walk stopped in — so sequential and distributed
/// drivers that share walk code select identical seeds.
///
/// The returned seeds are always distinct, even when `members` contains
/// duplicates (the cross-detection assembly layer passes unions of several
/// detections' member lists) or has fewer eligible members than `count`: the
/// degenerate-small-set path returns every eligible member once, and the
/// caller is expected to run correspondingly fewer follow-up walks and
/// re-clamp its vote quorum to the walks actually recorded.
pub fn select_interior_seeds(
    graph: &Graph,
    workspace: &WalkWorkspace,
    members: &[VertexId],
    exclude: VertexId,
    count: usize,
) -> Vec<VertexId> {
    let mut eligible: Vec<VertexId> = members
        .iter()
        .copied()
        .filter(|&v| v != exclude && v < graph.num_vertices())
        .collect();
    eligible.sort_unstable();
    eligible.dedup();
    let mut ranked: Vec<(f64, VertexId)> = eligible
        .into_iter()
        .map(|v| {
            (
                affinity_ratio(workspace.probability(v), graph.weighted_degree(v)),
                v,
            )
        })
        .collect();
    ranked.sort_unstable_by(|&(ra, a), &(rb, b)| {
        rb.partial_cmp(&ra)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| crate::engine::degree_key_cmp(graph, a, b))
    });
    if ranked.len() <= count {
        return ranked.into_iter().map(|(_, v)| v).collect();
    }
    // `ranked.len() > count ≥ 1` makes the stride `len/count > 1`, so the
    // floored indices `k·len/count` are strictly increasing: the picks are
    // distinct by construction.
    (0..count)
        .map(|k| ranked[k * ranked.len() / count].1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalkEngine;
    use cdrw_graph::GraphBuilder;

    #[test]
    fn votes_margins_and_consensus() {
        let mut evidence = WalkEvidence::with_len(6);
        evidence.begin();
        evidence.record_walk(&[0, 1, 2], 0.1).unwrap();
        evidence.record_walk(&[1, 2, 3], 0.2).unwrap();
        assert_eq!(evidence.walks_recorded(), 2);
        assert_eq!(evidence.candidates(), 4);
        assert_eq!(evidence.votes(0), 1);
        assert_eq!(evidence.votes(1), 2);
        assert_eq!(evidence.votes(5), 0);
        assert!((evidence.margin(1) - 0.3).abs() < 1e-15);
        assert!((evidence.margin(0) - 0.1).abs() < 1e-15);
        assert_eq!(evidence.consensus(1), vec![0, 1, 2, 3]);
        assert_eq!(evidence.consensus(2), vec![1, 2]);
        assert_eq!(evidence.consensus(3), Vec::<VertexId>::new());
    }

    #[test]
    fn begin_resets_without_clearing() {
        let mut evidence = WalkEvidence::with_len(4);
        evidence.begin();
        evidence.record_walk(&[0, 1, 2, 3], 1.0).unwrap();
        evidence.begin();
        assert_eq!(evidence.walks_recorded(), 0);
        assert_eq!(evidence.candidates(), 0);
        assert_eq!(evidence.votes(0), 0);
        assert_eq!(evidence.margin(3), 0.0);
        evidence.record_walk(&[2], 0.5).unwrap();
        assert_eq!(evidence.votes(2), 1);
        assert!((evidence.margin(2) - 0.5).abs() < 1e-15);
        assert_eq!(evidence.consensus(1), vec![2]);
    }

    #[test]
    fn consensus_with_joins_base_without_duplicates() {
        let mut evidence = WalkEvidence::with_len(16);
        evidence.begin();
        // Only vertex 10 is corroborated by two walks; the base set [1, 2,
        // 10] must be joined in without duplicating the shared vertex.
        evidence.record_walk(&[1, 2, 10], 0.1).unwrap();
        evidence.record_walk(&[10, 11], 0.1).unwrap();
        assert_eq!(evidence.consensus(2), vec![10]);
        assert_eq!(evidence.consensus_with(2, &[1, 2, 10]), vec![1, 2, 10]);
        // A base vertex no walk recorded is still included exactly once.
        assert_eq!(evidence.consensus_with(2, &[0, 10]), vec![0, 10]);
        assert_eq!(evidence.consensus_with(3, &[5]), vec![5]);
    }

    #[test]
    fn recording_works_before_the_first_begin() {
        // A fresh accumulator must behave consistently even without an
        // explicit begin(): votes, candidates and consensus agree.
        let mut evidence = WalkEvidence::with_len(4);
        evidence.record_walk(&[0, 1], 0.1).unwrap();
        assert_eq!(evidence.votes(0), 1);
        assert_eq!(evidence.candidates(), 2);
        assert_eq!(evidence.consensus(1), vec![0, 1]);
    }

    #[test]
    fn community_scale_vote_selects_set_fallback_or_abstains() {
        // Community-scale detected set: vote with it.
        assert_eq!(
            community_scale_vote(vec![0, 1], 0.3, Some((vec![2], 0.1)), 4),
            Some((vec![0, 1], 0.3))
        );
        // Oversized set with a bounded fallback: vote with the fallback.
        assert_eq!(
            community_scale_vote(vec![0, 1, 2, 3, 4], 0.3, Some((vec![2], 0.1)), 4),
            Some((vec![2], 0.1))
        );
        // Oversized set, no fallback: abstain.
        assert_eq!(community_scale_vote(vec![0, 1, 2], 0.3, None, 2), None);
    }

    #[test]
    fn out_of_range_members_are_rejected() {
        let mut evidence = WalkEvidence::with_len(3);
        evidence.begin();
        assert!(evidence.record_walk(&[0, 3], 0.0).is_err());
        let empty = WalkEvidence::with_len(0);
        assert!(empty.is_empty());
        assert_eq!(empty.votes(0), 0);
    }

    #[test]
    fn interior_seeds_are_distinct_strided_and_exclude_the_seed() {
        // A path: walk from the middle, members = whole path.
        let n = 12;
        let g = GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(6).unwrap();
        for _ in 0..4 {
            engine.step(&mut ws);
        }
        let members: Vec<VertexId> = (0..n).collect();
        let seeds = select_interior_seeds(&g, &ws, &members, 6, 4);
        assert_eq!(seeds.len(), 4);
        assert!(!seeds.contains(&6));
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4, "duplicated follow-up seeds: {seeds:?}");
        // The first pick has the highest affinity among the members.
        let best = seeds[0];
        for &v in &members {
            if v == 6 {
                continue;
            }
            assert!(
                affinity_ratio(ws.probability(best), g.weighted_degree(best))
                    >= affinity_ratio(ws.probability(v), g.weighted_degree(v))
            );
        }
    }

    #[test]
    fn pooled_view_accumulates_claims_across_epochs() {
        let mut evidence = WalkEvidence::with_len(8);
        evidence.begin();
        evidence.record_walk(&[3, 1, 2], 0.1).unwrap();
        evidence.record_walk(&[2, 5], 0.2).unwrap();
        evidence.pool_epoch(0);
        evidence.begin();
        evidence.record_walk(&[5, 6], 0.4).unwrap();
        evidence.pool_epoch(1);
        let claims = evidence.pooled_claims();
        // Claims of each detection are flushed in ascending vertex order.
        let summary: Vec<(usize, u32, u32)> = claims
            .iter()
            .map(|c| (c.vertex, c.detection, c.votes))
            .collect();
        assert_eq!(
            summary,
            vec![
                (1, 0, 1),
                (2, 0, 2),
                (3, 0, 1),
                (5, 0, 1),
                (5, 1, 1),
                (6, 1, 1)
            ]
        );
        // Margins pool per vertex per detection.
        assert!((claims[1].margin - 0.3).abs() < 1e-15, "vertex 2 margin");
        assert!((claims[4].margin - 0.4).abs() < 1e-15, "vertex 5 margin");
        // Pooling does not consume the current epoch.
        assert_eq!(evidence.votes(5), 1);
        // take_pool drains; extend_pool re-adds.
        let taken = evidence.take_pool();
        assert_eq!(taken.len(), 6);
        assert!(evidence.pooled_claims().is_empty());
        evidence.extend_pool(&taken);
        assert_eq!(evidence.pooled_claims().len(), 6);
    }

    #[test]
    fn retire_groups_drops_only_the_retired_detections_claims() {
        let mut evidence = WalkEvidence::with_len(8);
        for (detection, set) in [(0u32, vec![0, 1]), (1, vec![1, 2]), (2, vec![3])] {
            evidence.begin();
            evidence.record_walk(&set, 0.1).unwrap();
            evidence.pool_epoch(detection);
        }
        assert_eq!(evidence.pooled_claims().len(), 5);
        // Retiring nothing is a no-op.
        evidence.retire_groups(&[]);
        assert_eq!(evidence.pooled_claims().len(), 5);
        // Retire detections 0 and 2; detection 1's claims survive in order.
        evidence.retire_groups(&[2, 0]);
        let left: Vec<(usize, u32)> = evidence
            .pooled_claims()
            .iter()
            .map(|c| (c.vertex, c.detection))
            .collect();
        assert_eq!(left, vec![(1, 1), (2, 1)]);
        // Retiring an index with no claims is tolerated.
        evidence.retire_groups(&[7]);
        assert_eq!(evidence.pooled_claims().len(), 2);
    }

    #[test]
    fn retain_pool_filters_by_arbitrary_predicate() {
        let mut evidence = WalkEvidence::with_len(8);
        evidence.begin();
        evidence.record_walk(&[0, 1, 2, 5], 0.2).unwrap();
        evidence.pool_epoch(4);
        evidence.retain_pool(|claim| claim.vertex >= 2);
        let left: Vec<usize> = evidence.pooled_claims().iter().map(|c| c.vertex).collect();
        assert_eq!(left, vec![2, 5]);
        // The current epoch's per-detection view is untouched.
        assert_eq!(evidence.votes(0), 1);
    }

    #[test]
    fn degenerate_three_vertex_base_set_yields_fewer_distinct_seeds() {
        // The satellite regression: a 3-vertex base set (seed plus two
        // interior members) asked for more follow-up walks than it has
        // members must fall back to fewer, distinct seeds — never repeat one
        // and never panic — leaving the caller to re-clamp its quorum.
        let g = GraphBuilder::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(2).unwrap();
        engine.step(&mut ws);
        engine.step(&mut ws);
        let base = [1usize, 2, 3];
        for requested in [2usize, 3, 4, 7] {
            let seeds = select_interior_seeds(&g, &ws, &base, 2, requested);
            assert_eq!(seeds.len(), requested.min(2), "requested {requested}");
            let mut unique = seeds.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), seeds.len(), "repeated seeds: {seeds:?}");
            assert!(!seeds.contains(&2));
        }
        // Duplicated members (a union of overlapping detections) still yield
        // distinct seeds.
        let dup = [1usize, 3, 1, 3, 1];
        let seeds = select_interior_seeds(&g, &ws, &dup, 2, 5);
        assert_eq!(seeds.len(), 2);
        assert_ne!(seeds[0], seeds[1]);
    }

    #[test]
    fn interior_seed_selection_handles_small_member_sets() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(1).unwrap();
        engine.step(&mut ws);
        // Fewer members than requested seeds: everything but the seed.
        let seeds = select_interior_seeds(&g, &ws, &[0, 1, 2], 1, 5);
        assert_eq!(seeds.len(), 2);
        assert!(!seeds.contains(&1));
        // No eligible members at all.
        assert!(select_interior_seeds(&g, &ws, &[1], 1, 3).is_empty());
        assert!(select_interior_seeds(&g, &ws, &[0, 2], 1, 0).is_empty());
    }
}
