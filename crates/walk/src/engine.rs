//! The sparse frontier walk engine and its reusable workspace.
//!
//! CDRW's cost bound comes from the walk's *locality*: for the first
//! `O(log n)` steps the distribution `p_ℓ` is supported on the ball of radius
//! `ℓ` around the seed, which is far smaller than the graph. The dense
//! [`crate::WalkOperator`] ignores this — every step allocates a fresh
//! length-`n` vector and scans all `n` vertices, and every candidate-size
//! check of the mixing sweep rebuilds an `O(n)` score vector. This module
//! exploits the locality explicitly:
//!
//! * [`WalkWorkspace`] owns two length-`n` probability buffers plus the walk's
//!   *support* (the sorted list of vertices carrying mass). All buffers are
//!   allocated once and reused across steps — and across seeds, which is what
//!   `cdrw_core::Cdrw::detect_all` does.
//! * [`WalkEngine::step`] pushes probability only out of support vertices,
//!   costing `O(vol(support))` instead of `O(n + m)`. Accumulation order is
//!   identical to the dense operator, so the resulting probabilities are
//!   bit-for-bit equal to [`crate::WalkOperator::step`].
//! * [`WalkEngine::sweep`] evaluates each candidate size `|S|` of the local
//!   mixing sweep against the engine's degree-sorted vertex order (computed
//!   once per engine): outside the support the score `x_u = |0 − d(u)/µ′(S)|`
//!   is monotone in the degree, so the `|S|` best non-support candidates are
//!   simply the lowest-degree vertices not in the support. For the strict,
//!   lazy and adaptive criteria a `select_nth_unstable` over the support plus
//!   a prefix of the degree-sorted non-support vertices (the *tail*, filtered
//!   once per sweep) replaces the dense implementation's selection over all
//!   `n` vertices, costing `O(|support| + |S|)` per size. For the
//!   renormalised criterion the candidate sets of *all* sizes are prefixes
//!   of one fixed merged order, so the whole sweep is a single incremental
//!   prefix scan — see the complexity table below.
//!
//! # Per-step sweep cost (renormalised criterion)
//!
//! The candidate sizes grow geometrically (`R, (1+1/8e)R, …, n`), so their
//! sum is `Θ(n)` with a large constant (≈ 24n). The per-size path re-merges
//! and re-scores each candidate prefix from scratch; the prefix scan answers
//! every size from running mass and volume sums plus one binary search:
//!
//! | path | cost per sweep |
//! |---|---|
//! | dense reference ([`crate::largest_mixing_set`]) | `O(n log n)` **per size** — `Θ(n² )`-ish overall |
//! | per-size sparse sweep ([`WalkEngine::sweep_per_size`]) | `O(\|support\| log \|support\| + Σ\|S\|) ≈ O(24·n)` |
//! | prefix scan ([`WalkEngine::sweep`]) | `O(P log P + sizes·log P)` plus a read-only walk of the degree order up to the largest size |
//!
//! `P` is the number of support entries with positive affinity `p(u)/d(u)`.
//! The merged order is those entries sorted by descending affinity, then
//! every other vertex in `(weighted degree, id)` order: the zero-mass
//! vertices and the zero-affinity support entries all tie at affinity `0`.
//! So the prefix scan sorts only the `P` positive entries, each as one
//! packed `u64` key (the affinity's bits over the vertex's degree rank, with
//! the rare runs that tie on the truncated bits re-sorted by the
//! comparator), and keeps running sums over those `P` only. Sizes past `P`
//! read the degree order lazily, skipping the positive entries, and stop at
//! the largest size the sweep asks for. The terms are added in the same order
//! as a full merge would add them, so the sums are bit-identical to it on
//! weighted graphs too. No n-length candidate order, affinity array or
//! prefix-sum array is built: the sweep scratch holds `P`-length buffers and
//! one bit per vertex, and the winning set is read out of that bit mask in
//! id order.
//!
//! The candidate *order* — and therefore every candidate prefix — is
//! identical across all three paths by construction (same keys, same
//! tie-breaking total order). The per-size `score_sum` is regrouped by the
//! prefix scan and so may differ from the per-term sum in the last few
//! bits; since `holds` compares that score against the fixed `1/2e`
//! threshold, a score landing *within that rounding band of the threshold
//! itself* could in principle decide differently. No such boundary
//! coincidence has been observed — the property tests pin sets and
//! decisions exactly across randomized graphs and all four criteria, and
//! the committed `ci/baselines/` experiment tables regenerated bit-identical
//! when the prefix scan replaced the per-size path, and again when the
//! packed-key sort and the lazy degree-order walk replaced its n-length
//! merge.
//!
//! # Per-vertex memory (bookkeeping state)
//!
//! The workspace's per-vertex state is laid out struct-of-arrays: two
//! contiguous `f64` mass planes (`current`/`next`) plus one membership
//! plane. Up to PR 5 the membership plane was an epoch-stamped `Vec<u64>`
//! read and written once per probability push; it is now a bit-packed
//! [`crate::mask::BitMask`]:
//!
//! | layout | membership plane | total resident @ `n = 2²⁰` per workspace/lane |
//! |---|---|---|
//! | epoch stamps (pre-mask, kept in [`crate::stamp_reference`]) | 8 B/vertex (8 MiB @ 2²⁰) | ≈ 24 MiB |
//! | bit-packed mask ([`WalkWorkspace`]) | 1 bit/vertex (128 KiB @ 2²⁰) | ≈ 16.1 MiB |
//!
//! The mass planes are unavoidable (they hold the walk), so the win is in
//! the *bookkeeping traffic*: the membership test that decides between `+=`
//! and `=` in the hot accumulation loop now touches 64× less memory, and at
//! million-vertex scale the whole membership plane fits in L2 while the
//! stamps did not fit in L3. Clearing stays `O(|support|)` (bits are
//! cleared exactly where the support list says they are set), so the
//! epoch trick's asymptotics are preserved without storing epochs at all.
//!
//! The renormalised sweep's scratch adds one more bit per vertex (the
//! `chosen` mask, another 128 KiB @ 2²⁰) and otherwise only buffers of the
//! support's length. Its merged candidate order and prefix sums used to be
//! four n-length vectors per workspace (32 B/vertex, 32 MiB @ 2²⁰ once a
//! sweep had reached size `n`); the engine instead keeps its degree order
//! with each vertex's rank and degree (20 B/vertex, shared by every
//! workspace).
//!
//! A [`crate::WalkBatch`] adds two batch-wide pull planes on top of its
//! lanes, allocated on the batch's first pull step (see the
//! [`crate::batch`] module docs):
//!
//! | plane | per vertex | resident @ `n = 2²⁰`, 8 lanes |
//! |---|---|---|
//! | lane-interleaved share plane | 8 B per lane of the widest pull chunk (≤ 8) | 64 MiB |
//! | lane bytes | 1 B | 1 MiB |
//!
//! One further (graph-side, not workspace-side) plane joined in PR 8: the
//! optional edge-weight lane.
//!
//! | layout | weight lane | resident @ `n = 2²⁰`, `m = 8n` |
//! |---|---|---|
//! | unweighted graph | absent (`None`) | 0 B |
//! | weighted graph | 8 B/edge slot + 8 B/vertex weighted degree | ≈ 136 MiB |
//!
//! The lane is shared by every workspace (it lives in the borrowed
//! [`cdrw_graph::Graph`]), and when absent the step kernel takes the
//! weightless branch — same instructions as before the lane existed, which
//! is what the perf-smoke gate pins at ≤ 1.1×.

use std::sync::OnceLock;

use cdrw_graph::{Graph, VertexId};

use crate::local_mixing::{affinity_ratio, LocalMixingConfig, LocalMixingOutcome, MixingCheck};
use crate::mask::BitMask;
use crate::{MixingCriterion, WalkDistribution, WalkError};

/// Sparse one-step walk evolution over an explicit frontier.
///
/// The engine borrows the graph and owns the degree-sorted vertex order used
/// by [`WalkEngine::sweep`] (computed lazily, once). It holds no per-walk
/// state: all of that lives in a [`WalkWorkspace`], so one engine can serve
/// many concurrent workspaces (e.g. one per thread in
/// `cdrw_core::Cdrw::detect_parallel`).
///
/// # Examples
///
/// Step a walk from a point mass and sweep for the largest local mixing set
/// (the inner loop of Algorithm 1):
///
/// ```
/// use cdrw_gen::special;
/// use cdrw_walk::{LocalMixingConfig, WalkEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Four cliques of 32 vertices, joined in a ring.
/// let (graph, _truth) = special::ring_of_cliques(4, 32)?;
/// let engine = WalkEngine::new(&graph);
/// let mut workspace = engine.workspace();
/// workspace.load_point_mass(3)?;
/// for _ in 0..3 {
///     engine.step(&mut workspace);
/// }
/// // The support is still a strict subset of the graph, so each step cost
/// // O(vol(support)), not O(n + m).
/// assert!(workspace.support_size() < graph.num_vertices());
/// let config = LocalMixingConfig {
///     min_size: 8,
///     ..LocalMixingConfig::default()
/// };
/// let outcome = engine.sweep(&mut workspace, &config)?;
/// // The walk has locally mixed over (roughly) the seed clique.
/// assert!(outcome.found());
/// assert!(outcome.size() < 2 * 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WalkEngine<'g> {
    graph: &'g Graph,
    /// Laziness parameter `α`; same semantics as [`crate::WalkOperator`].
    laziness: f64,
    /// The `(weighted degree, id)` vertex order. Computed on first sweep.
    degree_order: OnceLock<DegreeOrder>,
}

/// The vertices sorted by `(weighted degree, id)` — ascending score order for
/// vertices outside the support — with each one's position and degree.
#[derive(Debug)]
struct DegreeOrder {
    /// The vertices in order.
    vertices: Vec<VertexId>,
    /// `degrees[i]` is the weighted degree of `vertices[i]`, so a walk of the
    /// order reads its degrees sequentially.
    degrees: Vec<f64>,
    /// `rank[v]` is the position of `v` in `vertices`: the low bits of the
    /// renormalised sweep's packed sort keys.
    rank: Vec<u32>,
}

impl<'g> WalkEngine<'g> {
    /// Creates the engine for the simple (non-lazy) walk the paper uses.
    pub fn new(graph: &'g Graph) -> Self {
        WalkEngine {
            graph,
            laziness: 0.0,
            degree_order: OnceLock::new(),
        }
    }

    /// Creates an engine for the lazy walk that stays put with probability
    /// `laziness` each step (clamped into `[0, 1]`).
    pub fn lazy(graph: &'g Graph, laziness: f64) -> Self {
        WalkEngine {
            graph,
            laziness: laziness.clamp(0.0, 1.0),
            degree_order: OnceLock::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The laziness parameter `α`.
    pub fn laziness(&self) -> f64 {
        self.laziness
    }

    /// A fresh workspace sized for this engine's graph.
    pub fn workspace(&self) -> WalkWorkspace {
        WalkWorkspace::for_graph(self.graph)
    }

    fn degree_order(&self) -> &DegreeOrder {
        self.degree_order.get_or_init(|| {
            let graph = self.graph;
            let mut vertices: Vec<VertexId> = graph.vertices().collect();
            // Sorted by (weighted degree, id): the sweep's candidate score
            // outside the support is monotone in the *weighted* degree. On
            // an unweighted graph this is the (degree, id) order exactly
            // (integer-valued f64 keys compare like the integers).
            vertices.sort_unstable_by(|&a, &b| degree_key_cmp(graph, a, b));
            let degrees = vertices.iter().map(|&v| graph.weighted_degree(v)).collect();
            let mut rank = vec![0u32; vertices.len()];
            for (position, &v) in vertices.iter().enumerate() {
                rank[v] = u32::try_from(position).expect("degree ranks fit in 32 bits");
            }
            DegreeOrder {
                vertices,
                degrees,
                rank,
            }
        })
    }

    /// Applies one walk step in place: `workspace.current` becomes `p_ℓ`
    /// given `p_{ℓ−1}`, touching only the support and its neighbourhood.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was sized for a different graph.
    pub fn step(&self, workspace: &mut WalkWorkspace) {
        assert_eq!(
            workspace.len(),
            self.graph.num_vertices(),
            "workspace is over {} vertices but the graph has {}",
            workspace.len(),
            self.graph.num_vertices()
        );
        let ws = workspace;
        ws.next_support.clear();
        let move_fraction = 1.0 - self.laziness;
        // Detach the support so accumulation can borrow the rest of the
        // workspace mutably; the buffer is recycled below.
        let support = std::mem::take(&mut ws.support);
        // Release the outgoing support's mask bits so the mask is free to
        // mark the incoming support during accumulation — O(|support|) bit
        // clears, the mask-layout replacement for bumping an epoch.
        for &u in &support {
            ws.mask.remove(u);
        }
        // Iterating the sorted support in ascending vertex order makes every
        // accumulation into `next[v]` happen in the same order as the dense
        // operator's `for u in 0..n` loop, so the sums are bit-identical.
        for &u in &support {
            let p = ws.current[u];
            if p == 0.0 {
                // Mirrors the dense operator's skip; keeps a vertex whose
                // mass underflowed to zero out of the cost and the result.
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                // Nowhere to go: the mass stays.
                accumulate(ws, u, p);
                continue;
            }
            if self.laziness > 0.0 {
                accumulate(ws, u, p * self.laziness);
            }
            // Weighted transition P(u→v) = w(u,v)/w(u); on an unweighted
            // graph `weighted_degree` is exactly `degree as f64` and the
            // weightless loop below performs the identical arithmetic the
            // pre-weight-lane kernel did.
            let share = p * move_fraction / self.graph.weighted_degree(u);
            match self.graph.weight_slice(u) {
                None => {
                    for &v in self.graph.neighbor_slice(u) {
                        accumulate(ws, v, share);
                    }
                }
                Some(row_weights) => {
                    for (&v, &w) in self.graph.neighbor_slice(u).iter().zip(row_weights) {
                        accumulate(ws, v, share * w);
                    }
                }
            }
        }
        // Zero the outgoing buffer so the all-zero-outside-support invariant
        // holds after the swap (the old `current` becomes the next `next`).
        for &u in &support {
            ws.current[u] = 0.0;
        }
        std::mem::swap(&mut ws.current, &mut ws.next);
        ws.support = std::mem::take(&mut ws.next_support);
        // Push order is a merge of ascending neighbour lists, so the support
        // is nearly sorted already; pdqsort handles this in near-linear time.
        ws.support.sort_unstable();
        // Recycle the old support's allocation for the next step.
        ws.next_support = support;
    }

    /// The pre-weight-lane step kernel, preserved verbatim: uniform
    /// `1/d(u)` shares with no weight dispatch. Only valid on unweighted
    /// graphs, where it is bit-identical to [`WalkEngine::step`]; the CI
    /// perf-smoke job times the two against each other to pin the weight
    /// lane's cost on the unweighted path at ≤ 1.1× (see the module docs).
    /// Hot paths should always call [`WalkEngine::step`].
    ///
    /// # Panics
    ///
    /// Panics on a weighted graph or a workspace sized for a different
    /// graph.
    pub fn step_uniform_reference(&self, workspace: &mut WalkWorkspace) {
        assert!(
            !self.graph.is_weighted(),
            "the uniform reference kernel predates the weight lane"
        );
        assert_eq!(
            workspace.len(),
            self.graph.num_vertices(),
            "workspace is over {} vertices but the graph has {}",
            workspace.len(),
            self.graph.num_vertices()
        );
        let ws = workspace;
        ws.next_support.clear();
        let move_fraction = 1.0 - self.laziness;
        let support = std::mem::take(&mut ws.support);
        for &u in &support {
            ws.mask.remove(u);
        }
        for &u in &support {
            let p = ws.current[u];
            if p == 0.0 {
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                accumulate(ws, u, p);
                continue;
            }
            if self.laziness > 0.0 {
                accumulate(ws, u, p * self.laziness);
            }
            let share = p * move_fraction / degree as f64;
            for &v in self.graph.neighbor_slice(u) {
                accumulate(ws, v, share);
            }
        }
        for &u in &support {
            ws.current[u] = 0.0;
        }
        std::mem::swap(&mut ws.current, &mut ws.next);
        ws.support = std::mem::take(&mut ws.next_support);
        ws.support.sort_unstable();
        ws.next_support = support;
    }

    /// Runs the candidate-size sweep of Algorithm 1 (lines 12–17) against the
    /// workspace's current distribution.
    ///
    /// Produces the same selected sets and `holds` decisions as
    /// [`crate::largest_mixing_set`] on the equivalent dense distribution
    /// (`score_sum` may differ in the last bits; see the module docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::largest_mixing_set`]: configuration
    /// validation failures and [`WalkError::NoEdges`] for edgeless graphs.
    pub fn sweep(
        &self,
        workspace: &mut WalkWorkspace,
        config: &LocalMixingConfig,
    ) -> Result<LocalMixingOutcome, WalkError> {
        self.validate_sweep(workspace, config)?;
        if config.criterion == MixingCriterion::Renormalized {
            // The candidate set of every size is a prefix of one fixed merged
            // order, so the whole sweep is a single incremental pass.
            return Ok(self.sweep_renormalized(workspace, config));
        }
        self.fill_tail(workspace);
        // Same override as the dense sweep: a possibly-disconnected
        // pass-region forbids the early exit.
        let stop_early = config.stop_at_first_failure && config.criterion.stops_at_first_failure();
        let mut best: Option<Vec<VertexId>> = None;
        let mut checks = Vec::new();
        for size in config.candidate_sizes(self.graph.num_vertices()) {
            let adaptive = config.criterion == MixingCriterion::Adaptive;
            let (check, members) = self.check_size(workspace, size, config.threshold, adaptive);
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

    /// The pre-prefix-scan sweep: identical decision logic to
    /// [`WalkEngine::sweep`], but the renormalised criterion re-merges and
    /// re-scores its candidate prefix from scratch for every candidate size
    /// (`O(Σ|S|)` per sweep instead of one incremental pass), over a
    /// comparator sort of the whole support. Kept as the reference
    /// implementation the prefix scan is property-test-pinned against and
    /// micro-benchmarked against (`substrate_micro`); hot paths should always
    /// call [`WalkEngine::sweep`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalkEngine::sweep`].
    pub fn sweep_per_size(
        &self,
        workspace: &mut WalkWorkspace,
        config: &LocalMixingConfig,
    ) -> Result<LocalMixingOutcome, WalkError> {
        self.validate_sweep(workspace, config)?;
        self.fill_tail(workspace);
        if config.criterion == MixingCriterion::Renormalized {
            self.sort_support_by_affinity(workspace);
        }
        let stop_early = config.stop_at_first_failure && config.criterion.stops_at_first_failure();
        let mut best: Option<Vec<VertexId>> = None;
        let mut checks = Vec::new();
        for size in config.candidate_sizes(self.graph.num_vertices()) {
            let (check, members) = match config.criterion {
                MixingCriterion::Strict | MixingCriterion::Lazy(_) => {
                    self.check_size(workspace, size, config.threshold, false)
                }
                MixingCriterion::Adaptive => {
                    self.check_size(workspace, size, config.threshold, true)
                }
                MixingCriterion::Renormalized => {
                    self.check_size_renormalized(workspace, size, config.threshold)
                }
            };
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

    /// Shared sweep prologue: configuration, graph and workspace checks.
    fn validate_sweep(
        &self,
        workspace: &WalkWorkspace,
        config: &LocalMixingConfig,
    ) -> Result<(), WalkError> {
        config.validate()?;
        if self.graph.total_volume() == 0 {
            return Err(WalkError::NoEdges);
        }
        assert_eq!(
            workspace.len(),
            self.graph.num_vertices(),
            "workspace is over {} vertices but the graph has {}",
            workspace.len(),
            self.graph.num_vertices()
        );
        Ok(())
    }

    /// Builds the per-sweep tail of the per-size checks: the degree-sorted
    /// non-support vertices, so candidate assembly never re-skips support
    /// entries.
    fn fill_tail(&self, ws: &mut WalkWorkspace) {
        ws.tail.clear();
        // Support membership is a single bit read per vertex here (the mask
        // invariant: bit set ⟺ vertex in `support`), so this n-length filter
        // streams 1 bit of bookkeeping per vertex instead of 8 bytes.
        for &v in &self.degree_order().vertices {
            if !ws.mask.contains(v) {
                ws.tail.push(v);
            }
        }
    }

    /// Sorts the whole support into `workspace.affinity` by descending walk
    /// affinity `p(u)/d(u)`, ties by `(degree, id)` — the prefix order the
    /// renormalised criterion selects candidates in. The comparator sort of
    /// the [`WalkEngine::sweep_per_size`] reference path; the hot sweep sorts
    /// packed keys instead (`build_positive_prefix`).
    fn sort_support_by_affinity(&self, ws: &mut WalkWorkspace) {
        let graph = self.graph;
        ws.affinity.clear();
        for &u in &ws.support {
            ws.affinity
                .push((affinity_ratio(ws.current[u], graph.weighted_degree(u)), u));
        }
        ws.affinity
            .sort_unstable_by(|a, b| affinity_order_cmp(graph, a, b));
    }

    /// Builds the positive prefix of the renormalised sweep: the support's
    /// positive-affinity vertices in the order of [`affinity_order_cmp`]
    /// into `workspace.ordered`, their running mass and weighted volume into
    /// `cum_mass`/`cum_degree`, and their membership into `chosen`. The
    /// zero-affinity entries are left out; the sweep takes them in degree
    /// order instead.
    ///
    /// Each entry is sorted as one `u64`: the affinity's bits, inverted so
    /// that larger affinities sort first and shifted past the sign bit
    /// (affinities are `≥ 0`, so it carries no order), with the lowest
    /// `⌈log₂ n⌉` bits replaced by the vertex's rank in the degree order.
    /// Equal affinities therefore sort exactly by `(weighted degree, id)`.
    /// Affinities that differ only in the replaced bits tie on the truncated
    /// part and are put right by re-sorting each such run with the
    /// comparator, so the result is exactly the comparator's order.
    fn build_positive_prefix(&self, ws: &mut WalkWorkspace) {
        let graph = self.graph;
        let order = self.degree_order();
        let rank_bits = usize::BITS - graph.num_vertices().saturating_sub(1).leading_zeros();
        let rank_mask = (1u64 << rank_bits) - 1;
        ws.keys.clear();
        for &u in &ws.support {
            let ratio = affinity_ratio(ws.current[u], graph.weighted_degree(u));
            debug_assert!(ratio >= 0.0, "affinities are non-negative and never NaN");
            if ratio > 0.0 {
                ws.keys
                    .push(((!ratio.to_bits()) << 1) & !rank_mask | u64::from(order.rank[u]));
            }
        }
        ws.keys.sort_unstable();

        // One pass in key order: each vertex, its membership, the running
        // mass and weighted volume (exact integers below 2^53 on an
        // unweighted graph), and the first pair of keys that tie on the
        // truncated bits. Exact capacities: doubling would give a full
        // support's `n + 1` sums room for `2n`.
        let positive = ws.keys.len();
        ws.ordered.clear();
        ws.cum_mass.clear();
        ws.cum_degree.clear();
        ws.ordered.reserve_exact(positive);
        ws.cum_mass.reserve_exact(positive + 1);
        ws.cum_degree.reserve_exact(positive + 1);
        ws.cum_mass.push(0.0);
        ws.cum_degree.push(0.0);
        let (mut mass, mut volume) = (0.0f64, 0.0f64);
        let mut first_tie = None;
        let mut previous = None;
        for (i, &key) in ws.keys.iter().enumerate() {
            let rank = (key & rank_mask) as usize;
            let u = order.vertices[rank];
            mass += ws.current[u];
            volume += order.degrees[rank];
            ws.ordered.push(u);
            ws.cum_mass.push(mass);
            ws.cum_degree.push(volume);
            ws.chosen.insert(u);
            let truncated = key >> rank_bits;
            if first_tie.is_none() && previous == Some(truncated) {
                first_tie = Some(i - 1);
            }
            previous = Some(truncated);
        }
        if let Some(from) = first_tie {
            self.resort_tied_runs(ws, from, rank_bits);
        }
    }

    /// Re-sorts, from position `from` on, each run of `workspace.ordered`
    /// whose keys tie on their truncated affinity bits, with the comparator,
    /// and redoes the running sums from the first run that moved. A run of
    /// one affinity is already in rank order.
    fn resort_tied_runs(&self, ws: &mut WalkWorkspace, from: usize, rank_bits: u32) {
        let graph = self.graph;
        let mut moved_from = None;
        let mut start = from;
        for end in from + 1..=ws.keys.len() {
            if end < ws.keys.len() && ws.keys[end] >> rank_bits == ws.keys[start] >> rank_bits {
                continue;
            }
            let run = start..end;
            start = end;
            if run.len() < 2 {
                continue;
            }
            ws.affinity.clear();
            ws.affinity.extend(
                ws.ordered[run.clone()]
                    .iter()
                    .map(|&u| (affinity_ratio(ws.current[u], graph.weighted_degree(u)), u)),
            );
            if ws.affinity.windows(2).all(|pair| pair[0].0 == pair[1].0) {
                continue;
            }
            ws.affinity
                .sort_unstable_by(|a, b| affinity_order_cmp(graph, a, b));
            for (slot, &(_, u)) in ws.ordered[run.clone()].iter_mut().zip(&ws.affinity) {
                *slot = u;
            }
            moved_from.get_or_insert(run.start);
        }
        if let Some(moved) = moved_from {
            let (mut mass, mut volume) = (ws.cum_mass[moved], ws.cum_degree[moved]);
            for (i, &u) in ws.ordered.iter().enumerate().skip(moved) {
                mass += ws.current[u];
                volume += graph.weighted_degree(u);
                ws.cum_mass[i + 1] = mass;
                ws.cum_degree[i + 1] = volume;
            }
        }
    }

    /// The renormalised sweep as a single incremental prefix scan.
    ///
    /// Every candidate set is a prefix of the same merged order: the
    /// positive-affinity support in affinity order, then the rest of the
    /// graph — the zero-mass vertices and the support entries whose affinity
    /// is `0` — in `(weighted degree, id)` order, since they all tie at
    /// affinity `0`. Past the positive prefix that order is the engine's
    /// degree order with the positive-affinity vertices skipped, so it is
    /// read lazily off that order, never materialised. Writing the per-size
    /// score `Σ_{u∈S} |p(u)/p(S) − d(u)/µ′(S)|` as a sum of its positive and
    /// negative terms splits it at the single index where the affinity
    /// `p(u)/d(u)` crosses `p(S)/µ′(S)` (the prefix is sorted by exactly
    /// that key), which one binary search per size locates:
    ///
    /// ```text
    /// score(S) = (mass_high − mass_low)/p(S) + (vol_low − vol_high)/µ′(S)
    /// ```
    ///
    /// with `mass_*`/`vol_*` read off running sums of the walk mass and the
    /// degrees on either side of the crossing. The running sums add the same
    /// terms in the same order as a full merge would, so they are
    /// bit-identical to it on weighted graphs too. The candidate prefixes
    /// are identical to the per-size path by construction; the regrouped
    /// `score` may differ from the per-term sum in the last bits, which
    /// matters for a `holds` decision only in the (never observed,
    /// property-pinned absent) case of a score landing within that rounding
    /// band of the threshold — see the module docs.
    fn sweep_renormalized(
        &self,
        ws: &mut WalkWorkspace,
        config: &LocalMixingConfig,
    ) -> LocalMixingOutcome {
        let graph = self.graph;
        let n = graph.num_vertices();
        let order = self.degree_order();
        self.build_positive_prefix(ws);
        let positive = ws.ordered.len();
        let mut mass = ws.cum_mass[positive];
        let mut volume = ws.cum_degree[positive];

        // Past the positive prefix: `taken` candidates so far, `reached`
        // entries of the degree order read. Zero-mass vertices add no `+ 0.0`
        // to the running mass; zero-affinity support entries add their mass.
        let mut taken = positive;
        let mut reached = 0usize;
        let mut best_size = 0usize;
        let mut best_reached = 0usize;
        let sizes = config.candidate_sizes(n);
        let mut checks = Vec::with_capacity(sizes.len());
        for size in sizes {
            let size = size.min(n);
            while taken < size {
                let v = order.vertices[reached];
                let degree = order.degrees[reached];
                reached += 1;
                if ws.chosen.contains(v) {
                    continue;
                }
                volume += degree;
                if ws.mask.contains(v) {
                    mass += ws.current[v];
                }
                taken += 1;
            }
            let (retained, size_volume) = if size <= positive {
                (ws.cum_mass[size], ws.cum_degree[size])
            } else {
                (mass, volume)
            };
            let average_volume = graph.weighted_volume() / n as f64 * size as f64;
            let score_sum = if retained > 0.0 {
                // Terms are positive while p(u)/w(u) ≥ p(S)/µ′(S); the prefix
                // is sorted descending by that affinity, so the crossing is a
                // partition point of the (never-NaN) affinities. Entries past
                // the positive prefix have affinity exactly 0 and lie on the
                // high side only when the crossing underflows to 0 too.
                let crossing_affinity = retained / average_volume;
                let (mass_high, vol_high) = if crossing_affinity > 0.0 {
                    let k = ws.ordered[..size.min(positive)].partition_point(|&u| {
                        affinity_ratio(ws.current[u], graph.weighted_degree(u)) >= crossing_affinity
                    });
                    (ws.cum_mass[k], ws.cum_degree[k])
                } else {
                    (retained, size_volume)
                };
                let mass_low = retained - mass_high;
                let vol_low = size_volume - vol_high;
                (mass_high - mass_low) / retained + (vol_low - vol_high) / average_volume
            } else {
                f64::INFINITY
            };
            let holds = score_sum < config.threshold;
            checks.push(MixingCheck {
                size,
                score_sum,
                holds,
            });
            if holds {
                best_size = size;
                best_reached = reached;
            }
        }

        // Members in id order, read off `chosen`: the positive prefix up to
        // the best size, or all of it plus the degree-order entries the walk
        // had taken by then.
        if best_size <= positive {
            for &u in &ws.ordered[best_size..] {
                ws.chosen.remove(u);
            }
        } else {
            for &v in &order.vertices[..best_reached] {
                ws.chosen.insert(v);
            }
        }
        let set = (best_size > 0).then(|| {
            let mut members = Vec::with_capacity(best_size);
            ws.chosen.drain_into(&mut members);
            members
        });
        LocalMixingOutcome { set, checks }
    }

    /// Checks the strict (or, with `adaptive == true`, the deficit-adjusted)
    /// mixing condition for one candidate size in `O(|support| + size)`,
    /// reading the non-support candidates off the per-sweep tail built by
    /// [`WalkEngine::prepare_sweep`].
    fn check_size(
        &self,
        ws: &mut WalkWorkspace,
        size: usize,
        threshold: f64,
        adaptive: bool,
    ) -> (MixingCheck, Option<Vec<VertexId>>) {
        let graph = self.graph;
        let n = graph.num_vertices();
        // Same expression as the dense `node_scores`, so per-vertex scores
        // are bit-identical.
        let average_volume = graph.weighted_volume() / n as f64 * size as f64;

        ws.candidates.clear();
        // Support vertices carry probability: score |p(u) − w(u)/µ′|.
        for &u in &ws.support {
            let score = (ws.current[u] - graph.weighted_degree(u) / average_volume).abs();
            ws.candidates.push((score, u));
        }
        // Outside the support p(v) = 0, so the score is w(v)/µ′ — monotone
        // in the weighted degree. The `size` best non-support candidates are
        // therefore a prefix of the degree-sorted tail; anything beyond that
        // prefix is dominated by `size` better candidates and can never be
        // selected.
        let wanted = size.min(ws.tail.len());
        for &v in &ws.tail[..wanted] {
            let score = (0.0 - graph.weighted_degree(v) / average_volume).abs();
            ws.candidates.push((score, v));
        }

        // Ties broken by vertex id: the identical total order to the dense
        // sweep, so the selected member set matches it exactly.
        let compare = |a: &(f64, VertexId), b: &(f64, VertexId)| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let selected = if size < ws.candidates.len() {
            ws.candidates.select_nth_unstable_by(size - 1, compare);
            &ws.candidates[..size]
        } else {
            &ws.candidates[..]
        };
        let score_sum: f64 = selected.iter().map(|&(score, _)| score).sum();
        let effective_threshold = if adaptive {
            // Adaptive criterion: loosen the budget by the observed leaked
            // mass 1 − p(S). `current` is all-zero outside the support, so
            // the sum reads the retained mass directly.
            let retained: f64 = selected.iter().map(|&(_, v)| ws.current[v]).sum();
            threshold + (1.0 - retained).max(0.0)
        } else {
            threshold
        };
        let holds = score_sum < effective_threshold;
        let check = MixingCheck {
            size,
            score_sum,
            holds,
        };
        if holds {
            let mut members: Vec<VertexId> = selected.iter().map(|&(_, v)| v).collect();
            members.sort_unstable();
            (check, Some(members))
        } else {
            (check, None)
        }
    }

    /// Checks the renormalised restricted-score condition for one candidate
    /// size in `O(size)` (after the per-sweep affinity sort): the candidate
    /// prefix is a merge of the affinity-sorted support with the degree-order
    /// prefix of the zero-mass tail, which reproduces the dense
    /// implementation's global affinity sort exactly. Only used by the
    /// [`WalkEngine::sweep_per_size`] reference path — the hot sweep answers
    /// every size from one incremental prefix scan instead.
    fn check_size_renormalized(
        &self,
        ws: &mut WalkWorkspace,
        size: usize,
        threshold: f64,
    ) -> (MixingCheck, Option<Vec<VertexId>>) {
        let graph = self.graph;
        let n = graph.num_vertices();
        let average_volume = graph.weighted_volume() / n as f64 * size as f64;

        // Merge the two key-sorted sequences into the candidate prefix.
        // Support entries carry their probability; the zero-mass tail (never
        // in the support) contributes (0.0, v) in (weighted degree, id)
        // order, which is how the dense comparator orders the affinity ties.
        ws.candidates.clear();
        let mut ai = 0usize;
        let mut di = 0usize;
        while ws.candidates.len() < size {
            let take_support = if ai < ws.affinity.len() {
                if di >= ws.tail.len() {
                    true
                } else {
                    let (ratio, u) = ws.affinity[ai];
                    // The tail's affinity is exactly 0, so any positive
                    // support affinity wins; a support vertex whose mass
                    // underflowed to 0 ties and falls back to (weighted
                    // degree, id).
                    ratio > 0.0 || degree_key_cmp(graph, u, ws.tail[di]).is_lt()
                }
            } else {
                false
            };
            if take_support {
                let (_, u) = ws.affinity[ai];
                ai += 1;
                ws.candidates.push((ws.current[u], u));
            } else if di < ws.tail.len() {
                ws.candidates.push((0.0, ws.tail[di]));
                di += 1;
            } else {
                break;
            }
        }

        let selected = &ws.candidates[..];
        let retained: f64 = selected.iter().map(|&(p, _)| p).sum();
        let score_sum: f64 = if retained > 0.0 {
            selected
                .iter()
                .map(|&(p, v)| (p / retained - graph.weighted_degree(v) / average_volume).abs())
                .sum()
        } else {
            f64::INFINITY
        };
        let holds = score_sum < threshold;
        let check = MixingCheck {
            size,
            score_sum,
            holds,
        };
        if holds {
            let mut members: Vec<VertexId> = selected.iter().map(|&(_, v)| v).collect();
            members.sort_unstable();
            (check, Some(members))
        } else {
            (check, None)
        }
    }
}

/// The renormalised sweep's candidate order on `(affinity, vertex)` pairs:
/// descending affinity, ties by [`degree_key_cmp`].
///
/// Uses `total_cmp`: affinity ratios are never NaN by construction
/// ([`affinity_ratio`] maps zero mass to `0`, mass on an isolated vertex to
/// `+∞`, and everything else to a finite positive quotient), so the IEEE
/// total order agrees with the partial order on every value that can occur,
/// and a NaN produced by a future bug would sort deterministically instead of
/// silently collapsing comparisons to `Equal`.
fn affinity_order_cmp(
    graph: &Graph,
    &(ra, a): &(f64, VertexId),
    &(rb, b): &(f64, VertexId),
) -> std::cmp::Ordering {
    rb.total_cmp(&ra).then_with(|| degree_key_cmp(graph, a, b))
}

/// Total order on vertices by `(weighted degree, id)` — the candidate
/// ordering key of the mixing sweep. Weighted degrees are finite by
/// construction, so `total_cmp` agrees with the numeric order; on an
/// unweighted graph the keys are exact integer-valued f64s and the order is
/// identical to the historical `(degree, id)` sort.
#[inline]
pub(crate) fn degree_key_cmp(graph: &Graph, a: VertexId, b: VertexId) -> std::cmp::Ordering {
    graph
        .weighted_degree(a)
        .total_cmp(&graph.weighted_degree(b))
        .then(a.cmp(&b))
}

/// The hot accumulation kernel: first touch of `v` this step initialises
/// `next[v]` and records it in the incoming support; later touches add.
/// The first-touch test is one bit read/write against the mask (the caller
/// has already released the outgoing support's bits), against the 8-byte
/// epoch-stamp compare of [`crate::stamp_reference`].
#[inline]
pub(crate) fn accumulate(ws: &mut WalkWorkspace, v: VertexId, mass: f64) {
    if ws.mask.insert(v) {
        ws.next[v] = mass;
        ws.next_support.push(v);
    } else {
        ws.next[v] += mass;
    }
}

/// Reusable buffers for evolving one walk distribution.
///
/// A workspace is sized for one graph (any graph with the same vertex count)
/// and holds the walk's current distribution, the double buffer the next step
/// is accumulated into, the sorted support, and the scratch used by the
/// mixing sweep. Construct once — via [`WalkEngine::workspace`] or
/// [`WalkWorkspace::for_graph`] — and reuse it for every step of every seed:
/// re-seeding with [`WalkWorkspace::load_point_mass`] costs `O(|support|)`,
/// not `O(n)`.
#[derive(Debug, Clone)]
pub struct WalkWorkspace {
    /// `p_ℓ`: zero outside `support`.
    pub(crate) current: Vec<f64>,
    /// Accumulator for `p_{ℓ+1}`; meaningful only at mask-set entries while
    /// a step runs.
    pub(crate) next: Vec<f64>,
    /// Sorted vertices whose mask bit is set; exactly the vertices the last
    /// step touched (all of them carry the walk's remaining mass).
    pub(crate) support: Vec<VertexId>,
    /// Support of `next` in push order while a step runs.
    pub(crate) next_support: Vec<VertexId>,
    /// Bit-packed support membership (one bit per vertex). Invariant between
    /// operations: bit `v` is set ⟺ `v ∈ support`. A step releases the
    /// outgoing support's bits up front (`O(|support|)` word writes — the
    /// mask-layout replacement for epoch bumping) and sets bits as
    /// [`accumulate`] first-touches vertices, so the invariant is restored
    /// for the incoming support by the end of the step.
    pub(crate) mask: BitMask,
    /// Sweep scratch: `(score, vertex)` candidate pairs (strict/adaptive
    /// criteria) or `(probability, vertex)` merged prefixes (renormalised,
    /// per-size reference path).
    candidates: Vec<(f64, VertexId)>,
    /// Renormalised-sweep scratch: the support sorted by walk affinity
    /// `p(u)/d(u)` descending, as `(affinity, vertex)` pairs (per-size
    /// reference path), or one tied run being re-sorted (prefix scan).
    affinity: Vec<(f64, VertexId)>,
    /// Prefix-scan scratch: the packed `u64` sort keys of the
    /// positive-affinity support entries…
    keys: Vec<u64>,
    /// …those entries' vertices in candidate order…
    ordered: Vec<VertexId>,
    /// …running walk mass over that positive prefix (index `i` holds the
    /// mass of its first `i` entries)…
    cum_mass: Vec<f64>,
    /// …running weighted volume (sum of weighted degrees) over it — exact
    /// integer values on unweighted graphs…
    cum_degree: Vec<f64>,
    /// …and the vertices chosen so far: the positive prefix while the sweep
    /// walks the degree order, then the winning set, read out in id order
    /// and cleared before the sweep returns.
    chosen: BitMask,
    /// Per-sweep tail of the per-size checks: the degree-sorted vertex order
    /// with the current support filtered out.
    tail: Vec<VertexId>,
}

impl WalkWorkspace {
    /// Creates an empty workspace sized for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        Self::with_len(graph.num_vertices())
    }

    /// Creates an empty workspace over `n` vertices.
    pub fn with_len(n: usize) -> Self {
        WalkWorkspace {
            current: vec![0.0; n],
            next: vec![0.0; n],
            support: Vec::new(),
            next_support: Vec::new(),
            mask: BitMask::with_capacity(n),
            candidates: Vec::new(),
            affinity: Vec::new(),
            keys: Vec::new(),
            ordered: Vec::new(),
            cum_mass: Vec::new(),
            cum_degree: Vec::new(),
            chosen: BitMask::with_capacity(n),
            tail: Vec::new(),
        }
    }

    /// Number of vertices the workspace is sized for.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the workspace covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Resets to the point mass `p_0 = 1_{source}` (Algorithm 1's start).
    /// Reuses all buffers; only the previous support is cleared.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalkDistribution::point_mass`].
    pub fn load_point_mass(&mut self, source: VertexId) -> Result<(), WalkError> {
        if self.current.is_empty() {
            return Err(WalkError::EmptyDistribution);
        }
        if source >= self.current.len() {
            return Err(cdrw_graph::GraphError::VertexOutOfRange {
                vertex: source,
                num_vertices: self.current.len(),
            }
            .into());
        }
        self.clear_support();
        self.current[source] = 1.0;
        self.mask.insert(source);
        self.support.push(source);
        Ok(())
    }

    /// Loads an arbitrary dense distribution (used by the compatibility
    /// wrappers); costs `O(n)`.
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::DimensionMismatch`] when the lengths differ.
    pub fn load_distribution(&mut self, distribution: &WalkDistribution) -> Result<(), WalkError> {
        if distribution.len() != self.current.len() {
            return Err(WalkError::DimensionMismatch {
                left: distribution.len(),
                right: self.current.len(),
            });
        }
        self.clear_support();
        for (v, &p) in distribution.as_slice().iter().enumerate() {
            if p != 0.0 {
                self.current[v] = p;
                self.mask.insert(v);
                self.support.push(v);
            }
        }
        Ok(())
    }

    /// Loads a sparse distribution given as sorted `(vertex, mass)` entries,
    /// preserving the support *exactly* — including any zero-mass entries, so
    /// a gathered sharded state reproduces the sequential workspace bit for
    /// bit (the sweep's candidate tail depends on support membership, not
    /// just on the masses). Costs `O(|old support| + |entries|)`.
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::EmptyDistribution`] for a zero-length workspace
    /// and a vertex-range error for out-of-range entries.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if the entries are not strictly ascending by
    /// vertex.
    pub fn load_sparse(&mut self, entries: &[(VertexId, f64)]) -> Result<(), WalkError> {
        if self.current.is_empty() {
            return Err(WalkError::EmptyDistribution);
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse entries must be strictly ascending by vertex"
        );
        if let Some(&(v, _)) = entries.iter().find(|&&(v, _)| v >= self.current.len()) {
            return Err(cdrw_graph::GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.current.len(),
            }
            .into());
        }
        self.clear_support();
        for &(v, p) in entries {
            self.current[v] = p;
            self.mask.insert(v);
            self.support.push(v);
        }
        Ok(())
    }

    fn clear_support(&mut self) {
        for &v in &self.support {
            self.current[v] = 0.0;
            self.mask.remove(v);
        }
        self.support.clear();
    }

    /// Snapshots the sparse state as sorted `(vertex, mass)` entries — the
    /// checkpointable lane state of the sharded runtime. The support list is
    /// kept ascending by every load/absorb path, so feeding the snapshot
    /// back through [`WalkWorkspace::load_sparse`] reproduces the workspace
    /// bit for bit, including zero-mass support entries: a checkpoint-
    /// restored shard emits exactly the deltas the lost shard would have.
    pub fn snapshot_sparse(&self) -> Vec<(VertexId, f64)> {
        debug_assert!(
            self.support.windows(2).all(|w| w[0] < w[1]),
            "support must stay strictly ascending for snapshot round-trips"
        );
        self.support.iter().map(|&v| (v, self.current[v])).collect()
    }

    /// The sorted support: every vertex the walk currently touches.
    pub fn support(&self) -> &[VertexId] {
        &self.support
    }

    /// The bit-packed support membership mask (bit `v` set ⟺ `v` is in
    /// [`WalkWorkspace::support`]). Lets membership-heavy consumers — the
    /// sweep's tail filter and degree-order walk, `cdrw_congest`'s cost
    /// accounting — answer "does the walk touch `v`?" from one bit instead
    /// of searching the support list.
    pub fn support_mask(&self) -> &BitMask {
        &self.mask
    }

    /// Number of touched vertices.
    pub fn support_size(&self) -> usize {
        self.support.len()
    }

    /// Probability mass at vertex `v` (0.0 when out of range).
    pub fn probability(&self, v: VertexId) -> f64 {
        self.current.get(v).copied().unwrap_or(0.0)
    }

    /// The dense probability vector (zero outside the support).
    pub fn as_slice(&self) -> &[f64] {
        &self.current
    }

    /// Total probability mass (sums only the support).
    pub fn total_mass(&self) -> f64 {
        self.support.iter().map(|&v| self.current[v]).sum()
    }

    /// Snapshots the current state as a dense [`WalkDistribution`].
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::EmptyDistribution`] for a zero-length workspace.
    pub fn to_distribution(&self) -> Result<WalkDistribution, WalkError> {
        WalkDistribution::from_values(self.current.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{largest_mixing_set, WalkOperator};
    use cdrw_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

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
    fn step_matches_dense_operator_bit_for_bit() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(4, 16).unwrap();
        let operator = WalkOperator::new(&graph);
        let engine = WalkEngine::new(&graph);
        let mut ws = engine.workspace();
        ws.load_point_mass(3).unwrap();
        let mut dense = WalkDistribution::point_mass(graph.num_vertices(), 3).unwrap();
        for _ in 0..12 {
            engine.step(&mut ws);
            dense = operator.step_dense(&dense);
            assert_eq!(ws.as_slice(), dense.as_slice(), "sparse and dense diverged");
        }
    }

    #[test]
    fn step_matches_the_uniform_reference_kernel_bit_for_bit() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(4, 16).unwrap();
        for laziness in [0.0, 0.3] {
            let engine = WalkEngine::lazy(&graph, laziness);
            let mut ws = engine.workspace();
            let mut reference_ws = engine.workspace();
            ws.load_point_mass(3).unwrap();
            reference_ws.load_point_mass(3).unwrap();
            for _ in 0..12 {
                engine.step(&mut ws);
                engine.step_uniform_reference(&mut reference_ws);
                assert_eq!(ws.as_slice(), reference_ws.as_slice());
                assert_eq!(ws.support(), reference_ws.support());
            }
        }
    }

    #[test]
    #[should_panic(expected = "predates the weight lane")]
    fn uniform_reference_kernel_rejects_weighted_graphs() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        let g = b.build();
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(0).unwrap();
        engine.step_uniform_reference(&mut ws);
    }

    #[test]
    fn lazy_step_matches_dense_operator() {
        let g = path(9);
        let operator = WalkOperator::lazy(&g, 0.3);
        let engine = WalkEngine::lazy(&g, 0.3);
        assert_eq!(engine.laziness(), 0.3);
        let mut ws = engine.workspace();
        ws.load_point_mass(4).unwrap();
        let mut dense = WalkDistribution::point_mass(9, 4).unwrap();
        for _ in 0..20 {
            engine.step(&mut ws);
            dense = operator.step_dense(&dense);
            assert_eq!(ws.as_slice(), dense.as_slice());
        }
    }

    #[test]
    fn support_tracks_the_ball_around_the_seed() {
        let g = path(11);
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(5).unwrap();
        assert_eq!(ws.support(), &[5]);
        engine.step(&mut ws);
        assert_eq!(ws.support(), &[4, 6]);
        engine.step(&mut ws);
        assert_eq!(ws.support(), &[3, 5, 7]);
        assert_eq!(ws.support_size(), 3);
        assert!((ws.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertex_keeps_its_mass() {
        let g = GraphBuilder::from_edges(3, [(0, 1)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(2).unwrap();
        engine.step(&mut ws);
        assert_eq!(ws.probability(2), 1.0);
        assert_eq!(ws.support(), &[2]);
    }

    #[test]
    fn sweep_matches_dense_largest_mixing_set() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(4, 16).unwrap();
        let engine = WalkEngine::new(&graph);
        let mut ws = engine.workspace();
        ws.load_point_mass(2).unwrap();
        let config = LocalMixingConfig {
            min_size: 4,
            ..LocalMixingConfig::default()
        };
        for _ in 0..10 {
            engine.step(&mut ws);
            let sparse = engine.sweep(&mut ws, &config).unwrap();
            let dense =
                largest_mixing_set(&graph, &ws.to_distribution().unwrap(), &config).unwrap();
            assert_eq!(sparse.set, dense.set);
            assert_eq!(sparse.checks.len(), dense.checks.len());
            for (s, d) in sparse.checks.iter().zip(&dense.checks) {
                assert_eq!(s.size, d.size);
                assert_eq!(s.holds, d.holds);
                assert!((s.score_sum - d.score_sum).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sweep_with_full_support_matches_dense() {
        let g = complete(32);
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_point_mass(0).unwrap();
        for _ in 0..5 {
            engine.step(&mut ws);
        }
        assert_eq!(ws.support_size(), 32);
        let config = LocalMixingConfig::for_graph_size(32);
        let sparse = engine.sweep(&mut ws, &config).unwrap();
        let dense = largest_mixing_set(&g, &ws.to_distribution().unwrap(), &config).unwrap();
        assert_eq!(sparse.set, dense.set);
        assert!(sparse.found());
        assert_eq!(sparse.size(), 32);
    }

    #[test]
    fn workspace_reuse_across_seeds_is_clean() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(3, 8).unwrap();
        let engine = WalkEngine::new(&graph);
        let mut reused = engine.workspace();
        for seed in [0usize, 13, 7, 20] {
            reused.load_point_mass(seed).unwrap();
            let mut fresh = engine.workspace();
            fresh.load_point_mass(seed).unwrap();
            for _ in 0..6 {
                engine.step(&mut reused);
                engine.step(&mut fresh);
                assert_eq!(reused.as_slice(), fresh.as_slice());
                assert_eq!(reused.support(), fresh.support());
            }
        }
    }

    #[test]
    fn load_distribution_round_trips() {
        let g = path(6);
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        let d = WalkDistribution::from_values(vec![0.0, 0.5, 0.0, 0.25, 0.25, 0.0]).unwrap();
        ws.load_distribution(&d).unwrap();
        assert_eq!(ws.support(), &[1, 3, 4]);
        assert_eq!(ws.to_distribution().unwrap(), d);
        let wrong = WalkDistribution::uniform(4).unwrap();
        assert!(ws.load_distribution(&wrong).is_err());
    }

    #[test]
    fn workspace_validation() {
        let mut ws = WalkWorkspace::with_len(0);
        assert!(ws.is_empty());
        assert!(ws.load_point_mass(0).is_err());
        let mut ws = WalkWorkspace::with_len(4);
        assert!(!ws.is_empty());
        assert_eq!(ws.len(), 4);
        assert!(ws.load_point_mass(4).is_err());
        assert!(ws.load_point_mass(3).is_ok());
        assert_eq!(ws.probability(99), 0.0);
    }

    #[test]
    #[should_panic(expected = "workspace is over")]
    fn mismatched_workspace_panics() {
        let g = path(4);
        let engine = WalkEngine::new(&g);
        let mut ws = WalkWorkspace::with_len(5);
        engine.step(&mut ws);
    }

    #[test]
    fn prefix_scan_matches_per_size_sweep_on_a_sparse_ppm() {
        // A fig4a-shaped sparse instance at a size where the prefix scan's
        // regrouped score actually exercises long prefixes.
        let n = 1024;
        let ln_n = (n as f64).ln();
        let p = 2.0 * ln_n * ln_n / n as f64;
        let q = p / (2f64.powf(0.6) * ln_n);
        let params = cdrw_gen::PpmParams::new(n, 4, p, q).unwrap();
        let (graph, _) = cdrw_gen::generate_ppm(&params, 11).unwrap();
        let engine = WalkEngine::new(&graph);
        let config = LocalMixingConfig {
            criterion: MixingCriterion::Renormalized,
            ..LocalMixingConfig::for_graph_size(n)
        };
        let mut ws = engine.workspace();
        let mut reference_ws = engine.workspace();
        for seed in [0usize, 300, 777] {
            ws.load_point_mass(seed).unwrap();
            reference_ws.load_point_mass(seed).unwrap();
            for _ in 0..10 {
                engine.step(&mut ws);
                engine.step(&mut reference_ws);
                let fast = engine.sweep(&mut ws, &config).unwrap();
                let reference = engine.sweep_per_size(&mut reference_ws, &config).unwrap();
                assert_eq!(fast.set, reference.set, "seed {seed}");
                assert_eq!(fast.checks.len(), reference.checks.len());
                for (f, r) in fast.checks.iter().zip(&reference.checks) {
                    assert_eq!(f.size, r.size);
                    assert_eq!(f.holds, r.holds, "seed {seed}, size {}", f.size);
                    assert!(
                        (f.score_sum - r.score_sum).abs() < 1e-9
                            || (f.score_sum.is_infinite() && r.score_sum.is_infinite()),
                        "seed {seed}, size {}: {} vs {}",
                        f.size,
                        f.score_sum,
                        r.score_sum
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Under every [`MixingCriterion`], the prefix-scan sweep selects the
        /// same sets and makes the same pass/fail decisions as the per-size
        /// reference sweep on arbitrary graphs and walk lengths — the pin for
        /// the incremental renormalised pass (the other criteria share the
        /// per-size code path and must stay untouched).
        #[test]
        fn prefix_scan_sweep_matches_per_size_sweep(
            edges in proptest::collection::vec((0usize..24, 0usize..24), 1..160),
            source in 0usize..24,
            steps in 0usize..10,
            criterion_index in 0usize..4,
        ) {
            use proptest::{prop_assert, prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(24, clean).unwrap();
            let criterion = MixingCriterion::all()[criterion_index];
            let engine = WalkEngine::lazy(&g, criterion.laziness());
            let mut ws = engine.workspace();
            ws.load_point_mass(source).unwrap();
            for _ in 0..steps {
                engine.step(&mut ws);
            }
            let config = LocalMixingConfig {
                criterion,
                min_size: 2,
                ..LocalMixingConfig::default()
            };
            let fast = engine.sweep(&mut ws, &config).unwrap();
            let reference = engine.sweep_per_size(&mut ws, &config).unwrap();
            prop_assert_eq!(&fast.set, &reference.set, "criterion {}", criterion.name());
            prop_assert_eq!(fast.checks.len(), reference.checks.len());
            for (f, r) in fast.checks.iter().zip(&reference.checks) {
                prop_assert_eq!(f.size, r.size);
                prop_assert_eq!(f.holds, r.holds, "criterion {} at size {}", criterion.name(), f.size);
                prop_assert!(
                    (f.score_sum - r.score_sum).abs() < 1e-9
                        || (f.score_sum.is_infinite() && r.score_sum.is_infinite()),
                    "score sums diverged at size {}: {} vs {}",
                    f.size, f.score_sum, r.score_sum
                );
            }
        }

        /// Under every [`MixingCriterion`], the sparse sweep selects the same
        /// sets and makes the same pass/fail decisions as the dense reference
        /// sweep on arbitrary graphs and walk lengths.
        #[test]
        fn criteria_sweeps_match_dense_reference(
            edges in proptest::collection::vec((0usize..14, 0usize..14), 1..80),
            source in 0usize..14,
            steps in 0usize..8,
            criterion_index in 0usize..4,
        ) {
            use proptest::{prop_assert, prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(14, clean).unwrap();
            let criterion = MixingCriterion::all()[criterion_index];
            let engine = WalkEngine::lazy(&g, criterion.laziness());
            let operator = WalkOperator::lazy(&g, criterion.laziness());
            let mut ws = engine.workspace();
            ws.load_point_mass(source).unwrap();
            let mut dense = WalkDistribution::point_mass(14, source).unwrap();
            for _ in 0..steps {
                engine.step(&mut ws);
                dense = operator.step_dense(&dense);
            }
            let config = LocalMixingConfig {
                criterion,
                min_size: 2,
                ..LocalMixingConfig::default()
            };
            let sparse = engine.sweep(&mut ws, &config).unwrap();
            let dense_outcome = largest_mixing_set(&g, &dense, &config).unwrap();
            prop_assert_eq!(&sparse.set, &dense_outcome.set, "criterion {}", criterion.name());
            prop_assert_eq!(sparse.checks.len(), dense_outcome.checks.len());
            for (s, d) in sparse.checks.iter().zip(&dense_outcome.checks) {
                prop_assert_eq!(s.size, d.size);
                prop_assert_eq!(s.holds, d.holds, "criterion {} at size {}", criterion.name(), s.size);
                prop_assert!(
                    (s.score_sum - d.score_sum).abs() < 1e-9
                        || (s.score_sum.is_infinite() && d.score_sum.is_infinite()),
                    "score sums diverged at size {}: {} vs {}",
                    s.size, s.score_sum, d.score_sum
                );
            }
        }

        /// On arbitrary graphs, laziness values, and walk lengths, the sparse
        /// engine's distribution and local-mixing outcomes agree with the
        /// dense reference path within 1e-12 (the distributions are in fact
        /// bit-identical; the mixing sets are identical as sets).
        #[test]
        fn sparse_engine_matches_dense_reference(
            edges in proptest::collection::vec((0usize..16, 0usize..16), 1..100),
            source in 0usize..16,
            laziness in 0.0f64..1.0,
            steps in 0usize..8,
        ) {
            use proptest::{prop_assert, prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = GraphBuilder::from_edges(16, clean).unwrap();
            let engine = WalkEngine::lazy(&g, laziness);
            let operator = WalkOperator::lazy(&g, laziness);
            let mut ws = engine.workspace();
            ws.load_point_mass(source).unwrap();
            let mut dense = WalkDistribution::point_mass(16, source).unwrap();
            for _ in 0..steps {
                engine.step(&mut ws);
                dense = operator.step_dense(&dense);
            }
            for v in 0..16 {
                prop_assert!(
                    (ws.probability(v) - dense.probability(v)).abs() <= 1e-12,
                    "probability diverged at {}: {} vs {}",
                    v, ws.probability(v), dense.probability(v)
                );
            }
            // The support must be exactly the non-zero entries.
            for v in 0..16 {
                let in_support = ws.support().binary_search(&v).is_ok();
                prop_assert_eq!(in_support, ws.probability(v) != 0.0);
            }
            if g.total_volume() > 0 {
                let config = LocalMixingConfig {
                    min_size: 2,
                    ..LocalMixingConfig::default()
                };
                let sparse = engine.sweep(&mut ws, &config).unwrap();
                let dense_outcome = largest_mixing_set(&g, &dense, &config).unwrap();
                prop_assert_eq!(&sparse.set, &dense_outcome.set);
                prop_assert_eq!(sparse.checks.len(), dense_outcome.checks.len());
                for (s, d) in sparse.checks.iter().zip(&dense_outcome.checks) {
                    prop_assert_eq!(s.size, d.size);
                    prop_assert_eq!(s.holds, d.holds);
                    prop_assert!(
                        (s.score_sum - d.score_sum).abs() < 1e-12,
                        "score sums diverged at size {}: {} vs {}",
                        s.size, s.score_sum, d.score_sum
                    );
                }
            }
        }
    }
}
