//! Shard-local walk stepping: the distributed half of [`crate::WalkEngine::step`].
//!
//! A k-machine shard owns a subset of the vertices ([`cdrw_graph::SubCsr`])
//! and holds, in an ordinary [`WalkWorkspace`], the restriction of a walk's
//! distribution to its owned vertices. One global walk step then splits into
//! two shard-local halves with a message exchange in between:
//!
//! 1. [`emit_shares`] — every shard scans its owned support in ascending
//!    order and computes, for every source `u` with `p(u) > 0` and
//!    `d(u) > 0`, the one share `p(u)·(1−α)/w(u)` it sends along each of its
//!    edges (on an unweighted graph `w(u) = d(u)`). The [`Share`] goes once
//!    to every peer shard homing at least one neighbour of `u` (the
//!    [`SubCsr::peers`] routing table) — one entry per (source, peer), not
//!    one per edge — and into the shard's own run.
//! 2. [`ShareReceiver::absorb`] — every shard receives one run of shares per
//!    peer and expands them, together with its own run, over its own
//!    adjacency: the edge contribution `share` (times `w(u, v)` on a
//!    weighted graph) into every owned neighbour `v` of every source, plus
//!    the local self-terms — the lazy `p(v)·α` of every owned source, and the
//!    whole mass of a degree-0 owned vertex, which stays put.
//!
//! The receiver picks one of two kernels from volumes it can observe: the
//! *absorbed volume* — the number of (source, owned neighbour) pairs the
//! round's shares reach, which is exactly the number of edge contributions
//! it applies — against its owned volume (the stored endpoints of its
//! rows).
//!
//! * **Push** while the absorbed volume is below `1/4` of the owned volume:
//!   a per-shard *reverse index*, built from the shard's own rows, lists
//!   every vertex's owned neighbours in ascending order (with the weights
//!   of those edges), and the receiver merges its runs by source and
//!   scatters each share through it.
//! * **Pull** from there on: the receiver writes every share into a
//!   source-indexed plane, marks every source with mass, and gathers each
//!   owned vertex's ascending row from the plane — the gather and lazy-split
//!   rule of [`crate::batch`]'s pull, one lane wide.
//!
//! ## Why the result is bit-identical
//!
//! The sequential [`crate::WalkEngine::step`] iterates the sorted support in
//! ascending vertex order, so the additions into `next[v]` happen in
//! ascending *source* order for every target `v`, the lazy self-term of `v`
//! at source position `v` itself; the first addition initialises `next[v]`
//! and puts `v` on the support. Every term is either `share` or
//! `share · w(u, v)` for an edge, `p(v)·α` for a self-term, or `p(v)` for a
//! degree-0 vertex. The shares a receiver expands are computed by the
//! sending shard with the sequential expression from the same `p(u)`, so
//! the operands are the same `f64`s; what remains is the order.
//!
//! * *Push.* Each run is ascending by source — senders emit in ascending
//!   support order — and the runs' sources are disjoint, because every
//!   source has one home. [`merge_runs`] therefore visits the round's
//!   sources in ascending order, and at each source the receiver adds that
//!   source's self-term (if it owns the source) and then its edge
//!   contributions. Every target sees the sequential additions in the
//!   sequential order, whatever order the runs arrived in. A source's
//!   self-term and its edge contributions go to different vertices (the
//!   graph is simple), and a degree-0 vertex receives only its own mass, so
//!   neither placement can reorder a target's sum.
//! * *Pull.* The gather walks `v`'s ascending row and adds each neighbour's
//!   plane entry, with `v`'s self-term at `v`'s position in the row; a
//!   neighbour that sent nothing adds `+0.0`, which is exact, and the sum
//!   starts from `+0.0`, which the first real operand replaces exactly. That
//!   is the sequential operand sequence (see the [`crate::batch`] docs for
//!   the full argument, which needs positive finite weights stored in both
//!   rows of an edge — the builder's guarantee).
//!
//! Support membership follows `p(u) > 0`, never `share ≠ 0`: a source whose
//! mass is so small that its share underflows to `+0.0` still ships its
//! entry, and its neighbours still join the support with mass `0.0`, as they
//! do sequentially. Under the pull, the source's plane bit carries that
//! presence.
//!
//! The property tests in this module pin both kernels against
//! [`crate::WalkEngine::step`] over arbitrary graphs, arbitrary partitions
//! and arbitrary run arrival orders.
//!
//! ## Message accounting
//!
//! An edge contribution is one CONGEST message whether or not the endpoints
//! share a shard (the model charges every vertex-to-vertex send), and edge
//! *weights* never change the count; the self-terms are local state updates
//! and free. The receiver counts the edge contributions it applies, so the
//! per-round sum over receivers is `Σ_{u ∈ support, p(u) > 0} d(u)` — the
//! per-step cost of `cdrw_congest::primitives::sparse_walk_step_cost`, the
//! conformance identity `cdrw-kmachine` asserts per round. What crosses the
//! wire is [`emit_shares`]'s count: one entry per (source, remote peer).

use cdrw_graph::{SubCsr, VertexId};

use crate::batch::{gather_row, SharePlane, StepDirection, PULL_VOLUME_FRACTION};
use crate::engine::{accumulate, WalkWorkspace};

/// One source's walk-step share: the mass `p(u)·(1−α)/w(u)` owned vertex
/// `source` sends along each of its edges (times the edge weight on a
/// weighted graph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Share {
    /// Global vertex sending the share (the ordering key of the receivers'
    /// merge).
    pub source: VertexId,
    /// The per-edge share.
    pub share: f64,
}

/// Emits the shares of one walk step from this shard's owned support.
///
/// `workspace` holds the shard-local restriction of the walk: its support
/// must contain only vertices owned by `sub`, ascending (as maintained by
/// [`ShareReceiver::absorb`] and [`WalkWorkspace::load_point_mass`]). For
/// every source with `p > 0` and `d > 0`, in ascending order, `emit`
/// receives the share and the remote peers homing one of its neighbours
/// ([`SubCsr::peers`], possibly none): the caller appends the share to its
/// own run and to each peer's run, so every run is ascending by source.
///
/// Returns the number of entries addressed to remote peers — the round's
/// wire traffic from this shard.
///
/// # Panics
///
/// Panics (debug only) if a support vertex is not owned by `sub`.
pub fn emit_shares(
    sub: &SubCsr,
    laziness: f64,
    workspace: &WalkWorkspace,
    mut emit: impl FnMut(Share, &[usize]),
) -> u64 {
    let move_fraction = 1.0 - laziness;
    let mass = workspace.as_slice();
    let owned = sub.owned();
    let mut wire = 0u64;
    // Both lists ascend, so each owned index is searched for past the last.
    let mut i = 0;
    for &u in workspace.support() {
        let p = mass[u];
        if p == 0.0 {
            // Mirrors the sequential skip: an underflowed vertex neither
            // sends nor counts.
            continue;
        }
        i += owned[i..].partition_point(|&v| v < u);
        debug_assert_eq!(
            owned.get(i),
            Some(&u),
            "shard workspace support must be owned by the shard"
        );
        if sub.degree(i) == 0 {
            continue;
        }
        let peers = sub.peers(i);
        wire += peers.len() as u64;
        emit(
            Share {
                source: u,
                share: p * move_fraction / sub.weighted_degree(i),
            },
            peers,
        );
    }
    wire
}

/// Visits the elements of several runs in one ascending pass by `key`.
///
/// Every run must be ascending by `key` (repeats allowed within a run), and
/// different runs must not share a key. The visit order is then the unique
/// ascending order of the keys, with each key's elements in their run order —
/// a k-way merge, linear in the elements for the small `k` of a shard mesh.
/// Empty runs are allowed and the order of `runs` does not matter.
///
/// # Panics
///
/// Panics (debug only) if two runs share a key.
pub fn merge_runs<T>(runs: &[&[T]], key: impl Fn(&T) -> usize, mut visit: impl FnMut(&T)) {
    let mut heads: Vec<&[T]> = runs.iter().copied().filter(|run| !run.is_empty()).collect();
    while heads.len() > 1 {
        // The run with the smallest head drains up to the smallest head key
        // of the others.
        let (mut lo, mut lo_key, mut bound) = (0, key(&heads[0][0]), usize::MAX);
        for (i, run) in heads.iter().enumerate().skip(1) {
            let head = key(&run[0]);
            if head < lo_key {
                (lo, lo_key, bound) = (i, head, lo_key);
            } else if head < bound {
                bound = head;
            }
        }
        debug_assert!(lo_key < bound, "runs must not share a key");
        let run = heads[lo];
        let mut taken = 0;
        while taken < run.len() && key(&run[taken]) <= bound {
            visit(&run[taken]);
            taken += 1;
        }
        if taken == run.len() {
            heads.swap_remove(lo);
        } else {
            heads[lo] = &run[taken..];
        }
    }
    if let Some(run) = heads.pop() {
        run.iter().for_each(visit);
    }
}

/// The receive side of one shard: the reverse index its pushes scatter
/// through and the share plane its pulls gather from.
///
/// Built once per shard from its own rows ([`ShareReceiver::new`]) and
/// reused for every lane and round.
#[derive(Debug, Clone)]
pub struct ShareReceiver {
    /// Offsets into `targets`, indexed by global source vertex; length
    /// `n + 1`.
    offsets: Vec<usize>,
    /// Per source, its owned neighbours, ascending.
    targets: Vec<VertexId>,
    /// Edge weights parallel to `targets`, present iff the graph is
    /// weighted.
    weights: Option<Vec<f64>>,
    /// Pull scratch: the round's shares by source. Empty until the first
    /// pull; all zero between rounds.
    plane: Vec<f64>,
    /// Pull scratch: `1` for every source with mass this round. Empty until
    /// the first pull; all zero between rounds.
    present: Vec<u8>,
}

impl ShareReceiver {
    /// Builds the reverse index of `sub`'s rows: a counting pass over the
    /// owned rows, then one scatter in ascending owned order, which leaves
    /// every source's owned neighbours ascending.
    pub fn new(sub: &SubCsr) -> Self {
        let n = sub.num_global_vertices();
        let mut offsets = vec![0usize; n + 1];
        for i in 0..sub.num_owned() {
            for &u in sub.neighbor_slice(i) {
                offsets[u + 1] += 1;
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let volume = sub.stored_endpoints();
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; volume];
        let mut weights = sub.is_weighted().then(|| vec![0.0f64; volume]);
        for i in 0..sub.num_owned() {
            let v = sub.global(i);
            let row_weights = sub.weight_slice(i);
            for (slot, &u) in sub.neighbor_slice(i).iter().enumerate() {
                let at = cursor[u];
                cursor[u] += 1;
                targets[at] = v;
                if let (Some(lane), Some(row)) = (&mut weights, row_weights) {
                    lane[at] = row[slot];
                }
            }
        }
        ShareReceiver {
            offsets,
            targets,
            weights,
            plane: Vec::new(),
            present: Vec::new(),
        }
    }

    /// Absorbs one round into the shard's workspace, completing the walk
    /// step for the owned vertices.
    ///
    /// `own` is the run [`emit_shares`] produced from this same workspace
    /// (every emitted share, whatever its peers) and `remote` holds one run
    /// per peer, in any arrival order; together they must be exactly the
    /// round's shares addressed to this shard. The workspace's
    /// support/mask/buffers are cycled exactly as [`crate::WalkEngine::step`]
    /// cycles them, so after every shard absorbs, the shard-local
    /// distributions concatenate to the sequential step's result bit for bit.
    ///
    /// Returns the edge contributions applied — this shard's share of the
    /// CONGEST per-step message cost.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if a run is not ascending by source, or two runs
    /// share a source.
    pub fn absorb(
        &mut self,
        sub: &SubCsr,
        laziness: f64,
        workspace: &mut WalkWorkspace,
        own: &[Share],
        remote: &[&[Share]],
    ) -> u64 {
        self.absorb_in(sub, laziness, workspace, own, remote, None)
    }

    /// [`ShareReceiver::absorb`] in the given direction, or in the one the
    /// absorbed volume picks when `forced` is `None`; both give the same
    /// bits.
    pub(crate) fn absorb_in(
        &mut self,
        sub: &SubCsr,
        laziness: f64,
        workspace: &mut WalkWorkspace,
        own: &[Share],
        remote: &[&[Share]],
        forced: Option<StepDirection>,
    ) -> u64 {
        let mut runs: Vec<&[Share]> = Vec::with_capacity(remote.len() + 1);
        runs.push(own);
        runs.extend_from_slice(remote);
        debug_assert!(
            runs.iter()
                .all(|run| run.windows(2).all(|w| w[0].source < w[1].source)),
            "each run must be ascending by source"
        );
        let volume: usize = runs
            .iter()
            .flat_map(|run| run.iter())
            .map(|s| self.offsets[s.source + 1] - self.offsets[s.source])
            .sum();
        let direction = forced.unwrap_or(
            if volume > 0 && volume * PULL_VOLUME_FRACTION >= sub.stored_endpoints() {
                StepDirection::Pull
            } else {
                StepDirection::Push
            },
        );

        let ws = workspace;
        ws.begin_step();
        let support = std::mem::take(&mut ws.support);
        match direction {
            StepDirection::Push => {
                // A degree-0 vertex receives nothing but its own mass, so its
                // keep may go first. It is the support vertex with mass that
                // `own` (ascending, like the support) skipped.
                let mut next_own = own.iter().map(|s| s.source).peekable();
                for &u in &support {
                    let p = ws.current[u];
                    if p == 0.0 {
                        continue;
                    }
                    if next_own.next_if_eq(&u).is_none() {
                        accumulate(ws, u, p);
                    }
                }
                self.push(laziness, ws, &runs);
            }
            StepDirection::Pull => self.pull(sub, laziness, ws, &support, &runs),
        }
        ws.support = support;
        ws.end_step(direction);
        volume as u64
    }

    /// Scatters the merged runs through the reverse index, each owned
    /// source's lazy self-term at its own position.
    fn push(&self, laziness: f64, ws: &mut WalkWorkspace, runs: &[&[Share]]) {
        merge_runs(
            runs,
            |s| s.source,
            |s| {
                let u = s.source;
                // Only owned sources carry mass in this workspace.
                let p = ws.current[u];
                if p != 0.0 && laziness > 0.0 {
                    accumulate(ws, u, p * laziness);
                }
                let range = self.offsets[u]..self.offsets[u + 1];
                match &self.weights {
                    None => {
                        for &v in &self.targets[range] {
                            accumulate(ws, v, s.share);
                        }
                    }
                    Some(weights) => {
                        for (&v, &w) in self.targets[range.clone()].iter().zip(&weights[range]) {
                            accumulate(ws, v, s.share * w);
                        }
                    }
                }
            },
        );
    }

    /// Publishes the runs into the share plane, then gathers every owned
    /// row from it in ascending order.
    fn pull(
        &mut self,
        sub: &SubCsr,
        laziness: f64,
        ws: &mut WalkWorkspace,
        support: &[VertexId],
        runs: &[&[Share]],
    ) {
        let n = sub.num_global_vertices();
        // Allocated on the first pull; all zero between pulls.
        self.plane.resize(n, 0.0);
        self.present.resize(n, 0);
        for s in runs.iter().flat_map(|run| run.iter()) {
            self.plane[s.source] = s.share;
            self.present[s.source] = 1;
        }
        // Owned sources with mass, degree-0 ones included: the self-term
        // (or the kept mass) of the gather.
        for &u in support {
            if ws.current[u] != 0.0 {
                self.present[u] = 1;
            }
        }
        {
            let plane = SharePlane {
                shares: self.plane.as_chunks::<1>().0,
                lane_bits: &self.present,
            };
            let WalkWorkspace {
                current,
                next,
                mask,
                next_support,
                ..
            } = ws;
            for i in 0..sub.num_owned() {
                let v = sub.global(i);
                let mut acc = [0.0f64];
                let touched = gather_row(
                    &mut acc,
                    v,
                    sub.neighbor_slice(i),
                    sub.weight_slice(i),
                    laziness,
                    |_| current[v],
                    plane,
                );
                if touched != 0 {
                    next[v] = acc[0];
                    mask.insert(v);
                    next_support.push(v);
                }
            }
        }
        for s in runs.iter().flat_map(|run| run.iter()) {
            self.plane[s.source] = 0.0;
            self.present[s.source] = 0;
        }
        for &u in support {
            self.present[u] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalkEngine;
    use cdrw_graph::{Graph, GraphBuilder};
    use proptest::prelude::*;

    /// The order in which receiver `receiver` takes its `k` senders' runs in
    /// round `round`: a Fisher–Yates shuffle keyed by `(arrival, round,
    /// receiver)`, so every arrival seed exercises a different interleaving.
    fn arrival_order(arrival: u64, round: usize, receiver: usize, k: usize) -> Vec<usize> {
        let mut state = arrival ^ ((round as u64) << 32) ^ receiver as u64;
        let mut order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        order
    }

    fn subs_of(graph: &Graph, assignment: &[usize], k: usize) -> Vec<SubCsr> {
        let n = graph.num_vertices();
        (0..k)
            .map(|m| {
                let owned: Vec<usize> = (0..n).filter(|&v| assignment[v] == m).collect();
                SubCsr::extract(graph, &owned, |v| assignment[v])
            })
            .collect()
    }

    /// One shard-local slice per shard: the entries of `state` it owns.
    fn split_state(
        state: &[(VertexId, f64)],
        assignment: &[usize],
        k: usize,
    ) -> Vec<WalkWorkspace> {
        (0..k)
            .map(|m| {
                let owned: Vec<_> = state
                    .iter()
                    .copied()
                    .filter(|&(v, _)| assignment[v] == m)
                    .collect();
                let mut ws = WalkWorkspace::with_len(assignment.len());
                ws.load_sparse(&owned).unwrap();
                ws
            })
            .collect()
    }

    /// Asserts that the shard slices concatenate to `reference`: the same
    /// support, bit-identical masses.
    fn assert_gathers_to(shards: &[WalkWorkspace], reference: &WalkWorkspace, kernel: &str) {
        let mut gathered: Vec<(usize, f64)> = shards
            .iter()
            .flat_map(|ws| ws.support().iter().map(|&v| (v, ws.probability(v))))
            .collect();
        gathered.sort_unstable_by_key(|&(v, _)| v);
        let expected: Vec<(usize, f64)> = reference
            .support()
            .iter()
            .map(|&v| (v, reference.probability(v)))
            .collect();
        assert_eq!(gathered.len(), expected.len(), "{kernel}: support size");
        for (&(gv, gp), &(ev, ep)) in gathered.iter().zip(&expected) {
            assert_eq!(gv, ev, "{kernel}: support vertex");
            assert_eq!(gp.to_bits(), ep.to_bits(), "{kernel}: mass at vertex {gv}");
        }
    }

    /// Steps `steps` rounds of the sharded protocol over `assignment` from a
    /// point mass on the highest-degree vertex; see
    /// [`check_sharded_equivalence_from`].
    fn check_sharded_equivalence(
        graph: &Graph,
        assignment: &[usize],
        laziness: f64,
        steps: usize,
        arrival: u64,
    ) {
        let seed = graph
            .vertices()
            .max_by_key(|&v| graph.degree(v))
            .expect("non-empty graph");
        check_sharded_equivalence_from(graph, assignment, laziness, steps, arrival, &[(seed, 1.0)]);
    }

    /// Steps `steps` rounds of the sharded protocol over `assignment` from
    /// the sparse state `start` and checks every round against the
    /// sequential engine. Each receiver absorbs its own run and one run per
    /// peer (empty runs included, as on the wire) in the order
    /// [`arrival_order`] deals for `arrival`, and absorbs every round twice:
    /// once with the push forced and once with the pull forced. Both must
    /// gather to the sequential state bit for bit, and each must apply
    /// `Σ d(u)` edge contributions over the pre-step sources with mass. The
    /// wire count must be one entry per (source, remote peer).
    fn check_sharded_equivalence_from(
        graph: &Graph,
        assignment: &[usize],
        laziness: f64,
        steps: usize,
        arrival: u64,
        start: &[(VertexId, f64)],
    ) {
        let k = assignment.iter().copied().max().unwrap_or(0) + 1;
        let subs = subs_of(graph, assignment, k);
        let mut receivers: Vec<ShareReceiver> = subs.iter().map(ShareReceiver::new).collect();

        let engine = WalkEngine::lazy(graph, laziness);
        let mut reference = engine.workspace();
        reference.load_sparse(start).unwrap();
        let mut shards = split_state(start, assignment, k);

        for round in 0..steps {
            // The modelled cost and the wire count read the pre-step global
            // support.
            let sources: Vec<VertexId> = reference
                .support()
                .iter()
                .copied()
                .filter(|&u| reference.probability(u) > 0.0)
                .collect();
            let expected_messages: u64 = sources.iter().map(|&u| graph.degree(u) as u64).sum();
            let expected_wire: u64 = sources
                .iter()
                .map(|&u| {
                    let mut homes: Vec<usize> = graph
                        .neighbor_slice(u)
                        .iter()
                        .map(|&v| assignment[v])
                        .filter(|&m| m != assignment[u])
                        .collect();
                    homes.sort_unstable();
                    homes.dedup();
                    homes.len() as u64
                })
                .sum();
            engine.step(&mut reference);

            // Emit on every shard: `own[m]` is shard m's own run and
            // `inboxes[receiver][sender]` one per-peer run.
            let mut own: Vec<Vec<Share>> = vec![Vec::new(); k];
            let mut inboxes: Vec<Vec<Vec<Share>>> = vec![vec![Vec::new(); k]; k];
            let mut wire = 0u64;
            for (m, ws) in shards.iter().enumerate() {
                wire += emit_shares(&subs[m], laziness, ws, |share, peers| {
                    own[m].push(share);
                    for &peer in peers {
                        inboxes[peer][m].push(share);
                    }
                });
            }
            assert_eq!(wire, expected_wire, "per-round wire entries");

            let mut by_kernel = Vec::new();
            for direction in [StepDirection::Push, StepDirection::Pull] {
                let mut stepped = shards.clone();
                let mut measured = 0u64;
                for (receiver, ws) in stepped.iter_mut().enumerate() {
                    let remote: Vec<&[Share]> = arrival_order(arrival, round, receiver, k)
                        .into_iter()
                        .filter(|&sender| sender != receiver)
                        .map(|sender| inboxes[receiver][sender].as_slice())
                        .collect();
                    measured += receivers[receiver].absorb_in(
                        &subs[receiver],
                        laziness,
                        ws,
                        &own[receiver],
                        &remote,
                        Some(direction),
                    );
                }
                let kernel = format!("{direction:?}");
                assert_eq!(
                    measured, expected_messages,
                    "{kernel}: per-round message count"
                );
                assert_gathers_to(&stepped, &reference, &kernel);
                by_kernel.push(stepped);
            }
            shards = by_kernel.swap_remove(round % 2);
        }
    }

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn two_shards_on_a_path_match_the_sequential_step() {
        let g = path(8);
        let assignment = [0usize, 1, 0, 1, 0, 1, 0, 1];
        for arrival in 0..4 {
            check_sharded_equivalence(&g, &assignment, 0.0, 6, arrival);
        }
    }

    #[test]
    fn lazy_walk_self_share_orders_before_edge_shares() {
        // Every owned source's self-term lands at its own position in the
        // merged source order, whichever sender's run arrives first.
        let g = path(6);
        let assignment = [0usize, 0, 1, 1, 2, 2];
        for arrival in 0..6 {
            check_sharded_equivalence(&g, &assignment, 0.4, 5, arrival);
        }
    }

    #[test]
    fn single_shard_degenerates_to_the_sequential_step() {
        let g = path(5);
        check_sharded_equivalence(&g, &[0, 0, 0, 0, 0], 0.0, 4, 0);
        check_sharded_equivalence(&g, &[0, 0, 0, 0, 0], 0.4, 4, 0);
    }

    #[test]
    fn weighted_shards_match_the_sequential_step_with_structural_messages() {
        let mut b = GraphBuilder::new(7);
        for (u, v, w) in [
            (0usize, 1usize, 2.0),
            (1, 2, 0.5),
            (2, 3, 1.25),
            (3, 4, 3.0),
            (4, 5, 0.75),
            (5, 6, 2.5),
            (6, 0, 1.0),
            (1, 5, 4.0),
        ] {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        let g = b.build();
        let assignment = [0usize, 1, 2, 0, 1, 2, 0];
        for arrival in 0..4 {
            check_sharded_equivalence(&g, &assignment, 0.0, 6, arrival);
            check_sharded_equivalence(&g, &assignment, 0.4, 5, arrival);
        }
    }

    #[test]
    fn an_underflowing_share_still_brings_its_neighbours_into_the_support() {
        // Vertex 1 holds the smallest subnormal: its share (halved by its
        // degree) rounds to +0.0, yet vertices 0 and 2 must still join the
        // support, with mass 0.0, as they do sequentially.
        let g = path(6);
        let start = [(1usize, 5e-324), (4, 0.5)];
        let engine = WalkEngine::new(&g);
        let mut ws = engine.workspace();
        ws.load_sparse(&start).unwrap();
        engine.step(&mut ws);
        assert_eq!(ws.support(), &[0, 2, 3, 5]);
        assert_eq!(ws.probability(0).to_bits(), 0.0f64.to_bits());
        for assignment in [[0usize, 1, 0, 1, 0, 1], [1, 0, 2, 2, 1, 0]] {
            for laziness in [0.0, 0.4] {
                for arrival in 0..3 {
                    check_sharded_equivalence_from(&g, &assignment, laziness, 3, arrival, &start);
                }
            }
        }
    }

    #[test]
    fn an_isolated_owned_vertex_keeps_its_mass() {
        // Vertex 3 is isolated: its mass stays put next to a walk elsewhere,
        // whether it shares a shard with that walk or is homed alone.
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let start = [(1usize, 0.25), (3, 0.75)];
        for assignment in [[0usize, 1, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]] {
            for laziness in [0.0, 0.4] {
                check_sharded_equivalence_from(&g, &assignment, laziness, 4, 0, &start);
            }
        }
    }

    #[test]
    fn empty_runs_from_idle_senders_change_nothing() {
        // A point mass on the centre of a star homed alone on shard 0: in the
        // first round only shard 0 emits, so every other run is empty
        // wherever it lands.
        let g = GraphBuilder::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let assignment = [0usize, 1, 1, 1, 1];
        let subs = subs_of(&g, &assignment, 2);
        let mut centre = WalkWorkspace::with_len(5);
        centre.load_point_mass(0).unwrap();
        let (mut own, mut out) = (Vec::new(), Vec::new());
        let wire = emit_shares(&subs[0], 0.0, &centre, |share, peers| {
            own.push(share);
            assert_eq!(peers, &[1]);
            out.push(share);
        });
        assert_eq!(wire, 1);
        assert_eq!(
            out,
            vec![Share {
                source: 0,
                share: 0.25
            }]
        );

        let mut receiver = ShareReceiver::new(&subs[1]);
        let mut alone = WalkWorkspace::with_len(5);
        alone.load_sparse(&[]).unwrap();
        assert_eq!(receiver.absorb(&subs[1], 0.0, &mut alone, &[], &[&out]), 4);
        let mut padded = WalkWorkspace::with_len(5);
        padded.load_sparse(&[]).unwrap();
        assert_eq!(
            receiver.absorb(&subs[1], 0.0, &mut padded, &[], &[&[], &out, &[]]),
            4
        );
        assert_eq!(padded.support(), alone.support());
        for &v in alone.support() {
            assert_eq!(
                padded.probability(v).to_bits(),
                alone.probability(v).to_bits()
            );
        }
        assert_eq!(alone.support(), &[1, 2, 3, 4]);

        // No mass anywhere and every run empty: the slice stays empty.
        let mut idle = WalkWorkspace::with_len(5);
        idle.load_sparse(&[]).unwrap();
        assert_eq!(
            receiver.absorb(&subs[1], 0.0, &mut idle, &[], &[&[], &[]]),
            0
        );
        assert!(idle.support().is_empty());
    }

    #[test]
    fn merge_runs_visits_keys_ascending_and_keeps_run_order_within_a_key() {
        let a = [(1usize, 'a'), (1, 'b'), (4, 'c'), (9, 'd')];
        let b = [(2usize, 'e'), (3, 'f'), (3, 'g')];
        let c = [(0usize, 'h'), (10, 'i')];
        let mut seen = Vec::new();
        merge_runs(&[&b, &[], &a, &c], |x| x.0, |x| seen.push(x.1));
        assert_eq!(seen, ['h', 'a', 'b', 'e', 'f', 'g', 'c', 'd', 'i']);
        seen.clear();
        merge_runs::<(usize, char)>(&[], |x| x.0, |x| seen.push(x.1));
        assert!(seen.is_empty());
    }

    #[test]
    fn isolates_keep_their_mass_locally() {
        // Vertex 3 is isolated; a walk seeded there stays put and ships
        // nothing.
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let sub = SubCsr::extract(&g, &[3], |v| usize::from(v != 3));
        let mut ws = WalkWorkspace::with_len(4);
        ws.load_point_mass(3).unwrap();
        let mut own = Vec::new();
        let wire = emit_shares(&sub, 0.0, &ws, |share, _| own.push(share));
        assert_eq!(wire, 0);
        assert!(own.is_empty());
        let messages = ShareReceiver::new(&sub).absorb(&sub, 0.0, &mut ws, &own, &[]);
        assert_eq!(messages, 0);
        assert_eq!(ws.support(), &[3]);
        assert_eq!(ws.probability(3), 1.0);
    }

    proptest! {
        /// The sharded step protocol is bit-identical to the sequential
        /// engine over arbitrary graphs, arbitrary shard assignments, both
        /// walk variants, multiple steps, and several shuffled per-round
        /// arrival orders of the senders' runs.
        #[test]
        fn sharded_steps_match_sequential_on_arbitrary_graphs(
            edges in proptest::collection::vec((0usize..14, 0usize..14), 1..60),
            assignment in proptest::collection::vec(0usize..4, 14),
            lazy in 0usize..2,
            steps in 1usize..6,
        ) {
            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = GraphBuilder::from_edges(14, clean).unwrap();
            let laziness = if lazy == 1 { 0.5 } else { 0.0 };
            for arrival in 0..4 {
                check_sharded_equivalence(&graph, &assignment, laziness, steps, arrival);
            }
        }
    }
}
