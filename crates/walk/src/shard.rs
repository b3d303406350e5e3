//! Shard-local walk stepping: the distributed half of [`crate::WalkEngine::step`].
//!
//! A k-machine shard owns a subset of the vertices ([`cdrw_graph::SubCsr`])
//! and holds, in an ordinary [`WalkWorkspace`], the restriction of a walk's
//! distribution to its owned vertices. One global walk step then splits into
//! two shard-local halves with a message exchange in between:
//!
//! 1. [`emit_step_deltas`] — every shard scans its owned support in ascending
//!    order and *emits* the same mass contributions the sequential step would
//!    accumulate: the zero-degree self-keep, the lazy self-share, and one
//!    `p·(1−α)/d(u)` share per incident edge (`p·(1−α)·w(u,v)/w(u)` when the
//!    graph carries a weight lane). Each contribution is a [`MassDelta`]
//!    addressed to the (possibly remote) target vertex.
//! 2. [`absorb_step_deltas`] — every shard receives one *run* of deltas per
//!    sender (itself included), each run holding the sender's contributions
//!    to the receiver's owned vertices, and merges the runs by source
//!    straight into the accumulation with the exact first-touch / add
//!    discipline of the sequential kernel.
//!
//! ## Why the result is bit-identical
//!
//! The sequential [`crate::WalkEngine::step`] iterates the sorted support in
//! ascending vertex order, so the additions into `next[v]` happen in
//! ascending *source* order for every target `v` (the self-contribution of
//! `v` occurring at source position `v` itself, before `v`'s edge shares).
//! Each sender emits its owned sources in ascending order — self-share
//! first, then edge shares — and bucketing by the target's home shard keeps
//! that order, so every received run is ascending by source. Shard supports
//! partition the global support, so the sources of different runs are
//! disjoint. A k-way merge of the runs by source therefore replays the
//! sequential loop restricted to the receiver's targets: every target sees
//! the same f64 additions in the same order, and the first touch — the
//! contribution that initialises `next[v]` — is the sequential one. The
//! arrival order of the runs does not matter. The graph is simple, so a
//! target receives at most one delta per source and no tie-breaking is
//! needed. No sort is involved: the merge is linear in the deltas. The
//! property tests in this module pin this against [`crate::WalkEngine::step`]
//! over arbitrary graphs, arbitrary partitions and arbitrary run arrival
//! orders.
//!
//! Message accounting: an edge contribution is one CONGEST message whether or
//! not the endpoints share a shard (the model charges every vertex-to-vertex
//! send), and edge *weights* never change the count — a weighted share is
//! still one message; the self-contributions are local state updates and
//! free. The count
//! [`emit_step_deltas`] returns is therefore exactly the per-step cost
//! `Σ_{u ∈ support, p(u) > 0} d(u)` of
//! `cdrw_congest::primitives::sparse_walk_step_cost` — the conformance
//! identity `cdrw-kmachine` asserts per round.

use cdrw_graph::{SubCsr, VertexId};

use crate::engine::{accumulate, WalkWorkspace};

/// One probability-mass contribution of a walk step, addressed to `target`
/// and attributed to the owned vertex `source` that emitted it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MassDelta {
    /// Global vertex receiving the mass.
    pub target: VertexId,
    /// Global vertex that emitted the mass (ordering key for bit-identical
    /// accumulation).
    pub source: VertexId,
    /// The contributed mass.
    pub mass: f64,
}

/// Emits the contributions of one walk step from this shard's owned support.
///
/// `workspace` holds the shard-local restriction of the walk: its support
/// must contain only vertices owned by `sub` (ascending, as maintained by
/// [`absorb_step_deltas`] and [`WalkWorkspace::load_point_mass`]). Each delta
/// is handed to `emit` in emission order — ascending source, self-contribution
/// before edge shares — so a caller routing them straight into per-shard
/// buckets gets runs ascending by source.
///
/// Returns the number of *edge* contributions emitted (self-keeps and lazy
/// shares are local and free): the shard's share of the CONGEST per-step
/// message cost.
///
/// # Panics
///
/// Panics (debug only) if a support vertex is not owned by `sub`.
pub fn emit_step_deltas(
    sub: &SubCsr,
    laziness: f64,
    workspace: &WalkWorkspace,
    mut emit: impl FnMut(MassDelta),
) -> u64 {
    let move_fraction = 1.0 - laziness;
    let mass = workspace.as_slice();
    let mut messages = 0u64;
    for &u in workspace.support() {
        let p = mass[u];
        if p == 0.0 {
            // Mirrors the sequential skip: an underflowed vertex neither
            // sends nor counts.
            continue;
        }
        let i = sub
            .local_of(u)
            .expect("shard workspace support must be owned by the shard");
        let degree = sub.degree(i);
        if degree == 0 {
            emit(MassDelta {
                target: u,
                source: u,
                mass: p,
            });
            continue;
        }
        if laziness > 0.0 {
            emit(MassDelta {
                target: u,
                source: u,
                mass: p * laziness,
            });
        }
        let share = p * move_fraction / sub.weighted_degree(i);
        match sub.weight_slice(i) {
            None => {
                for &v in sub.neighbor_slice(i) {
                    emit(MassDelta {
                        target: v,
                        source: u,
                        mass: share,
                    });
                }
            }
            Some(row_weights) => {
                for (&v, &w) in sub.neighbor_slice(i).iter().zip(row_weights) {
                    emit(MassDelta {
                        target: v,
                        source: u,
                        mass: share * w,
                    });
                }
            }
        }
        // One CONGEST message per edge traversal regardless of weight: the
        // cost model stays structural.
        messages += degree as u64;
    }
    messages
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

/// Absorbs one round of received deltas into the shard's workspace,
/// completing the walk step for the owned vertices.
///
/// `runs` holds one run per sender — the deltas it addressed to vertices
/// owned by this shard, in its emission order — in any arrival order;
/// together they must be exactly the round's contributions to this shard.
/// The runs are merged by source ([`merge_runs`]) straight into the
/// accumulation, which replays the sequential kernel: first touch
/// initialises, later touches add, and the workspace's support/mask/buffers
/// are cycled exactly as [`crate::WalkEngine::step`] cycles them — so after
/// every shard absorbs, the shard-local distributions concatenate to the
/// sequential step's result bit for bit.
///
/// # Panics
///
/// Panics (debug only) if a run is not ascending by source, or two runs
/// share a source.
pub fn absorb_step_deltas(workspace: &mut WalkWorkspace, runs: &[&[MassDelta]]) {
    let ws = workspace;
    ws.next_support.clear();
    let support = std::mem::take(&mut ws.support);
    for &u in &support {
        ws.mask.remove(u);
    }
    debug_assert!(
        runs.iter()
            .all(|run| run.windows(2).all(|w| w[0].source <= w[1].source)),
        "each run must be ascending by source"
    );
    merge_runs(runs, |d| d.source, |d| accumulate(ws, d.target, d.mass));
    for &u in &support {
        ws.current[u] = 0.0;
    }
    std::mem::swap(&mut ws.current, &mut ws.next);
    ws.support = std::mem::take(&mut ws.next_support);
    ws.support.sort_unstable();
    ws.next_support = support;
    ws.next_support.clear();
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

    /// Steps `steps` rounds of the sharded protocol over `assignment` and
    /// checks every round's gathered state and message count against the
    /// sequential engine. Each receiver absorbs one run per sender (empty
    /// runs included, as on the wire) in the order [`arrival_order`] deals
    /// for `arrival`.
    fn check_sharded_equivalence(
        graph: &Graph,
        assignment: &[usize],
        laziness: f64,
        steps: usize,
        arrival: u64,
    ) {
        let n = graph.num_vertices();
        let k = assignment.iter().copied().max().unwrap_or(0) + 1;
        let subs: Vec<SubCsr> = (0..k)
            .map(|m| {
                let owned: Vec<usize> = (0..n).filter(|&v| assignment[v] == m).collect();
                SubCsr::extract(graph, &owned, |v| assignment[v] == m)
            })
            .collect();

        let engine = WalkEngine::lazy(graph, laziness);
        let mut reference = engine.workspace();
        let seed = graph
            .vertices()
            .max_by_key(|&v| graph.degree(v))
            .expect("non-empty graph");
        reference.load_point_mass(seed).unwrap();

        let mut shards: Vec<WalkWorkspace> = (0..k).map(|_| WalkWorkspace::with_len(n)).collect();
        shards[assignment[seed]].load_point_mass(seed).unwrap();

        for round in 0..steps {
            // The modelled cost reads the pre-step global support.
            let expected_messages: u64 = reference
                .support()
                .iter()
                .filter(|&&u| reference.probability(u) > 0.0)
                .map(|&u| graph.degree(u) as u64)
                .sum();
            engine.step(&mut reference);

            // Emit on every shard, bucket by the target's home shard:
            // `inboxes[receiver][sender]` is one per-sender run.
            let mut inboxes: Vec<Vec<Vec<MassDelta>>> = vec![vec![Vec::new(); k]; k];
            let mut measured = 0u64;
            for (m, ws) in shards.iter().enumerate() {
                measured += emit_step_deltas(&subs[m], laziness, ws, |d| {
                    inboxes[assignment[d.target]][m].push(d)
                });
            }
            assert_eq!(measured, expected_messages, "per-round message count");
            for (receiver, (ws, inbox)) in shards.iter_mut().zip(&inboxes).enumerate() {
                let runs: Vec<&[MassDelta]> = arrival_order(arrival, round, receiver, k)
                    .into_iter()
                    .map(|sender| inbox[sender].as_slice())
                    .collect();
                absorb_step_deltas(ws, &runs);
            }

            // Gather: concatenated shard supports must equal the sequential
            // support, with bit-identical masses.
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
            assert_eq!(gathered.len(), expected.len(), "support size");
            for (&(gv, gp), &(ev, ep)) in gathered.iter().zip(&expected) {
                assert_eq!(gv, ev, "support vertex");
                assert_eq!(gp.to_bits(), ep.to_bits(), "mass at vertex {gv}");
            }
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
        // Every source's self-share precedes its edge shares in its run; the
        // merge must keep that order whichever sender's run arrives first.
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
    fn empty_runs_from_idle_senders_change_nothing() {
        // A point mass on vertex 0 of a star: in the first round only shard
        // 0 emits, so the other senders' runs are empty wherever they land.
        let g = GraphBuilder::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let sub = SubCsr::extract(&g, &[0], |v| v == 0);
        let mut ws = WalkWorkspace::with_len(5);
        ws.load_point_mass(0).unwrap();
        let mut out = Vec::new();
        assert_eq!(emit_step_deltas(&sub, 0.0, &ws, |d| out.push(d)), 4);

        let mut alone = WalkWorkspace::with_len(5);
        alone.load_point_mass(0).unwrap();
        absorb_step_deltas(&mut alone, &[&out]);
        let mut padded = WalkWorkspace::with_len(5);
        padded.load_point_mass(0).unwrap();
        absorb_step_deltas(&mut padded, &[&[], &out, &[]]);
        assert_eq!(padded.support(), alone.support());
        for &v in alone.support() {
            assert_eq!(
                padded.probability(v).to_bits(),
                alone.probability(v).to_bits()
            );
        }
        assert_eq!(alone.support(), &[1, 2, 3, 4]);

        // All runs empty: the owned restriction of the walk is empty.
        absorb_step_deltas(&mut padded, &[&[], &[]]);
        assert!(padded.support().is_empty());
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
        // Vertex 3 is isolated; a walk seeded there stays put and emits no
        // messages.
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let sub = SubCsr::extract(&g, &[3], |v| v == 3);
        let mut ws = WalkWorkspace::with_len(4);
        ws.load_point_mass(3).unwrap();
        let mut out = Vec::new();
        let messages = emit_step_deltas(&sub, 0.0, &ws, |d| out.push(d));
        assert_eq!(messages, 0);
        assert_eq!(
            out,
            vec![MassDelta {
                target: 3,
                source: 3,
                mass: 1.0
            }]
        );
        absorb_step_deltas(&mut ws, &[&out]);
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
