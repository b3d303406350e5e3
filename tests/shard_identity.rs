//! The sharded walk step against the sequential one, through the public API.
//!
//! Every shard extracts its rows (`SubCsr::extract`), emits one share per
//! owned source with mass (`emit_shares`), and expands its own run plus one
//! run per peer, taken in a shuffled arrival order, over its rows
//! (`ShareReceiver::absorb`). Each round the shard slices must gather to
//! `WalkEngine::step`'s state bit for bit, the receivers must apply `Σ d(u)`
//! edge contributions over the pre-step sources with mass, and the wire must
//! carry one entry per (source, remote peer). The inputs follow the ranges
//! of `cdrw-walk`'s own property test, plus a weight lane, drawn for a fixed
//! number of cases.

use cdrw_repro::graph::SubCsr;
use cdrw_repro::prelude::*;
use cdrw_repro::walk::shard::{emit_shares, Share, ShareReceiver};
use cdrw_repro::walk::{WalkEngine, WalkWorkspace};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const CASES: usize = 256;
const N: usize = 14;

/// The draw stream every case reads, and the absorbs the receivers ran in
/// each kernel over all cases.
struct Sweep {
    rng: TestRng,
    push: usize,
    pull: usize,
}

impl Sweep {
    /// A Fisher–Yates shuffle of `0..k`.
    fn shuffled(&mut self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            order.swap(i, (self.rng.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// The support of one or more workspaces with each mass's bit pattern,
/// sorted by vertex.
fn gathered<'a>(slices: impl IntoIterator<Item = &'a WalkWorkspace>) -> Vec<(VertexId, u64)> {
    let mut entries: Vec<(VertexId, u64)> = slices
        .into_iter()
        .flat_map(|ws| {
            ws.support()
                .iter()
                .map(move |&v| (v, ws.probability(v).to_bits()))
        })
        .collect();
    entries.sort_unstable_by_key(|&(v, _)| v);
    entries
}

/// Steps `steps` rounds of the sharded protocol from a point mass on `seed`
/// and checks every round against the sequential engine.
fn check_case(
    sweep: &mut Sweep,
    graph: &Graph,
    assignment: &[usize],
    laziness: f64,
    steps: usize,
    seed: VertexId,
    case: usize,
) {
    let k = assignment.iter().copied().max().unwrap_or(0) + 1;
    let subs: Vec<SubCsr> = (0..k)
        .map(|m| {
            let owned: Vec<VertexId> = (0..N).filter(|&v| assignment[v] == m).collect();
            SubCsr::extract(graph, &owned, |v| assignment[v])
        })
        .collect();
    let mut receivers: Vec<ShareReceiver> = subs.iter().map(ShareReceiver::new).collect();

    let engine = WalkEngine::lazy(graph, laziness);
    let mut reference = engine.workspace();
    reference.load_point_mass(seed).unwrap();
    let mut shards: Vec<WalkWorkspace> = (0..k)
        .map(|m| {
            let mut ws = WalkWorkspace::with_len(N);
            if assignment[seed] == m {
                ws.load_point_mass(seed).unwrap();
            } else {
                ws.load_sparse(&[]).unwrap();
            }
            ws
        })
        .collect();

    for round in 0..steps {
        // The message and wire counts read the pre-step global support.
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

        // `own[m]` is shard m's own run, `inboxes[receiver][sender]` a
        // per-peer run.
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
        assert_eq!(wire, expected_wire, "case {case}, round {round}: wire");

        let mut messages = 0u64;
        for (receiver, ws) in shards.iter_mut().enumerate() {
            let remote: Vec<&[Share]> = sweep
                .shuffled(k)
                .into_iter()
                .filter(|&sender| sender != receiver)
                .map(|sender| inboxes[receiver][sender].as_slice())
                .collect();
            let applied =
                receivers[receiver].absorb(&subs[receiver], laziness, ws, &own[receiver], &remote);
            // The receiver pulls iff its absorbed volume (the contributions
            // it applies) is non-zero and reaches a quarter of its stored
            // endpoints (`PULL_VOLUME_FRACTION` = 4 in `cdrw-walk`).
            let endpoints = subs[receiver].stored_endpoints() as u64;
            if applied > 0 && applied * 4 >= endpoints {
                sweep.pull += 1;
            } else {
                sweep.push += 1;
            }
            messages += applied;
        }
        assert_eq!(
            messages, expected_messages,
            "case {case}, round {round}: edge contributions"
        );
        assert_eq!(
            gathered(&shards),
            gathered([&reference]),
            "case {case}, round {round}: gathered state"
        );
    }
}

#[test]
fn sharded_steps_are_bit_identical_to_the_sequential_step() {
    let mut sweep = Sweep {
        rng: TestRng::for_test("shard_identity::sharded_steps"),
        push: 0,
        pull: 0,
    };
    let edges = proptest::collection::vec((0usize..N, 0usize..N, 1u32..16), 1..60);
    for case in 0..CASES {
        let rng = &mut sweep.rng;
        let edges = edges.generate(rng);
        let weighted = any::<bool>().generate(rng);
        let k = (1usize..5).generate(rng);
        let assignment = proptest::collection::vec(0usize..k, N).generate(rng);
        let laziness = if any::<bool>().generate(rng) {
            0.5
        } else {
            0.0
        };
        let steps = (1usize..9).generate(rng);
        let seed = (0usize..N).generate(rng);

        let mut builder = GraphBuilder::new(N);
        for &(u, v, w) in edges.iter().filter(|(u, v, _)| u != v) {
            if weighted {
                builder
                    .add_weighted_edge(u, v, f64::from(w) * 0.25)
                    .unwrap();
            } else {
                builder.add_edge(u, v).unwrap();
            }
        }
        let graph = builder.build();
        if graph.num_edges() == 0 {
            continue;
        }
        check_case(&mut sweep, &graph, &assignment, laziness, steps, seed, case);
    }
    assert!(
        sweep.push > 0 && sweep.pull > 0,
        "both kernels must run: {} pushes, {} pulls",
        sweep.push,
        sweep.pull
    );
}
