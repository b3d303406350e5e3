//! The `DeltaGraph` commit against a fresh build, through the public API.
//!
//! After any interleaving of adds and removes, applied across one or
//! several commits, the committed CSR must equal (offsets, targets and
//! weight lane; `Graph: PartialEq` compares all of them) a from-scratch
//! `GraphBuilder` over the surviving edge set, and every commit's report
//! must name exactly the pairs whose presence or weight bits changed. The
//! inputs are the ranges of `cdrw-graph`'s own property test, drawn for a
//! fixed number of cases.

use std::collections::{BTreeMap, BTreeSet};

use cdrw_repro::graph::{CommitReport, DeltaGraph, GraphError};
use cdrw_repro::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const CASES: usize = 256;

/// One encoded random operation: `kind` 0 = plain add, 1 = weighted add
/// (downgraded to plain when the weight lane is off), anything else =
/// remove. Self-loop draws are skipped.
type EncodedOp = (usize, (VertexId, VertexId), u32);

/// Applies one encoded op to the delta and to a model map holding the
/// surviving edge set with the same left-to-right weight folding the delta
/// buffer uses. Returns `false` for skipped self-loop draws.
fn apply_op(
    delta: &mut DeltaGraph,
    model: &mut BTreeMap<(VertexId, VertexId), f64>,
    op: &EncodedOp,
) -> bool {
    let (kind, (u, v), w_raw) = *op;
    if u == v {
        return false;
    }
    let key = (u.min(v), u.max(v));
    let weighted = delta.is_weighted();
    match kind {
        0 => {
            delta.add_edge(u, v).unwrap();
            if weighted {
                let w = model.get(&key).copied().unwrap_or(0.0) + 1.0;
                model.insert(key, w);
            } else {
                model.insert(key, 1.0);
            }
        }
        1 if weighted => {
            let w = w_raw as f64 * 0.25;
            delta.add_weighted_edge(u, v, w).unwrap();
            let next = model.get(&key).copied().unwrap_or(0.0) + w;
            model.insert(key, next);
        }
        1 => {
            delta.add_edge(u, v).unwrap();
            model.insert(key, 1.0);
        }
        _ => {
            delta.remove_edge(u, v).unwrap();
            model.remove(&key);
        }
    }
    true
}

/// The report a commit from the edge set `before` to `after` must give:
/// every pair whose presence or weight bits differ, counted by kind, and
/// the sorted, deduplicated endpoints of those pairs.
fn model_diff(
    before: &BTreeMap<(VertexId, VertexId), f64>,
    after: &BTreeMap<(VertexId, VertexId), f64>,
) -> CommitReport {
    let mut report = CommitReport {
        dirty: Vec::new(),
        edges_added: 0,
        edges_removed: 0,
        edges_reweighted: 0,
    };
    let pairs: BTreeSet<_> = before.keys().chain(after.keys()).collect();
    for &(u, v) in pairs {
        match (before.get(&(u, v)), after.get(&(u, v))) {
            (Some(a), Some(b)) if a.to_bits() == b.to_bits() => continue,
            (Some(_), Some(_)) => report.edges_reweighted += 1,
            (None, Some(_)) => report.edges_added += 1,
            (Some(_), None) => report.edges_removed += 1,
            (None, None) => unreachable!("the pair comes from one of the maps"),
        }
        report.dirty.extend([u, v]);
    }
    report.dirty.sort_unstable();
    report.dirty.dedup();
    report
}

fn check_case(
    base_edges: &[(VertexId, VertexId)],
    ops: &[EncodedOp],
    weighted: bool,
    commit_every: usize,
    case: usize,
) {
    let n = 12;
    // Committed base graph and the model map tracking it.
    let mut model: BTreeMap<(VertexId, VertexId), f64> = BTreeMap::new();
    let mut base = GraphBuilder::new(n);
    for &(u, v) in base_edges.iter().filter(|(u, v)| u != v) {
        if weighted {
            base.add_weighted_edge(u, v, 1.0).unwrap();
            let key = (u.min(v), u.max(v));
            let w = model.get(&key).copied().unwrap_or(0.0) + 1.0;
            model.insert(key, w);
        } else {
            base.add_edge(u, v).unwrap();
            model.insert((u.min(v), u.max(v)), 1.0);
        }
    }
    let mut delta = DeltaGraph::new(base.build());
    assert_eq!(
        delta.is_weighted(),
        weighted && !model.is_empty(),
        "case {case}"
    );

    // The model as of the last commit: each report is checked against the
    // diff from it to the model at the next commit.
    let mut committed = model.clone();
    let mut applied = 0usize;
    for op in ops {
        if apply_op(&mut delta, &mut model, op) {
            applied += 1;
            if applied.is_multiple_of(commit_every) {
                let report = delta.commit().unwrap();
                assert_eq!(report, model_diff(&committed, &model), "case {case}");
                committed = model.clone();
            }
        }
    }
    let report = delta.commit().unwrap();
    assert_eq!(report, model_diff(&committed, &model), "case {case}");

    // The from-scratch reference over the surviving edge set.
    let mut reference = GraphBuilder::new(n);
    for (&(u, v), &w) in &model {
        if delta.is_weighted() {
            reference.add_weighted_edge(u, v, w).unwrap();
        } else {
            reference.add_edge(u, v).unwrap();
        }
    }
    assert_eq!(delta.graph(), &reference.build(), "case {case}");
}

#[test]
fn commit_matches_from_scratch_build() {
    let mut rng = TestRng::for_test("delta_commit::commit_matches_from_scratch_build");
    let base_edges = proptest::collection::vec((0usize..12, 0usize..12), 0..30);
    let ops = proptest::collection::vec((0usize..3, (0usize..12, 0usize..12), 1u32..16), 0..40);
    for case in 0..CASES {
        let base_edges = base_edges.generate(&mut rng);
        let ops = ops.generate(&mut rng);
        let weighted = any::<bool>().generate(&mut rng);
        let commit_every = (1usize..8).generate(&mut rng);
        check_case(&base_edges, &ops, weighted, commit_every, case);
    }
}

fn weighted_path(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for u in 0..n - 1 {
        builder.add_weighted_edge(u, u + 1, 1.0 + u as f64).unwrap();
    }
    builder.build()
}

#[test]
fn a_poisoned_weight_fold_fails_the_commit_and_changes_nothing() {
    // Each weight passes its own check, but the two fold to +inf in the
    // pending buffer, which no CSR may hold.
    let mut delta = DeltaGraph::new(weighted_path(4));
    let before = delta.graph().clone();
    delta.remove_edge(1, 2).unwrap();
    delta.add_weighted_edge(0, 1, f64::MAX).unwrap();
    delta.add_weighted_edge(0, 1, f64::MAX).unwrap();
    assert_eq!(delta.pending_ops(), 2);

    for _ in 0..2 {
        assert!(matches!(
            delta.commit(),
            Err(GraphError::InvalidParameter { name: "weight", .. })
        ));
        assert_eq!(delta.graph(), &before);
        assert_eq!(delta.pending_ops(), 2);
    }

    delta.discard_pending();
    delta.remove_edge(1, 2).unwrap();
    let report = delta.commit().unwrap();
    assert_eq!((report.dirty, report.edges_removed), (vec![1, 2], 1));
    assert!(!delta.graph().has_edge(1, 2));
    assert_eq!(delta.graph().edge_weight(0, 1), Some(1.0));
}

#[test]
fn removing_every_edge_of_a_weighted_graph_commits_an_unweighted_one() {
    let n = 5;
    let mut delta = DeltaGraph::new(weighted_path(n));
    assert!(delta.is_weighted());
    for u in 0..n - 1 {
        delta.remove_edge(u + 1, u).unwrap();
    }
    let report = delta.commit().unwrap();
    assert_eq!(report.edges_removed, n - 1);
    assert_eq!(delta.graph(), &GraphBuilder::new(n).build());
    assert!(!delta.is_weighted());
    assert!(matches!(
        delta.add_weighted_edge(0, 1, 2.0),
        Err(GraphError::InvalidParameter { name: "weight", .. })
    ));
    // Plain additions still commit, onto the unweighted graph.
    delta.add_edge(0, 1).unwrap();
    delta.commit().unwrap();
    assert_eq!(
        delta.graph(),
        &GraphBuilder::from_edges(n, [(0, 1)]).unwrap()
    );
}
