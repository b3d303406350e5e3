//! The `DeltaGraph` commit against a fresh build, through the public API.
//!
//! After any interleaving of adds and removes, applied across one or
//! several commits, the committed CSR must equal (offsets, targets and
//! weight lane; `Graph: PartialEq` compares all of them) a from-scratch
//! `GraphBuilder` over the surviving edge set. The inputs are the ranges of
//! `cdrw-graph`'s own property test, drawn for a fixed number of cases.

use std::collections::BTreeMap;

use cdrw_repro::graph::DeltaGraph;
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

    let mut applied = 0usize;
    for op in ops {
        if apply_op(&mut delta, &mut model, op) {
            applied += 1;
            if applied.is_multiple_of(commit_every) {
                delta.commit().unwrap();
            }
        }
    }
    let report = delta.commit().unwrap();
    assert!(
        report.dirty.len() <= 2 * delta.num_vertices(),
        "case {case}"
    );

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
