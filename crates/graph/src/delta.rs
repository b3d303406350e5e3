//! Mutable edge-churn buffer over an immutable committed CSR.
//!
//! The streaming service layer (`cdrw_core::CdrwService`) needs a graph that
//! *changes*: edges arrive and depart while queries keep answering from the
//! last detected partition. The CSR [`Graph`] is deliberately immutable —
//! every walk, sweep and absorption decision binary-searches sorted
//! neighbour rows — so mutation lives here instead: a [`DeltaGraph`] is the
//! committed CSR plus a buffer of pending add/remove operations, folded into
//! a fresh CSR by [`DeltaGraph::commit`], which splices the committed CSR row
//! by row: clean rows are copied whole, and only the rows of changed pairs
//! are merged (weight lane included).
//!
//! Each commit reports the **dirty vertices** — the endpoints of every edge
//! whose presence or weight actually changed. Dirtiness is the exact
//! invalidation signal for cached detections: the cut, volume and internal
//! topology of a vertex set `S` depend only on edges with at least one
//! endpoint in `S`, so a detection containing no dirty vertex is structurally
//! untouched by the commit and its cached evidence stays valid.
//!
//! # Example
//!
//! ```
//! use cdrw_graph::{DeltaGraph, GraphBuilder};
//!
//! # fn main() -> Result<(), cdrw_graph::GraphError> {
//! let committed = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
//! let mut delta = DeltaGraph::new(committed);
//! delta.remove_edge(1, 2)?;
//! delta.add_edge(0, 3)?;
//! let report = delta.commit()?;
//! assert_eq!(report.dirty, vec![0, 1, 2, 3]);
//! assert!(delta.graph().has_edge(0, 3));
//! assert!(!delta.graph().has_edge(1, 2));
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use crate::{Graph, GraphError, VertexId};

/// What one [`DeltaGraph::commit`] changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReport {
    /// Endpoints of every edge whose presence or weight changed, sorted and
    /// deduplicated. Empty when the pending buffer was a no-op (removing
    /// absent edges, re-adding identical weights).
    pub dirty: Vec<VertexId>,
    /// Edges present after the commit that were absent before.
    pub edges_added: usize,
    /// Edges absent after the commit that were present before.
    pub edges_removed: usize,
    /// Edges present on both sides whose weight changed.
    pub edges_reweighted: usize,
}

impl CommitReport {
    /// Whether the commit changed nothing.
    pub fn is_clean(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// A committed CSR [`Graph`] plus a buffer of pending edge additions and
/// removals, spliced into it on [`DeltaGraph::commit`].
///
/// The vertex set is fixed at construction (`0..n`, like every [`Graph`]);
/// only edges churn. The pending buffer stores the *absolute* post-commit
/// state per touched pair — `Some(w)` present with weight `w`, `None` absent
/// — so repeated operations on one pair collapse into a single entry and the
/// weight arithmetic of stacked [`DeltaGraph::add_weighted_edge`] calls is
/// folded left-to-right at operation time, exactly the order a from-scratch
/// [`GraphBuilder`](crate::GraphBuilder) would sum duplicate insertions in.
/// A property test pins the committed CSR bit-identical (offsets, targets,
/// weight lane) to a from-scratch build over the surviving edge set.
///
/// Weightedness is decided by the committed graph: a weighted CSR stays
/// weighted until it loses its last edge (plain [`DeltaGraph::add_edge`]
/// contributes `1.0`, matching the builder's backfill), an unweighted CSR
/// stays unweighted and rejects
/// [`DeltaGraph::add_weighted_edge`] — engaging the weight lane mid-stream
/// would retroactively change the meaning of buffered plain additions.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    committed: Graph,
    /// Absolute pending state per normalised `(min, max)` pair: `Some(w)` —
    /// present with weight `w` after the next commit; `None` — absent.
    pending: BTreeMap<(VertexId, VertexId), Option<f64>>,
}

impl DeltaGraph {
    /// Wraps a committed graph with an empty pending buffer.
    pub fn new(committed: Graph) -> Self {
        DeltaGraph {
            committed,
            pending: BTreeMap::new(),
        }
    }

    /// The last committed CSR. Pending operations are invisible here until
    /// [`DeltaGraph::commit`].
    pub fn graph(&self) -> &Graph {
        &self.committed
    }

    /// Number of vertices (fixed at construction).
    pub fn num_vertices(&self) -> usize {
        self.committed.num_vertices()
    }

    /// Whether the committed graph carries the edge-weight lane.
    pub fn is_weighted(&self) -> bool {
        self.committed.is_weighted()
    }

    /// Number of edge pairs with a pending (possibly no-op) operation.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// The weight the pair would have after a commit right now: the pending
    /// state if the pair was touched, the committed weight otherwise.
    fn effective_weight(&self, key: (VertexId, VertexId)) -> Option<f64> {
        match self.pending.get(&key) {
            Some(state) => *state,
            None => self.committed.edge_weight(key.0, key.1),
        }
    }

    fn validate_pair(&self, u: VertexId, v: VertexId) -> Result<(VertexId, VertexId), GraphError> {
        self.committed.check_vertex(u)?;
        self.committed.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        Ok((u.min(v), u.max(v)))
    }

    /// Buffers the addition of the undirected edge `(u, v)`.
    ///
    /// On a weighted graph this contributes weight `1.0` (the builder's
    /// backfill value); re-adding a pair that is already present stacks
    /// another `1.0` onto it, matching duplicate-insertion summing in
    /// [`GraphBuilder::build`](crate::GraphBuilder::build). On an unweighted
    /// graph re-adding a present pair is a no-op, matching builder
    /// deduplication.
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        let key = self.validate_pair(u, v)?;
        let next = if self.is_weighted() {
            self.effective_weight(key).unwrap_or(0.0) + 1.0
        } else {
            1.0
        };
        self.pending.insert(key, Some(next));
        Ok(())
    }

    /// Buffers the addition of the undirected edge `(u, v)` with weight
    /// `weight`, summing onto the pair's current effective weight — the
    /// delta analogue of duplicate weighted insertions in
    /// [`GraphBuilder::build`](crate::GraphBuilder::build).
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::InvalidParameter`] unless `weight` is finite and
    ///   strictly positive, or when the committed graph is unweighted
    ///   (weightedness is fixed at construction — see the type docs).
    pub fn add_weighted_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: f64,
    ) -> Result<(), GraphError> {
        if !self.is_weighted() {
            return Err(GraphError::InvalidParameter {
                name: "weight",
                reason: "committed graph is unweighted; build it through \
                         GraphBuilder::add_weighted_edge to engage the weight lane"
                    .to_string(),
            });
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(GraphError::InvalidParameter {
                name: "weight",
                reason: format!("edge weight must be finite and positive, got {weight}"),
            });
        }
        let key = self.validate_pair(u, v)?;
        let next = self.effective_weight(key).unwrap_or(0.0) + weight;
        self.pending.insert(key, Some(next));
        Ok(())
    }

    /// Buffers the removal of the undirected edge `(u, v)`. Removing an
    /// absent edge is tolerated (the commit reports it clean).
    ///
    /// # Errors
    ///
    /// * [`GraphError::VertexOutOfRange`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        let key = self.validate_pair(u, v)?;
        self.pending.insert(key, None);
        Ok(())
    }

    /// Discards the pending buffer without touching the committed graph.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Folds the pending buffer into a fresh committed CSR and reports the
    /// dirty vertices.
    ///
    /// The new CSR is a row splice of the committed one: a row with no
    /// changed pair is copied whole (targets and weight lane), and each
    /// dirty row is merged with its changed pairs in target order, so a
    /// commit costs one copy of the arrays plus `O(log d)` per changed
    /// slot. With an empty or no-op buffer the committed graph is left
    /// untouched and the report is clean. A weighted graph that loses its
    /// last edge commits unweighted, as a from-scratch
    /// [`GraphBuilder`](crate::GraphBuilder) over no edges would build it.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] (`name: "weight"`) when stacked
    /// [`DeltaGraph::add_weighted_edge`] calls folded a pending weight to a
    /// non-finite value. Nothing is changed then: the committed graph still
    /// serves and the pending buffer is kept, so the caller can
    /// [`DeltaGraph::discard_pending`] and commit again.
    pub fn commit(&mut self) -> Result<CommitReport, GraphError> {
        // Classify pending entries against the committed state; only the
        // changed ones reach the splice, once per direction.
        let mut dirty: Vec<VertexId> = Vec::new();
        let mut splices: Vec<(VertexId, VertexId, Option<f64>)> = Vec::new();
        let mut edges_added = 0usize;
        let mut edges_removed = 0usize;
        let mut edges_reweighted = 0usize;
        for (&(u, v), &state) in &self.pending {
            match (self.committed.edge_weight(u, v), state) {
                (None, None) => continue,
                (Some(a), Some(b)) if a.to_bits() == b.to_bits() => continue,
                (Some(_), Some(_)) => edges_reweighted += 1,
                (None, Some(_)) => edges_added += 1,
                (Some(_), None) => edges_removed += 1,
            }
            if let Some(w) = state.filter(|w| !w.is_finite()) {
                return Err(GraphError::InvalidParameter {
                    name: "weight",
                    reason: format!("pending weight of edge ({u}, {v}) folded to {w}"),
                });
            }
            dirty.extend([u, v]);
            splices.extend([(u, v, state), (v, u, state)]);
        }
        self.pending.clear();
        if !splices.is_empty() {
            splices.sort_unstable_by_key(|&(row, target, _)| (row, target));
            let num_edges = self.committed.num_edges() + edges_added - edges_removed;
            self.committed = self.spliced(&splices, num_edges);
        }
        dirty.sort_unstable();
        dirty.dedup();
        Ok(CommitReport {
            dirty,
            edges_added,
            edges_removed,
            edges_reweighted,
        })
    }

    /// The committed CSR with `splices` applied: `(row, target, state)`
    /// sorted by `(row, target)`, each setting the slot `target` of `row`
    /// to `state` (`None` removes it). Rows no splice names are copied
    /// whole; `num_edges` is the edge count after the splice.
    fn spliced(&self, splices: &[(VertexId, VertexId, Option<f64>)], num_edges: usize) -> Graph {
        let old = &self.committed;
        let weighted = old.is_weighted();
        let mut offsets = Vec::with_capacity(old.num_vertices() + 1);
        let mut targets = Vec::with_capacity(2 * num_edges);
        let mut lane = Vec::with_capacity(if weighted { 2 * num_edges } else { 0 });
        offsets.push(0);
        let mut splices = splices.iter().copied().peekable();
        for row in old.vertices() {
            let old_targets = old.neighbor_slice(row);
            let old_weights = old.weight_slice(row);
            // Slots of the old row before `kept` are already copied.
            let mut kept = 0;
            while let Some((_, target, state)) = splices.next_if(|&(r, _, _)| r == row) {
                let end = kept + old_targets[kept..].partition_point(|&t| t < target);
                targets.extend_from_slice(&old_targets[kept..end]);
                if let Some(ws) = old_weights {
                    lane.extend_from_slice(&ws[kept..end]);
                }
                // Drop the old slot of `target`, then insert its new state.
                kept = end + usize::from(old_targets.get(end) == Some(&target));
                if let Some(w) = state {
                    targets.push(target);
                    if weighted {
                        lane.push(w);
                    }
                }
            }
            targets.extend_from_slice(&old_targets[kept..]);
            if let Some(ws) = old_weights {
                lane.extend_from_slice(&ws[kept..]);
            }
            offsets.push(targets.len());
        }
        // A weighted graph left with no edge loses its lane, as a builder
        // fed no weighted edge builds it.
        if weighted && num_edges > 0 {
            Graph::from_weighted_csr_parts(offsets, targets, lane, num_edges)
        } else {
            Graph::from_csr_parts(offsets, targets, num_edges)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn add_and_remove_round_trip() {
        let mut delta = DeltaGraph::new(path(5));
        delta.add_edge(0, 4).unwrap();
        delta.remove_edge(1, 2).unwrap();
        assert_eq!(delta.pending_ops(), 2);
        let report = delta.commit().unwrap();
        assert_eq!(report.dirty, vec![0, 1, 2, 4]);
        assert_eq!(report.edges_added, 1);
        assert_eq!(report.edges_removed, 1);
        assert_eq!(delta.pending_ops(), 0);
        assert!(delta.graph().has_edge(0, 4));
        assert!(!delta.graph().has_edge(1, 2));
        assert_eq!(delta.graph().num_edges(), 4);
    }

    #[test]
    fn noop_buffer_reports_clean_and_skips_the_rebuild() {
        let mut delta = DeltaGraph::new(path(4));
        // Removing an absent edge and re-adding a present unweighted edge
        // both leave the graph untouched.
        delta.remove_edge(0, 3).unwrap();
        delta.add_edge(1, 2).unwrap();
        let before = delta.graph().clone();
        let report = delta.commit().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.edges_added + report.edges_removed, 0);
        assert_eq!(delta.graph(), &before);
    }

    #[test]
    fn remove_then_add_restores_presence() {
        let mut delta = DeltaGraph::new(path(4));
        delta.remove_edge(1, 2).unwrap();
        delta.add_edge(1, 2).unwrap();
        let report = delta.commit().unwrap();
        assert!(report.is_clean(), "remove+add of a present edge is a no-op");
        assert!(delta.graph().has_edge(1, 2));
    }

    #[test]
    fn weighted_adds_stack_onto_the_committed_weight() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.0).unwrap();
        b.add_weighted_edge(1, 2, 1.0).unwrap();
        let mut delta = DeltaGraph::new(b.build());
        delta.add_weighted_edge(0, 1, 0.5).unwrap();
        delta.add_weighted_edge(1, 0, 0.25).unwrap(); // normalised onto the same pair
        delta.add_edge(1, 2).unwrap(); // plain add contributes 1.0
        let report = delta.commit().unwrap();
        assert_eq!(report.edges_reweighted, 2);
        assert_eq!(delta.graph().edge_weight(0, 1), Some(2.75));
        assert_eq!(delta.graph().edge_weight(1, 2), Some(2.0));
    }

    #[test]
    fn weighted_add_after_remove_starts_from_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 5.0).unwrap();
        b.add_weighted_edge(1, 2, 1.0).unwrap();
        let mut delta = DeltaGraph::new(b.build());
        delta.remove_edge(0, 1).unwrap();
        delta.add_weighted_edge(0, 1, 0.5).unwrap();
        delta.commit().unwrap();
        assert_eq!(delta.graph().edge_weight(0, 1), Some(0.5));
    }

    #[test]
    fn unweighted_graph_rejects_weighted_adds() {
        let mut delta = DeltaGraph::new(path(4));
        assert!(matches!(
            delta.add_weighted_edge(0, 2, 2.0),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn operations_validate_endpoints() {
        let mut delta = DeltaGraph::new(path(3));
        assert!(matches!(
            delta.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            delta.remove_edge(5, 0),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            delta.add_edge(1, 1),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        let mut weighted = GraphBuilder::new(2);
        weighted.add_weighted_edge(0, 1, 1.0).unwrap();
        let mut delta = DeltaGraph::new(weighted.build());
        assert!(matches!(
            delta.add_weighted_edge(0, 1, f64::NAN),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            delta.add_weighted_edge(0, 1, -1.0),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn failed_commit_leaves_the_journal_and_the_committed_graph_intact() {
        // Weight validation happens per operation, but stacking is folded at
        // operation time: two f64::MAX adds fold to +inf in the pending
        // buffer, which the commit-time builder rejects. The failure must
        // leave both sides untouched — the committed CSR still serves and
        // the journal still holds every buffered operation, so the caller
        // can discard the poison and commit the rest.
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0).unwrap();
        b.add_weighted_edge(1, 2, 2.0).unwrap();
        b.add_weighted_edge(2, 3, 1.0).unwrap();
        let mut delta = DeltaGraph::new(b.build());
        let before = delta.graph().clone();

        delta.remove_edge(1, 2).unwrap();
        delta.add_weighted_edge(0, 1, f64::MAX).unwrap();
        delta.add_weighted_edge(0, 1, f64::MAX).unwrap();
        assert_eq!(delta.pending_ops(), 2);

        let err = delta.commit().unwrap_err();
        assert!(matches!(
            err,
            GraphError::InvalidParameter { name: "weight", .. }
        ));
        // Committed graph untouched, journal intact.
        assert_eq!(delta.graph(), &before);
        assert_eq!(delta.pending_ops(), 2);

        // Every further commit fails the same way until the poison is
        // dropped; afterwards the surviving operations commit normally.
        assert!(delta.commit().is_err());
        assert_eq!(delta.pending_ops(), 2);
        delta.discard_pending();
        delta.remove_edge(1, 2).unwrap();
        let report = delta.commit().unwrap();
        assert_eq!(report.edges_removed, 1);
        assert!(!delta.graph().has_edge(1, 2));
        assert_eq!(delta.graph().edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn discard_pending_drops_buffered_operations() {
        let mut delta = DeltaGraph::new(path(4));
        delta.remove_edge(0, 1).unwrap();
        delta.discard_pending();
        assert_eq!(delta.pending_ops(), 0);
        assert!(delta.commit().unwrap().is_clean());
        assert!(delta.graph().has_edge(0, 1));
    }

    /// One encoded random operation of the interleaving property tests:
    /// `kind` 0 = plain add, 1 = weighted add (downgraded to plain when the
    /// lane is off), anything else = remove. Self-loop draws are skipped.
    type EncodedOp = (usize, (VertexId, VertexId), u32);

    /// Applies one encoded op to the delta and to a model map holding the
    /// surviving edge set with the same left-to-right weight folding the
    /// delta buffer uses. Returns `false` for skipped self-loop draws.
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

    proptest! {
        /// The satellite pin: after ANY interleaving of adds and removes —
        /// applied across one or several commits — the committed CSR is
        /// bit-identical (offsets, targets, weight lane; `Graph: PartialEq`
        /// compares all of them) to a from-scratch `GraphBuilder` over the
        /// surviving edge set.
        #[test]
        fn commit_matches_from_scratch_build(
            base_edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
            ops in proptest::collection::vec((0usize..3, (0usize..12, 0usize..12), 1u32..16), 0..40),
            weighted in any::<bool>(),
            commit_every in 1usize..8,
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
            prop_assert_eq!(delta.is_weighted(), weighted && !model.is_empty());

            let mut applied = 0usize;
            for op in &ops {
                if apply_op(&mut delta, &mut model, op) {
                    applied += 1;
                    if applied.is_multiple_of(commit_every) {
                        delta.commit().unwrap();
                    }
                }
            }
            let report = delta.commit().unwrap();
            prop_assert!(report.dirty.len() <= 2 * delta.num_vertices());

            // The from-scratch reference over the surviving edge set.
            let mut reference = GraphBuilder::new(n);
            for (&(u, v), &w) in &model {
                if delta.is_weighted() {
                    reference.add_weighted_edge(u, v, w).unwrap();
                } else {
                    reference.add_edge(u, v).unwrap();
                }
            }
            prop_assert_eq!(delta.graph(), &reference.build());
        }

        /// Dirty vertices are exactly the endpoints of changed pairs: a
        /// commit's report never flags a vertex whose incident edges are all
        /// unchanged, and always flags both endpoints of a changed pair.
        #[test]
        fn dirty_set_is_exactly_the_changed_endpoints(
            base_edges in proptest::collection::vec((0usize..10, 0usize..10), 0..25),
            ops in proptest::collection::vec((0usize..3, (0usize..10, 0usize..10), 1u32..16), 1..20),
        ) {
            let n = 10;
            let clean: Vec<_> = base_edges.into_iter().filter(|(u, v)| u != v).collect();
            let before = GraphBuilder::from_edges(n, clean).unwrap();
            let mut delta = DeltaGraph::new(before.clone());
            let mut model: BTreeMap<(VertexId, VertexId), f64> = BTreeMap::new();
            for (u, v) in before.edges() {
                model.insert((u, v), 1.0);
            }
            for op in &ops {
                apply_op(&mut delta, &mut model, op);
            }
            let report = delta.commit().unwrap();
            let after = delta.graph();
            let mut expected: Vec<VertexId> = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if before.has_edge(u, v) != after.has_edge(u, v) {
                        expected.push(u);
                        expected.push(v);
                    }
                }
            }
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(report.dirty, expected);
        }
    }
}
