//! Fault-shape tests: adversarial partition layouts the random vertex
//! partition is unlikely to produce, built deterministically with
//! [`RandomVertexPartition::from_assignment`] and pinned bit-identical to the
//! sequential driver.
//!
//! * more shards than vertices (`k > n`, some shards own nothing),
//! * a shard owning only an isolated vertex,
//! * a boundary vertex whose neighbours are *all* remote (a star centre
//!   homed alone — its one share per round crosses a shard boundary and is
//!   expanded over all its edges by the receiving shard).

use cdrw_congest::CongestConfig;
use cdrw_core::{Cdrw, CdrwConfig};
use cdrw_graph::{Graph, GraphBuilder};
use cdrw_kmachine::{FaultPlan, KMachineConfig, KMachineEngine, RandomVertexPartition};

fn run_pinned(graph: &Graph, assignment: Vec<usize>, k: usize) {
    run_pinned_chaos(graph, assignment, k, None);
}

fn run_pinned_chaos(graph: &Graph, assignment: Vec<usize>, k: usize, plan: Option<&FaultPlan>) {
    let config = CdrwConfig::builder().seed(9).delta(0.2).build();
    let expected = Cdrw::new(config).detect_all(graph).unwrap();
    let partition = RandomVertexPartition::from_assignment(assignment, k);
    let engine =
        KMachineEngine::new(KMachineConfig::new(k).with_congest(CongestConfig::new(config)))
            .unwrap();
    let report = match plan {
        Some(plan) => engine
            .run_chaos_with_partition(graph, &partition, plan)
            .unwrap(),
        None => engine.run_with_partition(graph, &partition).unwrap(),
    };
    assert_eq!(report.result, expected);
    for round in &report.conformance.per_round {
        assert_eq!(round.measured_messages, round.modelled_messages);
    }
}

#[test]
fn more_shards_than_vertices_leaves_empty_shards_harmless() {
    // A 4-vertex path on 7 shards: shards 1, 2, 4 and 6 own nothing, are
    // no source's peer and receive only empty buckets, yet must still
    // participate in every exchange barrier.
    let graph = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    run_pinned(&graph, vec![5, 0, 3, 6], 7);
}

#[test]
fn a_shard_owning_only_an_isolate_never_sends_mass() {
    // Vertex 4 is isolated and homed alone on shard 2; its detection is the
    // zero-degree singleton path: the mass stays put, shard 2 ships no share
    // and counts no message, and the message protocol is undisturbed.
    let graph = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
    run_pinned(&graph, vec![0, 0, 1, 1, 2], 3);
}

#[test]
fn a_boundary_vertex_with_all_neighbours_remote_is_exact() {
    // Star centre 0 homed alone on shard 0, all five leaves on shard 1: the
    // centre's one share per round crosses the boundary and shard 1 applies
    // it to all five leaves; every share the centre absorbs comes from a
    // remote leaf, and shard 0 counts one edge contribution per leaf with
    // mass.
    let graph = GraphBuilder::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
    run_pinned(&graph, vec![0, 1, 1, 1, 1, 1], 2);
}

#[test]
fn single_shard_degenerates_to_the_sequential_driver() {
    // k = 1 exercises the full protocol against a single worker: every
    // share stays in the own run, nothing crosses the wire, and the
    // exchange barrier is empty.
    let graph = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
    run_pinned(&graph, vec![0, 0, 0, 0, 0], 1);
}

// ---- chaos matrices: the adversarial layouts above, replayed under seeded
// fault schedules across k ∈ {1, 2, 3, 8}, still pinned bit-identical ----

fn matrix_graph() -> (Graph, Vec<usize>) {
    // Eight vertices striped round-robin so every k ∈ {1, 2, 3, 8} leaves at
    // least one boundary edge per shard.
    let graph = GraphBuilder::from_edges(
        8,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
        ],
    )
    .unwrap();
    (graph, (0..8).collect())
}

fn striped(assignment: &[usize], k: usize) -> Vec<usize> {
    assignment.iter().map(|&v| v % k).collect()
}

#[test]
fn drop_matrix_is_bit_identical_across_shard_counts() {
    let (graph, vertices) = matrix_graph();
    for k in [1usize, 2, 3, 8] {
        for seed in [1u64, 77] {
            let plan = FaultPlan::seeded(seed).with_drop_rate(0.1);
            run_pinned_chaos(&graph, striped(&vertices, k), k, Some(&plan));
        }
    }
}

#[test]
fn duplicate_matrix_is_bit_identical_across_shard_counts() {
    let (graph, vertices) = matrix_graph();
    for k in [1usize, 2, 3, 8] {
        let plan = FaultPlan::seeded(23).with_duplicate_rate(0.15);
        run_pinned_chaos(&graph, striped(&vertices, k), k, Some(&plan));
    }
}

#[test]
fn reorder_matrix_is_bit_identical_across_shard_counts() {
    // Delays re-deliver messages a few transport operations later — the
    // reordering case: sequence numbers and (seq, from) keys must absorb it.
    let (graph, vertices) = matrix_graph();
    for k in [1usize, 2, 3, 8] {
        let plan = FaultPlan::seeded(31).with_delay(0.15, 3);
        run_pinned_chaos(&graph, striped(&vertices, k), k, Some(&plan));
    }
}

#[test]
fn crash_matrix_is_bit_identical_across_shard_counts() {
    let (graph, vertices) = matrix_graph();
    for k in [1usize, 2, 3, 8] {
        let plan = FaultPlan::seeded(47).with_crash(k - 1, 5);
        run_pinned_chaos(&graph, striped(&vertices, k), k, Some(&plan));
    }
}

#[test]
fn mixed_fault_matrix_is_bit_identical_across_shard_counts() {
    let (graph, vertices) = matrix_graph();
    for k in [1usize, 2, 3, 8] {
        let plan = FaultPlan::seeded(59)
            .with_drop_rate(0.06)
            .with_delay(0.06, 2)
            .with_duplicate_rate(0.06)
            .with_crash(0, 8);
        run_pinned_chaos(&graph, striped(&vertices, k), k, Some(&plan));
    }
}
