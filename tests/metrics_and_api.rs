//! Cross-crate checks of the metrics and of the umbrella prelude API
//! (everything the README promises can be reached through
//! `cdrw_repro::prelude`).

use cdrw_repro::prelude::*;
use cdrw_repro::walk::{estimate_mixing_time, spectral_gap};

#[test]
fn all_metrics_agree_on_perfect_and_poor_detections() {
    let params = PpmParams::new(256, 4, 0.4, 0.002).unwrap();
    let (graph, truth) = generate_ppm(&params, 13).unwrap();

    // A perfect detection scores 1.0 on all metrics.
    assert!((f_score(&truth, &truth).f_score - 1.0).abs() < 1e-12);
    assert!((nmi(&truth, &truth) - 1.0).abs() < 1e-12);
    assert!((adjusted_rand_index(&truth, &truth) - 1.0).abs() < 1e-12);

    // The trivial single community scores poorly on NMI/ARI but keeps
    // perfect recall in the F decomposition.
    let trivial = Partition::single_community(graph.num_vertices()).unwrap();
    let f = f_score(&trivial, &truth);
    assert!(f.recall > 0.999);
    assert!(f.precision < 0.3);
    assert!(nmi(&trivial, &truth) < 0.05);
    assert!(adjusted_rand_index(&trivial, &truth).abs() < 0.05);

    // A real CDRW detection sits near the top on all three metrics.
    let config = CdrwConfig::builder()
        .seed(3)
        .delta(params.expected_block_conductance())
        .build();
    let result = Cdrw::new(config).detect_all(&graph).unwrap();
    let detected = result.partition();
    assert!(f_score(detected, &truth).f_score > 0.85);
    assert!(nmi(detected, &truth) > 0.7);
    assert!(adjusted_rand_index(detected, &truth) > 0.7);
}

#[test]
fn partition_and_raw_detection_scores_are_consistent() {
    let params = PpmParams::new(256, 2, 0.3, 0.003).unwrap();
    let (graph, truth) = generate_ppm(&params, 19).unwrap();
    let config = CdrwConfig::builder()
        .seed(5)
        .delta(params.expected_block_conductance())
        .build();
    let result = Cdrw::new(config).detect_all(&graph).unwrap();

    // The paper's metric: average F over the raw seeded detections.
    let raw = f_score_for_detections(
        result
            .detections()
            .iter()
            .map(|d| (d.members.as_slice(), d.seed)),
        &truth,
    )
    .f_score;
    // Alternative view: best-match scoring of the disjoint partition.
    // Overlap resolution can only leave residual fragments behind (a block
    // re-detected from a later seed contributes only its previously
    // unclaimed vertices), so the partition-based score never exceeds the raw
    // score by much, while the raw score on this clean instance is
    // essentially perfect.
    let best_match = f_score(result.partition(), &truth).f_score;
    assert!(raw > 0.9, "raw detection F = {raw}");
    assert!(
        best_match <= raw + 0.1,
        "best-match {best_match} vs raw {raw}"
    );
    assert!(best_match > 0.6, "best-match F = {best_match}");
}

#[test]
fn walk_machinery_is_reachable_and_consistent_through_the_umbrella() {
    let params = PpmParams::new(256, 1, 0.1, 0.0).unwrap();
    let (graph, _) = generate_ppm(&params, 23).unwrap();

    // Mixing time of an expander is small; λ₂ is bounded away from 1.
    let mixing = estimate_mixing_time(&graph, 0, 0.25, 200).unwrap();
    assert!(mixing.converged);
    assert!(mixing.steps < 30);
    let lambda = spectral_gap(&graph, 100).unwrap();
    assert!(lambda < 0.7, "λ₂ = {lambda}");

    // The local mixing sweep via the prelude types.
    let engine = WalkEngine::new(&graph);
    let mut workspace: WalkWorkspace = engine.workspace();
    workspace.load_point_mass(0).unwrap();
    for _ in 0..8 {
        engine.step(&mut workspace);
    }
    let outcome = engine
        .sweep(&mut workspace, &LocalMixingConfig::for_graph_size(256))
        .unwrap();
    assert!(outcome.found());
    assert!(outcome.size() > 200);
    let _: &LocalMixingOutcome = &outcome;
}

#[test]
fn graph_substrate_is_reachable_through_the_umbrella() {
    let mut builder = GraphBuilder::new(4);
    builder.add_edge(0, 1).unwrap();
    builder.add_edge(1, 2).unwrap();
    builder.add_edge(2, 3).unwrap();
    let graph: Graph = builder.build();
    assert_eq!(graph.num_edges(), 3);
    let v: VertexId = 2;
    assert_eq!(graph.degree(v), 2);
    assert_eq!(cdrw_repro::graph::traversal::diameter(&graph).unwrap(), 3);
}
