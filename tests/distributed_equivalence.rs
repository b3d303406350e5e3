//! The CONGEST and k-machine layers must agree with the sequential algorithm
//! and with each other: same detected communities, costs consistent with the
//! theory they implement.

use cdrw_repro::kmachine::{conversion_rounds, ConversionInput, RandomVertexPartition};
use cdrw_repro::prelude::*;

fn instance(n: usize, seed: u64) -> (Graph, Partition, f64) {
    let p = (12.0 * (n as f64).ln() / n as f64).min(1.0);
    let params = PpmParams::new(n, 2, p, p / 40.0).unwrap();
    let (graph, truth) = generate_ppm(&params, seed).unwrap();
    (
        graph,
        truth,
        params.expected_block_conductance().clamp(0.01, 1.0),
    )
}

#[test]
fn congest_and_sequential_detect_identical_partitions() {
    for seed in [1u64, 2, 3] {
        let (graph, _, delta) = instance(256, seed);
        let algorithm = CdrwConfig::builder().seed(seed).delta(delta).build();
        let sequential = Cdrw::new(algorithm).detect_all(&graph).unwrap();
        let congest = CongestCdrw::new(CongestConfig::new(algorithm))
            .detect_all(&graph)
            .unwrap();
        assert_eq!(sequential.partition(), congest.result.partition());
        assert_eq!(sequential.seeds(), congest.result.seeds());
    }
}

#[test]
fn congest_costs_track_the_detection_structure() {
    let (graph, truth, delta) = instance(512, 4);
    let algorithm = CdrwConfig::builder().seed(4).delta(delta).build();
    let report = CongestCdrw::new(CongestConfig::new(algorithm))
        .detect_all(&graph)
        .unwrap();
    // Detection stays correct.
    assert!(f_score(report.result.partition(), &truth).f_score > 0.85);
    // Costs decompose per community and are internally consistent.
    let sum_rounds: u64 = report.per_community.iter().map(|c| c.cost.rounds).sum();
    let sum_messages: u64 = report.per_community.iter().map(|c| c.cost.messages).sum();
    assert_eq!(sum_rounds, report.total.rounds);
    assert_eq!(sum_messages, report.total.messages);
    for community in &report.per_community {
        assert!(community.cost.rounds > 0);
        assert!(community.walk_steps > 0);
        // Every size check costs at least one aggregation round.
        assert!(community.cost.rounds >= community.size_checks as u64);
    }
}

#[test]
fn kmachine_conversion_uses_the_congest_measurements() {
    let (graph, _, delta) = instance(256, 7);
    let algorithm = CdrwConfig::builder().seed(7).delta(delta).build();
    let congest = CongestCdrw::new(CongestConfig::new(algorithm))
        .detect_all(&graph)
        .unwrap();

    let k = 8usize;
    let rounds = conversion_rounds(&ConversionInput {
        messages: congest.total.messages,
        rounds: congest.total.rounds,
        max_degree: graph.max_degree() as u64,
        num_machines: k,
    });
    // The conversion bound must equal M/k² + ∆T/k computed from the CONGEST
    // measurements.
    let expected = congest.total.messages as f64 / (k * k) as f64
        + graph.max_degree() as f64 * congest.total.rounds as f64 / k as f64;
    assert!((rounds - expected).abs() < 1e-6);
}

#[test]
fn kmachine_round_complexity_decreases_monotonically_in_k() {
    let (graph, _, delta) = instance(256, 9);
    let congest_config = CongestConfig::new(CdrwConfig::builder().seed(9).delta(delta).build());
    // One CONGEST run prices every k: only the machine count varies.
    let total = CongestCdrw::new(congest_config)
        .detect_all(&graph)
        .unwrap()
        .total;
    let mut previous = f64::INFINITY;
    for k in [2usize, 4, 8, 16, 32, 64] {
        let rounds = conversion_rounds(&ConversionInput {
            messages: total.messages,
            rounds: total.rounds,
            max_degree: graph.max_degree() as u64,
            num_machines: k,
        });
        assert!(rounds < previous, "rounds did not decrease at k = {k}");
        previous = rounds;
    }
}

#[test]
fn partition_balance_matches_the_rvp_claims() {
    let (graph, _, _) = instance(512, 11);
    let k = 16usize;
    let stats = RandomVertexPartition::new(&graph, k, 3).stats(&graph);
    let n = graph.num_vertices();
    // Õ(n/k) vertices per machine: allow a generous constant.
    assert!(stats.max_vertices < 3 * n / k);
    assert!(stats.min_vertices > n / (3 * k));
    // Õ(m/k + ∆) stored edge endpoints per machine.
    let bound = 4 * (2 * graph.num_edges() / k + graph.max_degree());
    assert!(stats.max_stored_edges < bound);
}
