//! Every driver runs the same Algorithm-1 pipeline, so the CONGEST runner's
//! and the k-machine engine's results must equal `Cdrw::detect_all`'s as
//! whole values — detections, traces, partition and assembly report. The
//! chain is rooted in the paper: under the strict criterion, one walk per
//! detection and first-claim results, `Cdrw::detect_all` must equal the
//! dense, line-by-line Algorithm 1 of `cdrw_reference::reference_detect_all`
//! (reference → sequential → CONGEST → k-machine). The k-machine runs must
//! also measure exactly the messages the CONGEST model charges, and a
//! crashed shard must recover to the same result.

use cdrw_reference::reference_detect_all;
use cdrw_repro::core::{
    shuffled_seed_pool, AssemblyPolicy, CommunityDetection, DetectionTrace, EnsemblePolicy,
    MixingCriterion, StepTrace,
};
use cdrw_repro::kmachine::{FaultPlan, KMachineEngine};
use cdrw_repro::prelude::*;

/// The k-machine engine on `k` shards for `algorithm`.
fn sharded(k: usize, algorithm: CdrwConfig) -> KMachineEngine {
    KMachineEngine::new(
        KMachineConfig::new(k)
            .with_congest(CongestConfig::new(algorithm))
            .with_partition_seed(5),
    )
    .unwrap()
}

/// Runs the k-machine engine for k ∈ {1, 2, 3, 8}: each result must equal
/// `sequential`, and the conformance ledger must show measured == modelled
/// messages per physical round, in total and per detection.
fn assert_sharded_runs_match(
    graph: &Graph,
    algorithm: CdrwConfig,
    sequential: &DetectionResult,
    what: &str,
) {
    // With k ≥ 3 a source's share goes to some peer shards but not all.
    for k in [1, 2, 3, 8] {
        let report = sharded(k, algorithm).run(graph).unwrap();
        assert_eq!(report.result, *sequential, "k = {k}, {what}");
        let ledger = &report.conformance;
        for round in &ledger.per_round {
            assert_eq!(
                round.measured_messages, round.modelled_messages,
                "k = {k}, {what}: round {}",
                round.round
            );
        }
        assert_eq!(
            ledger.measured_messages, ledger.modelled_messages,
            "k = {k}, {what}: total"
        );
        assert_eq!(ledger.per_detection.len(), sequential.detections().len());
        for flood in &ledger.per_detection {
            assert_eq!(
                flood.measured_messages, flood.modelled_messages,
                "k = {k}, {what}: detection seeded at {}",
                flood.seed
            );
        }
    }
}

/// The two-block PPM of the identity tests with three zero-degree vertices
/// appended.
fn ppm_with_isolates() -> Graph {
    let params = PpmParams::new(160, 2, 0.12, 0.004).unwrap();
    let (ppm, _) = generate_ppm(&params, 29).unwrap();
    GraphBuilder::from_edges(163, ppm.edges()).unwrap()
}

/// `reference_detect_all`'s detections over the configuration's seed pool,
/// as the result `Cdrw::detect_all` reports.
fn reference_result(graph: &Graph, seed: u64, delta: f64) -> DetectionResult {
    let n = graph.num_vertices();
    let detections = reference_detect_all(graph, &shuffled_seed_pool(n, seed), delta)
        .into_iter()
        .map(|detection| CommunityDetection {
            seed: detection.seed,
            members: detection.members,
            trace: DetectionTrace {
                steps: detection
                    .steps
                    .iter()
                    .map(|&(walk_length, mixing_set_size, sizes_checked)| StepTrace {
                        walk_length,
                        mixing_set_size,
                        sizes_checked,
                    })
                    .collect(),
                stopped_by_growth_rule: detection.stopped_by_growth_rule,
                delta,
                ensemble: None,
            },
        })
        .collect();
    DetectionResult::new(n, detections, delta)
}

#[test]
fn the_paper_literal_algorithm_roots_the_driver_chain() {
    let four_blocks = generate_ppm(&PpmParams::new(200, 4, 0.2, 0.005).unwrap(), 3)
        .unwrap()
        .0;
    let gnp = generate_gnp(&GnpParams::new(128, 0.08).unwrap(), 5).unwrap();
    for (label, graph, delta) in [
        ("ppm with isolates", ppm_with_isolates(), 0.1),
        ("gnp", gnp, 0.2),
        ("four-block ppm", four_blocks, 0.1),
    ] {
        let algorithm = CdrwConfig::builder()
            .seed(11)
            .delta(delta)
            .criterion(MixingCriterion::Strict)
            .build();
        let sequential = Cdrw::new(algorithm).detect_all(&graph).unwrap();
        let reference = reference_result(&graph, 11, delta);
        assert_eq!(sequential, reference, "{label}: reference");
        // The input exercises the growth rule and finds real communities.
        let detections = reference.detections();
        assert!(detections.iter().any(|d| d.trace.stopped_by_growth_rule));
        assert!(detections.iter().any(|d| d.members.len() > 16), "{label}");
        let congest = CongestCdrw::new(CongestConfig::new(algorithm))
            .detect_all(&graph)
            .unwrap();
        assert_eq!(congest.result, sequential, "{label}: CONGEST");
        assert_sharded_runs_match(&graph, algorithm, &sequential, label);
    }
}

#[test]
fn a_crashed_shard_recovers_the_sequential_result() {
    let graph = ppm_with_isolates();
    let algorithm = CdrwConfig::builder().seed(11).delta(0.1).build();
    let sequential = Cdrw::new(algorithm).detect_all(&graph).unwrap();
    let plan = FaultPlan::seeded(41).with_crash(1, 6);
    let report = sharded(2, algorithm).run_chaos(&graph, &plan).unwrap();
    assert_eq!(report.result, sequential);
    assert_eq!(report.fault_log.recoveries.len(), 1);
    // The plan drops nothing, so the replayed command log brings the
    // replacement up to date without it asking for a resend.
    assert_eq!(report.fault_log.nacks, 0, "{:?}", report.fault_log);
    for round in &report.conformance.per_round {
        assert_eq!(
            round.measured_messages, round.modelled_messages,
            "round {}",
            round.round
        );
    }
}

#[test]
fn congest_and_kmachine_results_equal_the_sequential_result() {
    let graph = ppm_with_isolates();
    let ensemble = EnsemblePolicy::Ensemble {
        walks: 3,
        quorum: 2,
    };
    let pooled = AssemblyPolicy::Pooled {
        reseed: 3,
        quorum: 2,
    };
    for (ensemble, assembly) in [
        (EnsemblePolicy::Single, AssemblyPolicy::Raw),
        (ensemble, AssemblyPolicy::Raw),
        (EnsemblePolicy::Single, pooled),
    ] {
        let algorithm = CdrwConfig::builder()
            .seed(11)
            .delta(0.1)
            .ensemble_policy(ensemble)
            .assembly_policy(assembly)
            .build();
        let sequential = Cdrw::new(algorithm).detect_all(&graph).unwrap();
        let congest = CongestCdrw::new(CongestConfig::new(algorithm))
            .detect_all(&graph)
            .unwrap();
        assert_eq!(
            congest.result, sequential,
            "CONGEST, {ensemble:?}/{assembly:?}"
        );
        // Each isolate seeds its own detection, which communicates nothing.
        let isolated: Vec<_> = congest
            .per_community
            .iter()
            .filter(|c| c.seed >= 160)
            .collect();
        assert_eq!(isolated.len(), 3);
        for cost in isolated {
            assert_eq!((cost.community_size, cost.walks), (1, 1));
            assert_eq!((cost.walk_steps, cost.size_checks), (0, 0));
            assert_eq!(cost.cost, Default::default(), "seed {}", cost.seed);
            assert_eq!(cost.flood, Default::default(), "seed {}", cost.seed);
        }
        assert_sharded_runs_match(
            &graph,
            algorithm,
            &sequential,
            &format!("{ensemble:?}/{assembly:?}"),
        );
    }
}

#[test]
fn kmachine_results_equal_the_sequential_result_on_a_weighted_ppm() {
    // The two-block PPM re-weighted heavier inside the blocks than across:
    // the receivers multiply each share by the weight stored in their own
    // rows.
    let params = PpmParams::new(160, 2, 0.12, 0.004).unwrap();
    let (ppm, truth) = generate_ppm(&params, 29).unwrap();
    let mut builder = GraphBuilder::new(160);
    for (u, v) in ppm.edges() {
        let same_block = truth.community_of(u) == truth.community_of(v);
        let w = if same_block { 1.5 } else { 0.5 } + ((u + v) % 4) as f64 * 0.25;
        builder.add_weighted_edge(u, v, w).unwrap();
    }
    let graph = builder.build();
    assert!(graph.is_weighted());
    let algorithm = CdrwConfig::builder().seed(11).delta(0.1).build();
    let sequential = Cdrw::new(algorithm).detect_all(&graph).unwrap();
    for k in [2, 3] {
        let engine = KMachineEngine::new(
            KMachineConfig::new(k)
                .with_congest(CongestConfig::new(algorithm))
                .with_partition_seed(5),
        )
        .unwrap();
        assert_eq!(engine.run(&graph).unwrap().result, sequential, "k = {k}");
    }
}
