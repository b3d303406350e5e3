//! Every driver runs the same Algorithm-1 pipeline, so the CONGEST runner's
//! and the k-machine engine's results must equal `Cdrw::detect_all`'s as
//! whole values — detections, traces, partition and assembly report.

use cdrw_repro::core::{AssemblyPolicy, EnsemblePolicy};
use cdrw_repro::kmachine::KMachineEngine;
use cdrw_repro::prelude::*;

#[test]
fn congest_and_kmachine_results_equal_the_sequential_result() {
    // A two-block PPM with three zero-degree vertices appended.
    let params = PpmParams::new(160, 2, 0.12, 0.004).unwrap();
    let (ppm, _) = generate_ppm(&params, 29).unwrap();
    let graph = GraphBuilder::from_edges(163, ppm.edges()).unwrap();
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
        // With k ≥ 3 a source's share goes to some peer shards but not all.
        for k in [1, 2, 3, 8] {
            let engine = KMachineEngine::new(
                KMachineConfig::new(k)
                    .with_congest(CongestConfig::new(algorithm))
                    .with_partition_seed(5),
            )
            .unwrap();
            let sharded = engine.run(&graph).unwrap();
            assert_eq!(
                sharded.result, sequential,
                "k = {k}, {ensemble:?}/{assembly:?}"
            );
        }
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
