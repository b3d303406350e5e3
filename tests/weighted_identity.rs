//! The weight lane's safety rail: an all-weights-1.0 graph must be
//! *bit-identical* to its unweighted twin across every driver — same walk
//! traces, same detections, same CONGEST and k-machine cost ledgers.
//!
//! On an unweighted CSR every weighted accessor degenerates to the old
//! expression exactly (`weighted_degree(v) == degree(v) as f64` is exact for
//! integer-valued f64 below 2⁵³), and with all weights 1.0 the weighted
//! kernels perform the same floating-point operations in the same order as
//! the weightless branch. These property tests pin that equivalence over
//! arbitrary graphs and every ensemble/assembly combination, so any future
//! change that lets the lane leak into unweighted arithmetic fails here
//! first.

use cdrw_repro::core::AssemblyPolicy;
use cdrw_repro::prelude::*;
use cdrw_repro::walk::WalkEngine;
use proptest::prelude::*;

/// Rebuilds `graph` with the weight lane engaged and every weight 1.0.
fn with_unit_weights(graph: &Graph) -> Graph {
    let mut builder = GraphBuilder::new(graph.num_vertices());
    for (u, v) in graph.edges() {
        builder.add_weighted_edge(u, v, 1.0).unwrap();
    }
    let unit = builder.build();
    assert!(unit.is_weighted() || graph.num_edges() == 0);
    unit
}

/// Builds a simple graph on `n` vertices from an arbitrary edge soup
/// (self-loops dropped, duplicates deduplicated by the builder).
fn soup_graph(n: usize, edges: &[(usize, usize)]) -> Option<Graph> {
    let clean: Vec<_> = edges.iter().copied().filter(|(u, v)| u != v).collect();
    if clean.is_empty() {
        return None;
    }
    Some(GraphBuilder::from_edges(n, clean).unwrap())
}

/// The ensemble × assembly combinations every identity check runs under.
fn policy_combos() -> Vec<(EnsemblePolicy, AssemblyPolicy)> {
    vec![
        (EnsemblePolicy::Single, AssemblyPolicy::Raw),
        (
            EnsemblePolicy::Ensemble {
                walks: 3,
                quorum: 2,
            },
            AssemblyPolicy::Raw,
        ),
        (
            EnsemblePolicy::Ensemble {
                walks: 3,
                quorum: 2,
            },
            AssemblyPolicy::Pooled {
                reseed: 2,
                quorum: 1,
            },
        ),
    ]
}

/// Asserts two detection results are the same execution: identical seeds,
/// identical member lists, identical assembled partition.
fn assert_same_result(plain: &DetectionResult, unit: &DetectionResult) {
    assert_eq!(plain.seeds(), unit.seeds());
    assert_eq!(plain.partition(), unit.partition());
    assert_eq!(plain.detections().len(), unit.detections().len());
    for (a, b) in plain.detections().iter().zip(unit.detections()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.members, b.members);
    }
}

proptest! {
    /// Walk traces and workspace invariants: stepping the engine on the
    /// unit-weighted twin produces bit-identical probability planes and the
    /// same support list (the BitMask-backed membership plane) every step.
    #[test]
    fn walk_traces_are_bit_identical_under_unit_weights(
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..50),
        source in 0usize..12,
        laziness in 0.0f64..1.0,
    ) {
        let Some(plain) = soup_graph(12, &edges) else { return Ok(()) };
        let unit = with_unit_weights(&plain);
        let plain_engine = WalkEngine::lazy(&plain, laziness);
        let unit_engine = WalkEngine::lazy(&unit, laziness);
        let mut plain_ws = plain_engine.workspace();
        let mut unit_ws = unit_engine.workspace();
        plain_ws.load_point_mass(source).unwrap();
        unit_ws.load_point_mass(source).unwrap();
        for step in 0..10 {
            plain_engine.step(&mut plain_ws);
            unit_engine.step(&mut unit_ws);
            prop_assert_eq!(plain_ws.support(), unit_ws.support(), "support diverged at step {}", step);
            let plain_bits: Vec<u64> = plain_ws.as_slice().iter().map(|p| p.to_bits()).collect();
            let unit_bits: Vec<u64> = unit_ws.as_slice().iter().map(|p| p.to_bits()).collect();
            prop_assert_eq!(plain_bits, unit_bits, "mass plane diverged at step {}", step);
        }
    }

    /// Sequential driver: identical detections and partitions under every
    /// ensemble/assembly combination.
    #[test]
    fn sequential_detections_are_identical_under_unit_weights(
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..50),
        seed in 0u64..1000,
    ) {
        let Some(plain) = soup_graph(12, &edges) else { return Ok(()) };
        let unit = with_unit_weights(&plain);
        for (ensemble, assembly) in policy_combos() {
            let config = CdrwConfig::builder()
                .seed(seed)
                .delta(0.4)
                .ensemble_policy(ensemble)
                .assembly_policy(assembly)
                .build();
            let plain_run = Cdrw::new(config).detect_all(&plain);
            let unit_run = Cdrw::new(config).detect_all(&unit);
            match (plain_run, unit_run) {
                (Ok(a), Ok(b)) => assert_same_result(&a, &b),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "drivers disagreed: {:?} vs {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }

    /// Parallel driver: the work-stealing runs agree with each other on the
    /// two graphs (same seeds, same workers).
    #[test]
    fn parallel_detections_are_identical_under_unit_weights(
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..50),
        seed in 0u64..1000,
    ) {
        let Some(plain) = soup_graph(12, &edges) else { return Ok(()) };
        let unit = with_unit_weights(&plain);
        let config = CdrwConfig::builder().seed(seed).delta(0.4).build();
        let plain_run = Cdrw::new(config).detect_parallel_with_workers(&plain, 6, 3);
        let unit_run = Cdrw::new(config).detect_parallel_with_workers(&unit, 6, 3);
        match (plain_run, unit_run) {
            (Ok(a), Ok(b)) => assert_same_result(&a, &b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "drivers disagreed: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// CONGEST driver: same detections and the same cost ledger (rounds and
    /// message counts are structural, so the weight lane must not move them).
    #[test]
    fn congest_costs_are_identical_under_unit_weights(
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..50),
        seed in 0u64..1000,
    ) {
        let Some(plain) = soup_graph(12, &edges) else { return Ok(()) };
        let unit = with_unit_weights(&plain);
        let algorithm = CdrwConfig::builder().seed(seed).delta(0.4).build();
        let plain_run = CongestCdrw::new(CongestConfig::new(algorithm)).detect_all(&plain);
        let unit_run = CongestCdrw::new(CongestConfig::new(algorithm)).detect_all(&unit);
        match (plain_run, unit_run) {
            (Ok(a), Ok(b)) => {
                assert_same_result(&a.result, &b.result);
                prop_assert_eq!(a.total, b.total, "CONGEST cost ledgers diverged");
                prop_assert_eq!(a.per_community.len(), b.per_community.len());
                for (ca, cb) in a.per_community.iter().zip(&b.per_community) {
                    prop_assert_eq!(ca.cost, cb.cost);
                    prop_assert_eq!(ca.walk_steps, cb.walk_steps);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "drivers disagreed: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }

    /// k-machine driver: the engine's results, conformance ledgers (per-link
    /// loads included) and partition statistics are identical too.
    #[test]
    fn kmachine_reports_are_identical_under_unit_weights(
        edges in proptest::collection::vec((0usize..12, 0usize..12), 1..50),
        seed in 0u64..1000,
        k in 2usize..6,
    ) {
        let Some(plain) = soup_graph(12, &edges) else { return Ok(()) };
        let unit = with_unit_weights(&plain);
        let congest = CongestConfig::new(CdrwConfig::builder().seed(seed).delta(0.4).build());
        let run = |graph: &Graph| {
            KMachineEngine::new(KMachineConfig::new(k).with_congest(congest).with_partition_seed(seed))
                .unwrap()
                .run(graph)
        };
        match (run(&plain), run(&unit)) {
            (Ok(a), Ok(b)) => {
                assert_same_result(&a.result, &b.result);
                prop_assert_eq!(a.conformance, b.conformance, "k-machine ledgers diverged");
                prop_assert_eq!(a.partition, b.partition);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "drivers disagreed: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}
