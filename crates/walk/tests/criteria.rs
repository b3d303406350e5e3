//! Integration tests for the pluggable mixing criteria: behaviour on the
//! regimes that motivated them, and cross-criterion invariants the unit
//! tests don't cover.

use cdrw_gen::{generate_ppm, special, PpmParams};
use cdrw_reference::{dense_step, largest_mixing_set, mixing_check, Criterion};
use cdrw_walk::{LocalMixingConfig, MixingCriterion, WalkEngine};

/// The motivating regime: a multi-block PPM where mass leaks across blocks
/// faster than it equalises inside one. The strict rule stops firing once the
/// leak has consumed its `1/2e` budget; the renormalised rule keeps seeing
/// the block.
#[test]
fn renormalized_fires_where_strict_under_fires() {
    let params = PpmParams::new(256, 4, 0.3, 0.004).unwrap();
    let (graph, truth) = generate_ppm(&params, 7).unwrap();
    let engine = WalkEngine::new(&graph);
    let mut ws = engine.workspace();
    ws.load_point_mass(0).unwrap();
    for _ in 0..12 {
        engine.step(&mut ws);
    }
    let strict = LocalMixingConfig {
        criterion: MixingCriterion::Strict,
        ..LocalMixingConfig::for_graph_size(256)
    };
    let renorm = LocalMixingConfig {
        criterion: MixingCriterion::Renormalized,
        ..LocalMixingConfig::for_graph_size(256)
    };
    let strict_outcome = engine.sweep(&mut ws, &strict).unwrap();
    assert!(
        !strict_outcome.found(),
        "strict unexpectedly found {} vertices",
        strict_outcome.size()
    );
    let renorm_outcome = engine.sweep(&mut ws, &renorm).unwrap();
    let set = renorm_outcome.set.expect("renormalised criterion fires");
    let block0 = truth.members(0);
    let inside = set.iter().filter(|v| block0.contains(v)).count();
    assert_eq!(inside, block0.len(), "the whole seed block is covered");
    assert!(
        set.len() < 128,
        "the set stays block-sized, got {}",
        set.len()
    );
}

/// The renormalised criterion's candidate order is independent of the
/// candidate size, so its mixing sets are nested: every passing size's set
/// contains every smaller passing size's set.
#[test]
fn renormalized_sets_are_nested_across_sizes() {
    let (graph, _) = special::ring_of_cliques(4, 16).unwrap();
    let engine = WalkEngine::new(&graph);
    let mut ws = engine.workspace();
    ws.load_point_mass(3).unwrap();
    for _ in 0..8 {
        engine.step(&mut ws);
    }
    let config = LocalMixingConfig {
        criterion: MixingCriterion::Renormalized,
        min_size: 2,
        ..LocalMixingConfig::default()
    };
    let mut previous: Option<Vec<usize>> = None;
    for size in config.candidate_sizes(graph.num_vertices()) {
        let (check, members) = mixing_check(&graph, ws.as_slice(), size, Criterion::Renormalized);
        if let (Some(prev), true) = (&previous, check.holds) {
            let members = members.as_ref().unwrap();
            for v in prev {
                assert!(
                    members.binary_search(v).is_ok(),
                    "size {size} dropped vertex {v}"
                );
            }
        }
        if check.holds {
            previous = members;
        }
    }
    assert!(previous.is_some(), "at least one size passed");
}

/// The lazy criterion evaluated on the lazy walk fires on an even cycle,
/// where the simple walk is periodic and the strict criterion can never mix
/// over the whole graph.
#[test]
fn lazy_criterion_fires_on_periodic_structures() {
    let (cycle, _) = special::cycle(16).unwrap();
    let strict_config = LocalMixingConfig {
        min_size: 2,
        ..LocalMixingConfig::default()
    };
    let lazy_config = LocalMixingConfig {
        criterion: MixingCriterion::lazy(),
        ..strict_config
    };

    // Simple walk: the distribution alternates between odd and even
    // vertices, so the full-graph set never passes the strict test.
    let simple = WalkEngine::new(&cycle);
    let mut ws = simple.workspace();
    ws.load_point_mass(0).unwrap();
    for _ in 0..200 {
        simple.step(&mut ws);
    }
    let strict_outcome = simple.sweep(&mut ws, &strict_config).unwrap();
    assert!(strict_outcome.size() < 16);

    // Lazy walk with the matching criterion: converges to stationarity and
    // mixes over the whole cycle (budget stretched by the multiplier).
    let lazy = WalkEngine::lazy(&cycle, MixingCriterion::lazy().laziness());
    let mut ws = lazy.workspace();
    ws.load_point_mass(0).unwrap();
    let steps = (200.0 * MixingCriterion::lazy().walk_length_multiplier()) as usize;
    for _ in 0..steps {
        lazy.step(&mut ws);
    }
    let lazy_outcome = lazy.sweep(&mut ws, &lazy_config).unwrap();
    assert_eq!(lazy_outcome.size(), 16, "lazy walk mixes over the cycle");
}

/// Each criterion's sparse sweep agrees with the dense reference on a real
/// multi-block instance (the unit property tests cover small random graphs).
#[test]
fn sparse_and_dense_agree_for_every_criterion_on_ppm() {
    let params = PpmParams::new(200, 2, 0.25, 0.01).unwrap();
    let (graph, _) = generate_ppm(&params, 11).unwrap();
    for (criterion, oracle) in MixingCriterion::all().into_iter().zip(Criterion::ALL) {
        let engine = WalkEngine::lazy(&graph, criterion.laziness());
        let mut ws = engine.workspace();
        ws.load_point_mass(5).unwrap();
        let mut dense = ws.as_slice().to_vec();
        let config = LocalMixingConfig {
            criterion,
            ..LocalMixingConfig::for_graph_size(200)
        };
        for step in 1..=10 {
            engine.step(&mut ws);
            dense = dense_step(&graph, criterion.laziness(), &dense);
            let sparse_outcome = engine.sweep(&mut ws, &config).unwrap();
            let dense_outcome = largest_mixing_set(&graph, &dense, config.min_size, oracle);
            assert_eq!(
                sparse_outcome.set,
                dense_outcome.set,
                "criterion {} diverged at step {step}",
                criterion.name()
            );
            assert_eq!(sparse_outcome.checks.len(), dense_outcome.checks.len());
            for (s, d) in sparse_outcome.checks.iter().zip(&dense_outcome.checks) {
                assert_eq!(s.size, d.size);
                assert_eq!(s.holds, d.holds, "criterion {}", criterion.name());
                assert!((s.score_sum - d.score_sum).abs() < 1e-9);
            }
        }
    }
}
