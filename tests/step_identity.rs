//! The walk step's exactness rail: the solo `WalkEngine::step` and every
//! lane of a batched `WalkEngine::step_batch` must reproduce the dense
//! operator `cdrw_reference::dense_step` bit for bit, step after step.
//!
//! The dense operator loops over all `n` vertices and shares no stepping
//! code with the engine, so it is the independent oracle for the push
//! scatter both engine paths run. Nine lanes are more than one pull chunk
//! of eight, and the walks start as point masses and spread over the graph:
//! the batch pushes its first steps and pulls its last ones, so both
//! directions are checked. Laziness 0.3 joins 0 and 0.5 because scaling by
//! 1 − α is exact for those two, so only a non-dyadic α pins the order of
//! the share expression's rounding steps.

use cdrw_reference::dense_step;
use cdrw_repro::prelude::*;
use cdrw_repro::walk::WalkBatch;

const STEPS: usize = 12;
const SEEDS: [VertexId; 9] = [0, 1, 37, 64, 100, 129, 180, 200, 255];

/// A four-block PPM on 256 vertices.
fn ppm() -> Graph {
    let params = PpmParams::new(256, 4, 0.2, 0.01).unwrap();
    generate_ppm(&params, 7).unwrap().0
}

/// The PPM with the weight lane engaged: weights from 0.5 to 2.25 that vary
/// across every row.
fn weighted_ppm() -> Graph {
    let graph = ppm();
    let mut builder = GraphBuilder::new(graph.num_vertices());
    for (u, v) in graph.edges() {
        let weight = 0.5 + ((u * 7 + v * 13) % 8) as f64 / 4.0;
        builder.add_weighted_edge(u, v, weight).unwrap();
    }
    builder.build()
}

fn point_mass(n: usize, seed: VertexId) -> Vec<f64> {
    WalkDistribution::point_mass(n, seed)
        .unwrap()
        .as_slice()
        .to_vec()
}

/// The bits of each probability, so `-0.0` and `+0.0` compare unequal.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|p| p.to_bits()).collect()
}

/// Asserts `ws` holds exactly `dense`: every probability bit for bit, and a
/// support that lists exactly the non-zero entries in ascending order.
fn assert_matches_dense(ws: &WalkWorkspace, dense: &[f64], what: &str) {
    assert_eq!(bits(ws.as_slice()), bits(dense), "{what}: mass");
    let nonzero: Vec<VertexId> = (0..dense.len()).filter(|&v| dense[v] != 0.0).collect();
    assert_eq!(ws.support(), nonzero.as_slice(), "{what}: support");
}

/// Whether the batch's next step pulls: its lanes' summed support volume
/// has reached a quarter of the graph volume (see the `cdrw_walk::batch`
/// module docs).
fn pulls_next(graph: &Graph, batch: &WalkBatch) -> bool {
    let volume: usize = (0..SEEDS.len())
        .flat_map(|l| batch.lane(l).support().iter())
        .map(|&u| graph.degree(u))
        .sum();
    volume * 4 >= graph.total_volume()
}

fn check(graph: &Graph, laziness: f64) {
    let engine = WalkEngine::lazy(graph, laziness);
    let mut solo = engine.workspace();
    let mut batch = WalkBatch::for_graph(graph);
    batch.load_point_masses(&SEEDS).unwrap();
    let mut dense: Vec<Vec<f64>> = SEEDS
        .iter()
        .map(|&s| point_mass(graph.num_vertices(), s))
        .collect();
    let mut pushed = false;
    let mut pulled = false;
    for step in 1..=STEPS {
        if pulls_next(graph, &batch) {
            pulled = true;
        } else {
            pushed = true;
        }
        engine.step_batch(&mut batch);
        for (lane, oracle) in dense.iter_mut().enumerate() {
            *oracle = dense_step(graph, laziness, oracle);
            let what = format!("laziness {laziness}, lane {lane}, step {step}");
            assert_matches_dense(batch.lane(lane), oracle, &format!("batched {what}"));
        }
    }
    assert!(pushed && pulled, "the batch must take both directions");

    // The solo step, re-seeding one workspace for every seed.
    for &seed in &SEEDS {
        solo.load_point_mass(seed).unwrap();
        let mut oracle = point_mass(graph.num_vertices(), seed);
        for step in 1..=STEPS {
            engine.step(&mut solo);
            oracle = dense_step(graph, laziness, &oracle);
            let what = format!("solo laziness {laziness}, seed {seed}, step {step}");
            assert_matches_dense(&solo, &oracle, &what);
        }
    }
}

#[test]
fn unweighted_steps_are_bit_identical_to_the_dense_operator() {
    let graph = ppm();
    assert!(!graph.is_weighted());
    for laziness in [0.0, 0.3, 0.5] {
        check(&graph, laziness);
    }
}

#[test]
fn weighted_steps_are_bit_identical_to_the_dense_operator() {
    let graph = weighted_ppm();
    assert!(graph.is_weighted());
    for laziness in [0.0, 0.3, 0.5] {
        check(&graph, laziness);
    }
}
