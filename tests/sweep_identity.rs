//! The sweep's exactness rail. Under the renormalised criterion
//! `WalkEngine::sweep` must agree bit for bit with the merge-based prefix
//! scan it replaced, on every candidate size's `MixingCheck` and on the
//! selected set. Under every criterion it must select the dense
//! `cdrw_reference::largest_mixing_set`'s sets and decisions on the dense
//! operator's walk.
//!
//! The oracle below is that prefix scan, written out from public API only:
//! it sorts the whole support by `(affinity desc, weighted degree, id)`,
//! merges it with the degree-sorted non-support vertices into one n-length
//! candidate order, and answers every size from running mass and volume
//! sums over it. The engine instead sorts packed keys of the
//! positive-affinity entries and walks the degree order lazily past them,
//! so the states below aim at where the two could part: affinity ties,
//! zero-affinity support entries, an infinite affinity, weighted degrees,
//! a crossing that underflows to 0, and sizes past the support.

use cdrw_reference::{dense_step, largest_mixing_set, Criterion};
use cdrw_repro::gen::special;
use cdrw_repro::prelude::*;
use cdrw_repro::walk::local_mixing::MixingCheck;
use cdrw_repro::walk::{LocalMixingOutcome, MixingCriterion, WalkEngine, WalkWorkspace};
use proptest::prelude::*;
use std::cmp::Ordering;

/// `p(u)/w(u)`, with zero mass at affinity 0 and mass on an isolated vertex
/// at `+∞`.
fn affinity(probability: f64, weighted_degree: f64) -> f64 {
    if probability == 0.0 {
        0.0
    } else if weighted_degree == 0.0 {
        f64::INFINITY
    } else {
        probability / weighted_degree
    }
}

fn degree_cmp(graph: &Graph, a: VertexId, b: VertexId) -> Ordering {
    graph
        .weighted_degree(a)
        .total_cmp(&graph.weighted_degree(b))
        .then(a.cmp(&b))
}

/// The merge-based prefix scan over the sparse state `entries`.
fn oracle_sweep(
    graph: &Graph,
    entries: &[(VertexId, f64)],
    config: &LocalMixingConfig,
) -> LocalMixingOutcome {
    let n = graph.num_vertices();
    let sizes = config.candidate_sizes(n);
    let max_size = sizes.last().copied().unwrap_or(0);
    let mut in_support = vec![false; n];
    for &(v, _) in entries {
        in_support[v] = true;
    }
    let mut order: Vec<VertexId> = graph.vertices().collect();
    order.sort_by(|&a, &b| degree_cmp(graph, a, b));
    let tail: Vec<VertexId> = order.into_iter().filter(|&v| !in_support[v]).collect();
    let mut sorted: Vec<(f64, VertexId, f64)> = entries
        .iter()
        .map(|&(u, p)| (affinity(p, graph.weighted_degree(u)), u, p))
        .collect();
    sorted.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| degree_cmp(graph, a.1, b.1))
    });

    let mut merged = Vec::new();
    let mut merged_affinity = Vec::new();
    let mut cum_mass = vec![0.0f64];
    let mut cum_degree = vec![0.0f64];
    let (mut mass, mut volume) = (0.0f64, 0.0f64);
    let (mut ai, mut di) = (0usize, 0usize);
    while merged.len() < max_size {
        let take_support = ai < sorted.len()
            && (di >= tail.len()
                || sorted[ai].0 > 0.0
                || degree_cmp(graph, sorted[ai].1, tail[di]).is_lt());
        if take_support {
            let (ratio, u, p) = sorted[ai];
            ai += 1;
            mass += p;
            volume += graph.weighted_degree(u);
            merged.push(u);
            merged_affinity.push(ratio);
        } else if di < tail.len() {
            let v = tail[di];
            di += 1;
            volume += graph.weighted_degree(v);
            merged.push(v);
            merged_affinity.push(0.0);
        } else {
            break;
        }
        cum_mass.push(mass);
        cum_degree.push(volume);
    }

    let mut best_size = 0;
    let mut checks = Vec::new();
    for size in sizes {
        let size = size.min(merged.len());
        let average_volume = graph.weighted_volume() / n as f64 * size as f64;
        let retained = cum_mass[size];
        let score_sum = if retained > 0.0 {
            let crossing = retained / average_volume;
            let k = merged_affinity[..size].partition_point(|&a| a >= crossing);
            let mass_low = retained - cum_mass[k];
            let vol_low = cum_degree[size] - cum_degree[k];
            (cum_mass[k] - mass_low) / retained + (vol_low - cum_degree[k]) / average_volume
        } else {
            f64::INFINITY
        };
        let holds = score_sum < config.threshold;
        checks.push(MixingCheck {
            size,
            score_sum,
            holds,
        });
        if holds {
            best_size = size;
        }
    }
    let set = (best_size > 0).then(|| {
        let mut members = merged[..best_size].to_vec();
        members.sort_unstable();
        members
    });
    LocalMixingOutcome { set, checks }
}

fn renormalized(n: usize, min_size: usize) -> LocalMixingConfig {
    LocalMixingConfig {
        min_size,
        criterion: MixingCriterion::Renormalized,
        ..LocalMixingConfig::for_graph_size(n)
    }
}

/// Sweeps `workspace` with the engine and the oracle and asserts the two
/// agree bit for bit; returns the number of checks compared.
fn assert_sweep_matches(
    engine: &WalkEngine<'_>,
    workspace: &mut WalkWorkspace,
    config: &LocalMixingConfig,
    label: &str,
) -> usize {
    let expected = oracle_sweep(engine.graph(), &workspace.snapshot_sparse(), config);
    let actual = engine.sweep(workspace, config).unwrap();
    assert_eq!(
        actual.checks.len(),
        expected.checks.len(),
        "{label}: check count"
    );
    for (a, e) in actual.checks.iter().zip(&expected.checks) {
        assert_eq!(
            (a.size, a.score_sum.to_bits(), a.holds),
            (e.size, e.score_sum.to_bits(), e.holds),
            "{label}: size {} scored {} against the oracle's {}",
            e.size,
            a.score_sum,
            e.score_sum
        );
    }
    assert_eq!(actual.set, expected.set, "{label}: selected set");
    expected.checks.len()
}

/// Steps a walk from `seed` and compares the sweep after each step.
fn assert_walk_matches(graph: &Graph, seed: VertexId, steps: usize, min_size: usize, label: &str) {
    let engine = WalkEngine::new(graph);
    let config = renormalized(graph.num_vertices(), min_size);
    let mut workspace = engine.workspace();
    workspace.load_point_mass(seed).unwrap();
    for step in 1..=steps {
        engine.step(&mut workspace);
        assert_sweep_matches(
            &engine,
            &mut workspace,
            &config,
            &format!("{label}, step {step}"),
        );
    }
}

fn fig4a_ppm(n: usize, seed: u64) -> Graph {
    fig4a_shaped_ppm(n, 8, seed)
}

/// A PPM with Figure 4a's densities, `p = 2·(ln n)²/n` and
/// `p/q = 2^0.6·ln n`, over `blocks` blocks.
fn fig4a_shaped_ppm(n: usize, blocks: usize, seed: u64) -> Graph {
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    generate_ppm(&PpmParams::new(n, blocks, p, q).unwrap(), seed)
        .unwrap()
        .0
}

/// Rebuilds `graph` with deterministic non-uniform edge weights in (0.5, 3).
fn weighted_twin(graph: &Graph) -> Graph {
    let edges = graph
        .edges()
        .map(|(u, v)| (u, v, 0.5 + ((u * 7 + v * 13) % 25) as f64 / 10.0));
    GraphBuilder::from_weighted_edges(graph.num_vertices(), edges).unwrap()
}

#[test]
fn tie_heavy_early_steps_match_the_merge_oracle() {
    // Every vertex of a clique but the bridge ends carries the same mass and
    // degree after a step, so the early supports are runs of exact ties.
    let (ring, _) = special::ring_of_cliques(6, 9).unwrap();
    assert_walk_matches(&ring, 4, 3, 1, "ring of cliques");
    let ppm = fig4a_ppm(512, 11);
    for seed in [0, 200, 511] {
        assert_walk_matches(&ppm, seed, 3, 2, "ppm");
    }
}

#[test]
fn long_walks_match_the_merge_oracle() {
    // Past the early steps the support fills the graph and the affinities
    // crowd around 1/2m, where packed keys tie on their truncated bits.
    let ppm = fig4a_ppm(1024, 5);
    assert_walk_matches(&ppm, 17, 14, 2, "ppm");
    // Four blocks at the paper's smallest candidate size, `⌈ln n⌉`.
    let ppm = fig4a_shaped_ppm(1024, 4, 11);
    let min_size = LocalMixingConfig::for_graph_size(1024).min_size;
    for seed in [0, 300, 777] {
        assert_walk_matches(&ppm, seed, 10, min_size, "four-block ppm");
    }
}

#[test]
fn sizes_beyond_the_support_match_on_an_n_that_is_not_a_power_of_two() {
    let ppm = fig4a_ppm(600, 3);
    assert_eq!(ppm.num_vertices(), 600);
    let engine = WalkEngine::new(&ppm);
    let config = renormalized(600, 1);
    let mut workspace = engine.workspace();
    workspace.load_point_mass(42).unwrap();
    engine.step(&mut workspace);
    let support = workspace.support_size();
    assert!(
        support < 100,
        "one step reaches only the seed's neighbourhood"
    );
    let checks = assert_sweep_matches(&engine, &mut workspace, &config, "one step");
    assert!(
        config
            .candidate_sizes(600)
            .iter()
            .filter(|&&s| s > support)
            .count()
            > 10
    );
    assert!(checks > 10);
}

#[test]
fn zero_and_underflowing_masses_match_the_merge_oracle() {
    let (graph, _) = special::ring_of_cliques(5, 7).unwrap();
    let engine = WalkEngine::new(&graph);
    let config = renormalized(graph.num_vertices(), 1);
    let mut workspace = engine.workspace();
    let tiny = f64::from_bits(1); // the smallest subnormal: tiny / d(v) rounds to 0
                                  // Zero-mass and underflowing entries sit among positive ones, at low and
                                  // high ids, so they interleave with the zero-mass tail by degree.
    let states: [&[(VertexId, f64)]; 4] = [
        &[
            (0, 0.25),
            (1, 0.0),
            (3, tiny),
            (8, 0.25),
            (20, 0.0),
            (34, 0.5),
        ],
        &[(2, 0.0), (5, 0.0), (9, tiny), (30, tiny)],
        // Only subnormal mass: the crossing p(S)/µ′(S) underflows to 0, so
        // the zero-affinity candidates land on its high side.
        &[
            (4, tiny),
            (6, f64::from_bits(64)),
            (10, f64::from_bits(8)),
            (11, 0.0),
        ],
        &[(7, 1.0)],
    ];
    for (i, entries) in states.into_iter().enumerate() {
        workspace.load_sparse(entries).unwrap();
        assert_sweep_matches(&engine, &mut workspace, &config, &format!("state {i}"));
    }
}

#[test]
fn mass_on_an_isolated_vertex_matches_the_merge_oracle() {
    // Vertex 12 has no edges: its affinity is +∞ and it leads every prefix.
    let edges = (0..12).flat_map(|u| [(u, (u + 1) % 12), (u, (u + 5) % 12)]);
    let graph = GraphBuilder::from_edges(13, edges).unwrap();
    assert_eq!(graph.degree(12), 0);
    let engine = WalkEngine::new(&graph);
    let config = renormalized(13, 1);
    let mut workspace = engine.workspace();
    workspace
        .load_sparse(&[(0, 0.3), (3, 0.0), (5, 0.2), (12, 0.5)])
        .unwrap();
    assert_sweep_matches(&engine, &mut workspace, &config, "isolated vertex");
    workspace.load_sparse(&[(12, 1.0)]).unwrap();
    assert_sweep_matches(&engine, &mut workspace, &config, "all mass isolated");
}

#[test]
fn weighted_walks_match_the_merge_oracle() {
    let ppm = weighted_twin(&fig4a_ppm(384, 9));
    assert!(ppm.is_weighted());
    assert_walk_matches(&ppm, 100, 8, 1, "weighted ppm");
    let (ring, _) = special::ring_of_cliques(4, 6).unwrap();
    let ring = weighted_twin(&ring);
    assert_walk_matches(&ring, 0, 5, 1, "weighted ring");
    let engine = WalkEngine::new(&ring);
    let mut workspace = engine.workspace();
    workspace
        .load_sparse(&[(1, 0.5), (2, 0.0), (9, f64::from_bits(1)), (17, 0.5)])
        .unwrap();
    assert_sweep_matches(
        &engine,
        &mut workspace,
        &renormalized(24, 1),
        "weighted sparse",
    );
}

/// Walks `steps` steps from `seed` on the engine and on the dense operator,
/// both at each criterion's laziness, and after each step asserts that the
/// engine's sweep selects the dense sweep's set and makes its decisions,
/// with score sums within 1e-9 (the prefix scan regroups them).
fn assert_criteria_match_dense(graph: &Graph, seed: VertexId, steps: usize, label: &str) {
    let n = graph.num_vertices();
    for (criterion, oracle) in MixingCriterion::all().into_iter().zip(Criterion::ALL) {
        let engine = WalkEngine::lazy(graph, criterion.laziness());
        let config = LocalMixingConfig {
            criterion,
            min_size: 2,
            ..LocalMixingConfig::default()
        };
        let mut workspace = engine.workspace();
        workspace.load_point_mass(seed).unwrap();
        let mut dense = vec![0.0; n];
        dense[seed] = 1.0;
        for step in 1..=steps {
            engine.step(&mut workspace);
            dense = dense_step(graph, criterion.laziness(), &dense);
            let label = format!("{label}, {}, step {step}", criterion.name());
            let actual = engine.sweep(&mut workspace, &config).unwrap();
            let expected = largest_mixing_set(graph, &dense, config.min_size, oracle);
            assert_eq!(actual.set, expected.set, "{label}: selected set");
            assert_eq!(
                actual.checks.len(),
                expected.checks.len(),
                "{label}: check count"
            );
            for (a, e) in actual.checks.iter().zip(&expected.checks) {
                assert_eq!((a.size, a.holds), (e.size, e.holds), "{label}");
                assert!(
                    (a.score_sum - e.score_sum).abs() < 1e-9
                        || (a.score_sum.is_infinite() && e.score_sum.is_infinite()),
                    "{label}: size {} scored {} against the dense {}",
                    e.size,
                    a.score_sum,
                    e.score_sum
                );
            }
        }
    }
}

#[test]
fn every_criterion_matches_the_dense_sweep() {
    let ppm = fig4a_ppm(256, 11);
    for seed in [0, 255] {
        assert_criteria_match_dense(&ppm, seed, 8, "ppm");
    }
    assert_criteria_match_dense(&weighted_twin(&ppm), 7, 6, "weighted ppm");
    let (ring, _) = special::ring_of_cliques(6, 9).unwrap();
    assert_criteria_match_dense(&ring, 4, 10, "ring of cliques");
}

proptest! {
    /// Arbitrary graphs and sparse states, masses drawn to include exact
    /// zeros, subnormals and repeated values.
    #[test]
    fn arbitrary_sparse_states_match_the_merge_oracle(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 1..80),
        masses in proptest::collection::vec((0usize..40, 0u64..6), 1..40),
        weighted in 0u8..2,
    ) {
        let clean: Vec<_> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .filter(|(u, v)| u != v)
            .collect();
        prop_assume!(!clean.is_empty());
        let graph = GraphBuilder::from_edges(n, clean).unwrap();
        let graph = if weighted == 1 { weighted_twin(&graph) } else { graph };
        let mut entries: Vec<(VertexId, f64)> = masses
            .into_iter()
            .map(|(v, m)| {
                let mass = match m {
                    0 => 0.0,
                    1 => f64::from_bits(1),
                    2 => 0.125,
                    3 => 0.25,
                    4 => 1.0 / 3.0,
                    _ => 1e-300,
                };
                (v % n, mass)
            })
            .collect();
        entries.sort_by_key(|&(v, _)| v);
        entries.dedup_by_key(|&mut (v, _)| v);
        let engine = WalkEngine::new(&graph);
        let mut workspace = engine.workspace();
        workspace.load_sparse(&entries).unwrap();
        assert_sweep_matches(&engine, &mut workspace, &renormalized(n, 1), "arbitrary state");
    }
}
