//! Microbenchmarks of the substrates the headline results depend on:
//! graph generation, one walk step, one local-mixing sweep, and the F-score
//! computation. These are not paper figures; they document where the time in
//! the `experiments` tables goes.
//!
//! The `sparse_vs_dense_*` groups measure the frontier engine
//! (`WalkEngine`/`WalkWorkspace`) against the dense oracles of
//! `cdrw-reference` (`dense_step`, `largest_mixing_set`) on G(n,p) and PPM
//! instances up to n = 2¹⁶, in the early-walk regime where the walk's
//! support is a small fraction of the graph — exactly the regime CDRW's
//! `O(r log⁴ n)` round bound exploits.

use cdrw_gen::{generate_gnp, generate_ppm, GnpParams, PpmParams};
use cdrw_graph::Graph;
use cdrw_metrics::f_score;
use cdrw_reference as reference;
use cdrw_walk::{LocalMixingConfig, MixingCriterion, WalkBatch, WalkEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let n = 2048usize;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let params = PpmParams::new(n, 2, p, 0.6 / n as f64).unwrap();
    let (graph, truth) = generate_ppm(&params, 3).unwrap();

    c.bench_function("generate_ppm_n2048", |b| {
        b.iter(|| black_box(generate_ppm(&params, 4).unwrap()));
    });

    let engine = WalkEngine::new(&graph);
    let mut spread = engine.workspace();
    spread.load_point_mass(0).unwrap();
    for _ in 0..6 {
        engine.step(&mut spread);
    }
    c.bench_function("walk_step_n2048", |b| {
        b.iter(|| {
            let mut workspace = spread.clone();
            engine.step(&mut workspace);
            black_box(workspace.support_size())
        });
    });

    let min_size = LocalMixingConfig::for_graph_size(n).min_size;
    c.bench_function("local_mixing_sweep_n2048", |b| {
        b.iter(|| {
            black_box(reference::largest_mixing_set(
                &graph,
                spread.as_slice(),
                min_size,
                reference::Criterion::Strict,
            ))
        });
    });

    c.bench_function("f_score_n2048", |b| {
        b.iter(|| black_box(f_score(&truth, &truth)));
    });

    let mut group = c.benchmark_group("generate_ppm_scaling");
    group.sample_size(10);
    for &size in &[512usize, 2048, 8192] {
        let p = 2.0 * (size as f64).ln() / size as f64;
        let params = PpmParams::new(size, 4, p, p / 50.0).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(size), &params, |b, params| {
            b.iter(|| black_box(generate_ppm(params, 1).unwrap()));
        });
    }
    group.finish();
}

/// The instances the sparse-vs-dense comparison runs on.
fn comparison_instances() -> Vec<(String, Graph)> {
    let mut instances = Vec::new();
    for &n in &[4096usize, 65536] {
        let p = 2.0 * (n as f64).ln() / n as f64;
        let gnp = generate_gnp(&GnpParams::new(n, p).unwrap(), 7).unwrap();
        instances.push((format!("gnp_n{n}"), gnp));
        let params = PpmParams::new(n, 4, p.min(1.0), p / 50.0).unwrap();
        let (ppm, _) = generate_ppm(&params, 7).unwrap();
        instances.push((format!("ppm_n{n}"), ppm));
    }
    instances
}

/// Walk steps that keep the support small relative to n (the early regime).
const EARLY_STEPS: usize = 3;

fn bench_sparse_vs_dense_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense_step");
    group.sample_size(10);
    for (label, graph) in comparison_instances() {
        let n = graph.num_vertices();
        let engine = WalkEngine::new(&graph);

        // Report the regime: how much of the graph the walk touches.
        let mut probe = engine.workspace();
        probe.load_point_mass(0).unwrap();
        for _ in 0..EARLY_STEPS {
            engine.step(&mut probe);
        }
        println!(
            "{label}: support after {EARLY_STEPS} steps = {} of {n} vertices",
            probe.support_size()
        );

        let mut workspace = engine.workspace();
        group.bench_with_input(BenchmarkId::new("sparse", &label), &graph, |b, _| {
            b.iter(|| {
                workspace.load_point_mass(0).unwrap();
                for _ in 0..EARLY_STEPS {
                    engine.step(&mut workspace);
                }
                black_box(workspace.support_size())
            });
        });
        group.bench_with_input(BenchmarkId::new("dense", &label), &graph, |b, _| {
            b.iter(|| {
                let mut distribution = vec![0.0; n];
                distribution[0] = 1.0;
                for _ in 0..EARLY_STEPS {
                    distribution = reference::dense_step(&graph, 0.0, &distribution);
                }
                black_box(distribution.iter().filter(|&&p| p > 0.0).count())
            });
        });
    }
    group.finish();
}

fn bench_sparse_vs_dense_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense_sweep");
    group.sample_size(10);
    for (label, graph) in comparison_instances() {
        let n = graph.num_vertices();
        let engine = WalkEngine::new(&graph);
        let config = LocalMixingConfig::for_graph_size(n);

        // Early-walk state shared by both sides.
        let mut workspace = engine.workspace();
        workspace.load_point_mass(0).unwrap();
        for _ in 0..EARLY_STEPS {
            engine.step(&mut workspace);
        }
        let distribution = workspace.as_slice().to_vec();

        group.bench_with_input(BenchmarkId::new("sparse", &label), &graph, |b, _| {
            b.iter(|| black_box(engine.sweep(&mut workspace, &config).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("dense", &label), &graph, |b, _| {
            b.iter(|| {
                black_box(reference::largest_mixing_set(
                    &graph,
                    &distribution,
                    config.min_size,
                    reference::Criterion::Strict,
                ))
            });
        });
    }
    group.finish();
}

/// A fig4a-shaped sparse PPM (8 blocks, `p = 2·(ln n)²/n`,
/// `p/q = 2^0.6·ln n`) — the regime the renormalised sweep and the
/// ensemble's follow-up walks run hottest on.
fn fig4a_instance(n: usize) -> Graph {
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, 8, p, q).unwrap();
    generate_ppm(&params, 20190416).unwrap().0
}

fn bench_renormalized_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("renormalized_sweep");
    group.sample_size(10);
    for &n in &[2048usize, 8192] {
        let graph = fig4a_instance(n);
        let engine = WalkEngine::new(&graph);
        let config = LocalMixingConfig {
            criterion: MixingCriterion::Renormalized,
            ..LocalMixingConfig::for_graph_size(n)
        };
        let mut workspace = engine.workspace();
        workspace.load_point_mass(0).unwrap();
        for _ in 0..8 {
            engine.step(&mut workspace);
        }
        println!(
            "fig4a n={n}: support after 8 steps = {} of {n} vertices",
            workspace.support_size()
        );
        group.bench_with_input(BenchmarkId::new("prefix_scan", n), &n, |b, _| {
            b.iter(|| black_box(engine.sweep(&mut workspace, &config).unwrap()));
        });
    }
    group.finish();
}

fn bench_batched_vs_sequential_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_vs_sequential_step");
    group.sample_size(10);
    // Follow-up walks start inside one block, so their supports overlap
    // heavily — the case batching is built for.
    const LANES: usize = 4;
    const STEPS: usize = 6;
    for &n in &[2048usize, 8192] {
        let graph = fig4a_instance(n);
        let engine = WalkEngine::new(&graph);
        let seeds: Vec<usize> = (0..LANES).collect();
        let mut batch = WalkBatch::for_graph(&graph);
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| {
                batch.load_point_masses(&seeds).unwrap();
                for _ in 0..STEPS {
                    engine.step_batch(&mut batch);
                }
                black_box(batch.lane(0).support_size())
            });
        });
        let mut workspace = engine.workspace();
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| {
                let mut touched = 0usize;
                for &seed in &seeds {
                    workspace.load_point_mass(seed).unwrap();
                    for _ in 0..STEPS {
                        engine.step(&mut workspace);
                    }
                    touched += workspace.support_size();
                }
                black_box(touched)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_substrates,
    bench_sparse_vs_dense_step,
    bench_sparse_vs_dense_sweep,
    bench_renormalized_sweep,
    bench_batched_vs_sequential_step
);
criterion_main!(benches);
