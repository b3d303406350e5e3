//! Perf-smoke acceptance tests for the hot-loop work.
//!
//! These pin the *shape* of the speedups, not wall-clock absolutes:
//! batched stepping must not lose to sequential stepping on overlapping
//! walks, the work-stealing parallel driver must scale on a multi-core
//! runner, the weight-lane dispatch must cost ≤ 1.1× on the unweighted step
//! path against the preserved pre-weight-lane kernel, the fault-free chaos
//! wrapper must cost ≤ 1.1× of the bare sharded run (the zero plan
//! short-circuits to the inner transport), and a two-shard run must cost
//! ≤ 2.2× of the sequential run on a clear-cell PPM. Every bar gates the
//! median ratio of warmed, interleaved pairs ([`perf::median_pair`]), so
//! scheduler noise shifts the ratio, not the verdict.

use cdrw_bench::perf::{self, median_pair};
use cdrw_congest::CongestConfig;
use cdrw_core::{Cdrw, CdrwConfig};
use cdrw_gen::{generate_ppm, params, PpmParams};
use cdrw_kmachine::{FaultPlan, KMachineConfig, KMachineEngine};
use cdrw_walk::{WalkBatch, WalkEngine};
use std::time::Instant;

// These tests are #[ignore]d so the accuracy job and plain `cargo test` stay
// timing-deterministic; the CI perf-smoke job runs them explicitly with
// `-- --ignored` in release mode.
#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn unweighted_step_path_costs_at_most_1_1x_of_the_pre_weight_lane_kernel() {
    // The weight lane must cost nothing when absent: on an unweighted graph
    // the current kernel takes the weightless branch, whose instructions are
    // the pre-weight-lane kernel's plus one per-vertex dispatch on the absent
    // weight slice. The solo step runs the same per-source scatter as the
    // batched push, so this bar times that shared scatter too. Both sides
    // are bit-identical and are timed at steady-state support on the same
    // fig4a-sized instance, in interleaved pairs whose median ratio is
    // gated.
    let measured = perf::measure_step_overhead();
    assert_eq!(measured.n, 2048, "quick-scale fig4a size");
    assert!(
        measured.support > measured.n / 2,
        "the timed state must be spread to steady-state support, support = {}",
        measured.support
    );
    let reading = format!(
        "unweighted step path at a median {:.3}x of the pre-weight-lane kernel \
         over {} interleaved pairs (median pair: step {:.0} ns, reference {:.0} ns)",
        measured.ratio(),
        perf::STEP_PAIRS,
        measured.step_ns,
        measured.reference_ns
    );
    println!("{reading}");
    assert!(
        measured.ratio() <= 1.1,
        "{reading}: above the 1.1x acceptance bar"
    );
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn fault_free_chaos_wrapper_costs_at_most_1_1x_of_the_bare_sharded_run() {
    // The fault-tolerance acceptance bar: wrapping every shard transport in
    // `ChaosTransport` under the zero plan must be (near) free, because the
    // fault-free plan short-circuits straight to the inner transport — no
    // hashing, no delay queues, no locks on the hot path. Both sides run
    // the identical sharded pipeline on the same graph; the wrapped side
    // merely routes through the inert wrapper. A run lasts a few
    // milliseconds, so host drift over a block of samples would swamp the
    // difference: the two sides run in interleaved pairs, alternating which
    // goes first, and the median per-pair ratio is gated.
    let n = 256usize;
    let p = (12.0 * (n as f64).ln() / n as f64).min(1.0);
    let params = PpmParams::new(n, 2, p, (p / 40.0).min(1.0)).unwrap();
    let (graph, _) = generate_ppm(&params, 20190416).unwrap();
    let delta = params.expected_block_conductance().clamp(0.01, 1.0);
    let algorithm = CdrwConfig::builder().seed(20190416).delta(delta).build();
    let config = KMachineConfig::new(2)
        .with_congest(CongestConfig::new(algorithm))
        .with_partition_seed(20190416);
    let bare = KMachineEngine::new(config).unwrap();
    let wrapped = KMachineEngine::new(config)
        .unwrap()
        .with_fault_plan(FaultPlan::fault_free());

    let run_ms = |engine: &KMachineEngine| {
        let start = Instant::now();
        let report = engine.run(&graph).unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(report.fault_log.is_clean());
        ms
    };
    const PAIRS: usize = 15;
    let (wrapped_ms, bare_ms) = median_pair(PAIRS, &mut || run_ms(&wrapped), &mut || run_ms(&bare));
    let ratio = wrapped_ms / bare_ms;
    let reading = format!(
        "fault-free chaos wrapper at a median {ratio:.3}x of the bare sharded \
         run over {PAIRS} interleaved pairs (median pair: wrapped \
         {wrapped_ms:.1} ms, bare {bare_ms:.1} ms)"
    );
    println!("{reading}");
    assert!(ratio <= 1.1, "{reading}: above the 1.1x acceptance bar");
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn sharded_run_costs_at_most_2_2x_of_the_sequential_run() {
    // The shard-exchange bar: a two-shard run of the full pipeline against
    // `Cdrw::detect_all` on the same clear-cell PPM (8 blocks, p = 2·ln²n/n,
    // q = 0.1/n, single walks, raw assembly). Each round ships one share
    // per (source, peer shard) and the receivers expand them over their
    // own rows; shipping one delta per edge instead measured a median
    // 2.9x here, and the share exchange 1.8x. The bar sits 30% above the
    // latter. Both sides run in interleaved pairs, alternating which goes
    // first, and the median per-pair ratio is gated.
    let n = 8192usize;
    let p = params::log_squared_n_over_n(n, 2.0);
    let ppm = PpmParams::new(n, 8, p, 0.1 / n as f64).unwrap();
    let (graph, _) = generate_ppm(&ppm, 20190416).unwrap();
    let delta = ppm.expected_block_conductance().clamp(0.01, 1.0);
    let algorithm = CdrwConfig::builder().seed(20190416).delta(delta).build();
    let cdrw = Cdrw::new(algorithm);
    let expected = cdrw.detect_all(&graph).unwrap();
    let engine = KMachineEngine::new(
        KMachineConfig::new(2)
            .with_congest(CongestConfig::new(algorithm))
            .with_partition_seed(20190416),
    )
    .unwrap();

    let sharded_ms = || {
        let start = Instant::now();
        let report = engine.run(&graph).unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(report.result, expected);
        ms
    };
    let sequential_ms = || {
        let start = Instant::now();
        let result = cdrw.detect_all(&graph).unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(result, expected);
        ms
    };
    const PAIRS: usize = 15;
    let (sharded, sequential) = median_pair(PAIRS, &mut { sharded_ms }, &mut { sequential_ms });
    let ratio = sharded / sequential;
    let reading = format!(
        "two-shard run at a median {ratio:.2}x of the sequential run over \
         {PAIRS} interleaved pairs (median pair: sharded {sharded:.1} ms, \
         sequential {sequential:.1} ms)"
    );
    println!("{reading}");
    assert!(ratio <= 2.2, "{reading}: above the 2.2x acceptance bar");
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn batched_stepping_does_not_lose_to_sequential_stepping() {
    // Four overlapping walks inside one block of a fig4a instance — the
    // ensemble's follow-up shape. Batching reads the CSR once per step for
    // all four lanes; it must be at least par with four solo traversals
    // (the win grows with graph size as the CSR stops fitting in cache).
    let n = 4096usize;
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, 8, p, q).unwrap();
    let (graph, _) = generate_ppm(&params, 20190416).unwrap();
    let engine = WalkEngine::new(&graph);
    let seeds: Vec<usize> = (0..4).collect();
    const STEPS: usize = 6;

    let mut batch = WalkBatch::for_graph(&graph);
    let mut workspace = engine.workspace();
    const PAIRS: usize = 15;
    let (batched_ns, sequential_ns) = median_pair(
        PAIRS,
        &mut || {
            per_run_ns(&mut || {
                batch.load_point_masses(&seeds).unwrap();
                for _ in 0..STEPS {
                    engine.step_batch(&mut batch);
                }
            })
        },
        &mut || {
            per_run_ns(&mut || {
                for &seed in &seeds {
                    workspace.load_point_mass(seed).unwrap();
                    for _ in 0..STEPS {
                        engine.step(&mut workspace);
                    }
                }
            })
        },
    );
    // Generous slack: the claim is "batching is not a pessimisation" — its
    // real win is DRAM traffic on large graphs, which a CI container's
    // cache hierarchy may hide entirely.
    let reading = format!(
        "batched stepping at a median {:.3}x of sequential stepping over {PAIRS} \
         interleaved pairs (median pair: batched {batched_ns:.0} ns, \
         sequential {sequential_ns:.0} ns per run)",
        batched_ns / sequential_ns
    );
    println!("{reading}");
    assert!(
        batched_ns <= sequential_ns * 1.5,
        "{reading}: much slower than sequential, above the 1.5x bar"
    );
}

#[test]
#[ignore = "timing assertion — run by the CI perf-smoke job with -- --ignored"]
fn work_stealing_scales_with_four_workers() {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping work-stealing scaling check: only {cores} core(s) available");
        return;
    }
    // A fig4a-shaped 8-block instance with enough seeds that the atomic
    // cursor gets exercised (claims are chunked, so a seed count well above
    // workers × chunk matters). Per-seed detection cost varies with how far
    // each walk's candidate sequence runs, which is exactly the skew
    // work stealing absorbs and static striping cannot.
    let n = 4096usize;
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, 8, p, q).unwrap();
    let (graph, _) = generate_ppm(&params, 20190416).unwrap();
    let delta = params.expected_block_conductance().clamp(0.01, 1.0);
    let cdrw = Cdrw::new(CdrwConfig::builder().seed(20190416).delta(delta).build());
    let num_seeds = 48usize;

    let run_ms = |workers: usize| {
        let start = Instant::now();
        let result = cdrw
            .detect_parallel_with_workers(&graph, num_seeds, workers)
            .unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(!result.detections().is_empty());
        ms
    };
    const PAIRS: usize = 5;
    let (parallel_ms, single_ms) = median_pair(PAIRS, &mut || run_ms(4), &mut || run_ms(1));
    let reading = format!(
        "work-stealing with 4 workers at a median speedup {:.2}x over one worker \
         in {PAIRS} interleaved pairs (median pair: 4 workers {parallel_ms:.0} ms, \
         1 worker {single_ms:.0} ms)",
        single_ms / parallel_ms
    );
    println!("{reading}");
    assert!(
        parallel_ms * 1.5 <= single_ms,
        "{reading}: below the 1.5x acceptance bar"
    );
}

/// Mean wall time of four back-to-back runs of a microsecond-scale kernel
/// routine, in nanoseconds.
fn per_run_ns(routine: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..4 {
        routine();
    }
    start.elapsed().as_nanos() as f64 / 4.0
}
