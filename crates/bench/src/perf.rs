//! Micro perf measurements recorded into `BENCH_results.json` and asserted
//! by the perf-smoke acceptance test.
//!
//! The headline perf claim of the prefix-scan sweep — one incremental pass
//! over the merged candidate order instead of an `O(Σ|S|)` re-scan per
//! candidate size — is measured here on a quick-scale Figure 4a instance
//! (the sparse 8-block PPM whose accuracy the ensemble/assembly stack was
//! built for), so the speedup travels with every CI artifact instead of
//! living in a one-off PR description.

use std::time::Instant;

use cdrw_gen::{generate_ppm, PpmParams};
use cdrw_walk::{LocalMixingConfig, MixingCriterion, WalkEngine};

/// Measured sweep timings on the fig4a-sized instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpeedup {
    /// Vertices of the instance.
    pub n: usize,
    /// Support size of the measured walk state.
    pub support: usize,
    /// Time of one per-size reference sweep in the median pair, in
    /// nanoseconds.
    pub per_size_ns: f64,
    /// Time of one prefix-scan sweep in the median pair, in nanoseconds.
    pub prefix_ns: f64,
}

impl SweepSpeedup {
    /// How many times faster the prefix scan is.
    pub fn speedup(&self) -> f64 {
        self.per_size_ns / self.prefix_ns
    }
}

/// Measured unweighted-step timings: the current weight-dispatching kernel
/// against the preserved pre-weight-lane kernel, on the same unweighted
/// instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOverhead {
    /// Vertices of the instance.
    pub n: usize,
    /// Support size of the measured walk state (steady-state spread).
    pub support: usize,
    /// Time of one [`cdrw_walk::WalkEngine::step`] in the median pair, in
    /// nanoseconds.
    pub step_ns: f64,
    /// Time of one [`cdrw_walk::WalkEngine::step_uniform_reference`] (the
    /// preserved pre-weight-lane kernel) in the median pair, in nanoseconds.
    pub reference_ns: f64,
}

impl StepOverhead {
    /// The current kernel's slowdown over the pre-weight-lane reference
    /// (1.0 = free; the perf-smoke acceptance bar is ≤ 1.1).
    pub fn ratio(&self) -> f64 {
        self.step_ns / self.reference_ns
    }
}

/// Measures the unweighted step path both ways — the current kernel (which
/// dispatches on the absent weight lane) against the preserved
/// pre-weight-lane uniform kernel — on a quick-scale Figure 4a instance.
/// Both workspaces are first spread to their steady-state support, where the
/// two kernels do identical per-step work (they are bit-identical on
/// unweighted graphs), so the ratio isolates the cost of the weight-lane
/// dispatch. The two kernels are timed in [`STEP_PAIRS`] interleaved pairs
/// ([`median_pair`]), each sample the mean of [`STEPS_PER_SAMPLE`] steps.
pub fn measure_step_overhead() -> StepOverhead {
    let r = 8usize;
    let block = 256usize;
    let n = r * block;
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, r, p, q).expect("valid fig4a parameters");
    let (graph, _) = generate_ppm(&params, 20190416).expect("valid fig4a instance");
    assert!(!graph.is_weighted(), "the PPM generator is unweighted");

    let engine = WalkEngine::new(&graph);
    let mut current_ws = engine.workspace();
    let mut reference_ws = engine.workspace();
    current_ws.load_point_mass(0).expect("vertex 0 exists");
    reference_ws.load_point_mass(0).expect("vertex 0 exists");
    // Spread to steady state: on this connected instance the support
    // saturates within a few steps, after which every step does the same
    // O(vol(support)) work.
    for _ in 0..16 {
        engine.step(&mut current_ws);
        engine.step_uniform_reference(&mut reference_ws);
    }
    assert_eq!(
        current_ws.as_slice(),
        reference_ws.as_slice(),
        "the kernels must agree bit-for-bit before timing"
    );
    let support = current_ws.support_size();

    let (step_ns, reference_ns) = median_pair(
        STEP_PAIRS,
        &mut || mean_ns(STEPS_PER_SAMPLE, &mut || engine.step(&mut current_ws)),
        &mut || {
            mean_ns(STEPS_PER_SAMPLE, &mut || {
                engine.step_uniform_reference(&mut reference_ws)
            })
        },
    );
    StepOverhead {
        n,
        support,
        step_ns,
        reference_ns,
    }
}

/// Interleaved pairs [`measure_step_overhead`] times. A step here takes
/// ~0.2 ms and the ratio sits near 1.03; on a 2-core host with both cores
/// also busy, twenty readings of 15 pairs of 10-step samples reached 2.9,
/// twenty of 31 pairs of 20-step samples stayed within 1.00–1.103.
pub const STEP_PAIRS: usize = 31;

/// Steps timed back to back per sample of [`measure_step_overhead`].
pub const STEPS_PER_SAMPLE: u32 = 20;

/// Times `candidate` against `baseline` in `pairs` interleaved pairs, after
/// one warm-up run of each, alternating which side runs first, and returns
/// the `(candidate, baseline)` timings of the pair with the median ratio.
/// Host drift moves both halves of a pair together, so the median ratio
/// holds where best-of blocks raced each other for the cores.
pub fn median_pair(
    pairs: usize,
    candidate: &mut dyn FnMut() -> f64,
    baseline: &mut dyn FnMut() -> f64,
) -> (f64, f64) {
    baseline();
    candidate();
    let mut timed: Vec<(f64, f64)> = (0..pairs)
        .map(|pair| {
            if pair % 2 == 0 {
                let b = baseline();
                (candidate(), b)
            } else {
                let c = candidate();
                (c, baseline())
            }
        })
        .collect();
    timed.sort_by(|x, y| (x.0 / x.1).total_cmp(&(y.0 / y.1)));
    timed[pairs / 2]
}

/// The mean time of `iterations` back-to-back runs of `routine`, in
/// nanoseconds: one sample of a [`median_pair`].
fn mean_ns(iterations: u32, routine: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        routine();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iterations)
}

/// Interleaved pairs [`measure_sweep_speedup`] times, each sample the mean
/// of [`SWEEPS_PER_SAMPLE`] sweeps.
pub const SWEEP_PAIRS: usize = 15;

/// Sweeps timed back to back per sample of [`measure_sweep_speedup`].
pub const SWEEPS_PER_SAMPLE: u32 = 10;

/// Measures the renormalised sweep both ways — prefix scan
/// ([`WalkEngine::sweep`]) against the per-size reference
/// ([`WalkEngine::sweep_per_size`]) — on a quick-scale Figure 4a instance
/// (8 blocks of 256, `p = 2·(ln n)²/n`, `p/q = 2^0.6·ln n`), on a walk state
/// spread far enough that candidate prefixes are long. The two paths are
/// timed in [`SWEEP_PAIRS`] interleaved pairs ([`median_pair`]) on copies of
/// the same walk state.
pub fn measure_sweep_speedup() -> SweepSpeedup {
    let r = 8usize;
    let block = 256usize;
    let n = r * block;
    let ln_n = (n as f64).ln();
    let p = 2.0 * ln_n * ln_n / n as f64;
    let q = p / (2f64.powf(0.6) * ln_n);
    let params = PpmParams::new(n, r, p, q).expect("valid fig4a parameters");
    let (graph, _) = generate_ppm(&params, 20190416).expect("valid fig4a instance");

    let engine = WalkEngine::new(&graph);
    let config = LocalMixingConfig {
        criterion: MixingCriterion::Renormalized,
        ..LocalMixingConfig::for_graph_size(n)
    };
    let mut workspace = engine.workspace();
    workspace.load_point_mass(0).expect("vertex 0 exists");
    for _ in 0..8 {
        engine.step(&mut workspace);
    }
    let support = workspace.support_size();

    // Equal-work sanity check before timing: both paths agree on this state.
    let fast = engine.sweep(&mut workspace, &config).expect("sweep runs");
    let reference = engine
        .sweep_per_size(&mut workspace, &config)
        .expect("reference sweep runs");
    assert_eq!(fast.set, reference.set, "sweep paths diverged");

    let mut reference_ws = workspace.clone();
    let (prefix_ns, per_size_ns) = median_pair(
        SWEEP_PAIRS,
        &mut || {
            mean_ns(SWEEPS_PER_SAMPLE, &mut || {
                engine.sweep(&mut workspace, &config).unwrap();
            })
        },
        &mut || {
            mean_ns(SWEEPS_PER_SAMPLE, &mut || {
                engine.sweep_per_size(&mut reference_ws, &config).unwrap();
            })
        },
    );
    SweepSpeedup {
        n,
        support,
        per_size_ns,
        prefix_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_overhead_ratio_reads_from_the_timings() {
        let measured = StepOverhead {
            n: 2048,
            support: 2048,
            step_ns: 1_050.0,
            reference_ns: 1_000.0,
        };
        assert!((measured.ratio() - 1.05).abs() < 1e-12);
    }

    #[test]
    fn speedup_ratio_reads_from_the_timings() {
        let measured = SweepSpeedup {
            n: 2048,
            support: 1000,
            per_size_ns: 50_000.0,
            prefix_ns: 5_000.0,
        };
        assert!((measured.speedup() - 10.0).abs() < 1e-12);
    }
}
