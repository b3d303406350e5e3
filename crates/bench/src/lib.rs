//! # cdrw-bench
//!
//! Experiment harness reproducing every figure and complexity claim of
//! *Efficient Distributed Community Detection in the Stochastic Block Model*
//! (ICDCS 2019). The [`experiments`] module exposes one function per
//! experiment; each returns structured rows that the `experiments` binary
//! prints as the paper-shaped tables, and the Criterion bench under
//! `benches/` (`substrate_micro`) times the walk and sweep substrate.
//!
//! | experiment | paper artefact | function |
//! |---|---|---|
//! | E1 | Figure 1 (PPM showcase) | [`experiments::showcase::figure1`] |
//! | E2 | Figure 2 (Gnp single community) | [`experiments::gnp_single::figure2`] |
//! | E3 | Figure 3 (two blocks, p/q sweep) | [`experiments::two_blocks::figure3`] |
//! | E4 | Figure 4a/4b (varying r) | [`experiments::vary_r::figure4`] |
//! | E5 | Theorem 5/6 (CONGEST rounds & messages) | [`experiments::distributed::congest_scaling`] |
//! | E6 | §III-B (k-machine rounds: measured vs both bounds) | [`experiments::distributed::kmachine_execution`] |
//! | E7 | §II positioning (baseline comparison) | [`experiments::baselines::baseline_comparison`] |
//! | E8 | design ablations | [`experiments::ablations::ablations`] |
//! | E9 | beyond the paper: degree-corrected SBM | [`experiments::heterogeneous::dcsbm_comparison`] |
//! | E10 | beyond the paper: weighted PPM | [`experiments::heterogeneous::weighted_ppm_comparison`] |
//! | E11 | beyond the paper: real dataset files | [`experiments::dataset::dataset_table`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod perf;
pub mod table;

use cdrw_core::{AssemblyPolicy, EnsemblePolicy, MixingCriterion};
use serde::{Deserialize, Serialize};

/// The algorithm-variant axes every CDRW experiment run is parameterised by:
/// the mixing criterion of the sweep, the evidence-aggregation ensemble
/// policy and the global assembly policy. Constructed from the
/// `--criterion` / `--ensemble` / `--assembly` command-line axes of the
/// `experiments` binary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunOptions {
    /// The mixing criterion every CDRW run uses.
    pub criterion: MixingCriterion,
    /// The ensemble policy every CDRW run uses.
    pub ensemble: EnsemblePolicy,
    /// The global assembly policy every CDRW run uses.
    pub assembly: AssemblyPolicy,
}

impl RunOptions {
    /// Options running a given criterion single-walk.
    pub fn with_criterion(criterion: MixingCriterion) -> Self {
        RunOptions {
            criterion,
            ensemble: EnsemblePolicy::Single,
            assembly: AssemblyPolicy::Raw,
        }
    }

    /// Short label for table titles, e.g. `renormalized`,
    /// `renormalized + ensemble(5/2)` or
    /// `renormalized + ensemble(5/2) + assembly(4/3)`.
    pub fn label(&self) -> String {
        let mut label = self.criterion.to_string();
        if let EnsemblePolicy::Ensemble { walks, quorum } = self.ensemble {
            label.push_str(&format!(" + ensemble({walks}/{quorum})"));
        }
        match self.assembly {
            AssemblyPolicy::Raw => {}
            AssemblyPolicy::Pooled { reseed: 0, .. } => label.push_str(" + assembly(reconcile)"),
            AssemblyPolicy::Pooled { reseed, quorum } => {
                label.push_str(&format!(" + assembly({reseed}/{quorum})"));
            }
        }
        label
    }
}

impl From<MixingCriterion> for RunOptions {
    fn from(criterion: MixingCriterion) -> Self {
        RunOptions::with_criterion(criterion)
    }
}

impl std::fmt::Display for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Global scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small sizes and few trials: seconds per experiment, used by CI, the
    /// Criterion benches and the integration tests.
    Quick,
    /// Beyond the paper's sizes (Figure 2 up to `n = 2¹⁴`, Figure 3 at
    /// `n = 2¹³`, Figure 4 blocks of `2¹²`) and more trials: minutes per
    /// experiment, used to fill EXPERIMENTS.md. Affordable since the
    /// prefix-scan sweep and batched multi-walk stepping removed the
    /// per-step inner-loop bottleneck.
    Full,
    /// Million-vertex scale: Figure 2 up to `n = 2²⁰`, PPM blocks of `2¹⁸`,
    /// a single trial per point. Affordable since the bit-packed walk state
    /// and the work-stealing parallel driver removed the constant-factor
    /// and core-count bottlenecks. Every Huge experiment runs under a
    /// wall-clock budget ([`Scale::budget`]): when the budget expires the
    /// remaining points are skipped and the emitted table is marked
    /// truncated, so a runaway configuration degrades into a smaller table
    /// instead of a hung CI job.
    Huge,
}

impl Scale {
    /// Number of independent trials (fresh graphs) averaged per data point.
    pub fn trials(self) -> usize {
        match self {
            Scale::Quick => 2,
            Scale::Full => 4,
            Scale::Huge => 1,
        }
    }

    /// The per-experiment wall-clock budget, if this scale enforces one.
    ///
    /// Only [`Scale::Huge`] is budgeted: 30 minutes per experiment, sized so
    /// a full Figure-2 run at `n = 2²⁰` (three `p` series, the densest at
    /// mean degree `2·ln² n ≈ 380`) finishes with clear headroom on one
    /// CI core — see the committed trajectory under `ci/baselines/`.
    pub fn budget(self) -> Option<std::time::Duration> {
        match self {
            Scale::Quick | Scale::Full => None,
            Scale::Huge => Some(std::time::Duration::from_secs(30 * 60)),
        }
    }
}

/// A wall-clock budget an experiment checks between units of work.
///
/// Construct one from [`Scale::budget`] at the top of an experiment; call
/// [`BudgetClock::expired`] before each data point (or trial) and stop
/// early when it fires. The clock never interrupts a unit of work — budget
/// enforcement is cooperative, so a table is always cut at a point
/// boundary, never mid-measurement.
#[derive(Debug)]
pub struct BudgetClock {
    started: std::time::Instant,
    budget: Option<std::time::Duration>,
}

impl BudgetClock {
    /// Starts the clock with the given budget (`None` = unlimited).
    pub fn start(budget: Option<std::time::Duration>) -> Self {
        BudgetClock {
            started: std::time::Instant::now(),
            budget,
        }
    }

    /// Starts the clock for a scale's budget.
    pub fn for_scale(scale: Scale) -> Self {
        Self::start(scale.budget())
    }

    /// Whether the budget has run out (`false` forever when unlimited).
    pub fn expired(&self) -> bool {
        match self.budget {
            Some(budget) => self.started.elapsed() >= budget,
            None => false,
        }
    }

    /// Milliseconds elapsed since the clock started.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }
}

/// One data point of one series of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Name of the series (legend entry), e.g. `"p = 2·ln n/n"`.
    pub series: String,
    /// The x-coordinate label, e.g. `"n = 1024"` or `"r = 4"`.
    pub x_label: String,
    /// The measured value (an F-score for the accuracy figures, rounds or
    /// messages for the complexity experiments).
    pub value: f64,
    /// Optional companion values (e.g. precision/recall, or a theoretical
    /// prediction), keyed by short column names.
    pub extras: Vec<(String, f64)>,
}

impl DataPoint {
    /// Creates a data point without extras.
    pub fn new(series: impl Into<String>, x_label: impl Into<String>, value: f64) -> Self {
        DataPoint {
            series: series.into(),
            x_label: x_label.into(),
            value,
            extras: Vec::new(),
        }
    }

    /// Adds a companion column.
    pub fn with_extra(mut self, name: impl Into<String>, value: f64) -> Self {
        self.extras.push((name.into(), value));
        self
    }
}

/// The reproduction of one figure or table: a title, the name of the value
/// column and the collected data points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureResult {
    /// Human-readable title (printed above the table).
    pub title: String,
    /// Name of the value column (e.g. `"F-score"` or `"rounds/community"`).
    pub value_name: String,
    /// The data points, grouped by series in the order produced.
    pub points: Vec<DataPoint>,
    /// Whether the experiment's wall-clock budget expired before all
    /// planned points ran ([`BudgetClock`]); a truncated table is still
    /// valid for every point it contains.
    pub truncated: bool,
}

impl FigureResult {
    /// Creates an empty figure result.
    pub fn new(title: impl Into<String>, value_name: impl Into<String>) -> Self {
        FigureResult {
            title: title.into(),
            value_name: value_name.into(),
            points: Vec::new(),
            truncated: false,
        }
    }

    /// Appends a data point.
    pub fn push(&mut self, point: DataPoint) {
        self.points.push(point);
    }

    /// Marks the figure as cut short by its wall-clock budget.
    pub fn mark_truncated(&mut self) {
        self.truncated = true;
    }

    /// All distinct series names, in first-appearance order.
    pub fn series_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for point in &self.points {
            if !names.contains(&point.series) {
                names.push(point.series.clone());
            }
        }
        names
    }

    /// The values of one series, in insertion order.
    pub fn series_values(&self, series: &str) -> Vec<f64> {
        self.points
            .iter()
            .filter(|p| p.series == series)
            .map(|p| p.value)
            .collect()
    }

    /// Minimum value across all points (`f64::INFINITY` when empty).
    pub fn min_value(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.value)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the figure as an aligned text table (see [`table::render`]).
    pub fn to_table(&self) -> String {
        table::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_trials() {
        assert!(Scale::Full.trials() > Scale::Quick.trials());
        assert_eq!(Scale::Huge.trials(), 1);
    }

    #[test]
    fn only_the_huge_scale_is_budgeted() {
        assert!(Scale::Quick.budget().is_none());
        assert!(Scale::Full.budget().is_none());
        assert!(Scale::Huge.budget().is_some());
    }

    #[test]
    fn budget_clock_expires_only_under_a_budget() {
        let unlimited = BudgetClock::start(None);
        assert!(!unlimited.expired());
        assert!(unlimited.elapsed_ms() >= 0.0);
        let instant = BudgetClock::start(Some(std::time::Duration::ZERO));
        assert!(instant.expired());
        assert!(!BudgetClock::for_scale(Scale::Huge).expired());
    }

    #[test]
    fn truncation_marking() {
        let mut figure = FigureResult::new("t", "v");
        assert!(!figure.truncated);
        figure.mark_truncated();
        assert!(figure.truncated);
    }

    #[test]
    fn figure_result_accessors() {
        let mut figure = FigureResult::new("Fig X", "F-score");
        figure.push(DataPoint::new("a", "n=1", 0.5).with_extra("precision", 0.6));
        figure.push(DataPoint::new("a", "n=2", 0.7));
        figure.push(DataPoint::new("b", "n=1", 0.9));
        assert_eq!(
            figure.series_names(),
            vec!["a".to_string(), "b".to_string()]
        );
        assert_eq!(figure.series_values("a"), vec![0.5, 0.7]);
        assert_eq!(figure.points[0].extras[0].0, "precision");
        let rendered = figure.to_table();
        assert!(rendered.contains("Fig X"));
        assert!(rendered.contains("F-score"));
    }
}
