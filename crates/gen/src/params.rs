//! Parameter helpers used throughout the paper's experiments.
//!
//! The experiments parameterise edge probabilities relative to the
//! connectivity threshold of `G(n, p)`: the paper uses `p = c·log n / n` and
//! `p = c·log² n / n` (natural log vs. base-2 log is not material; the paper's
//! plots use log base 2 for sizes and natural log for thresholds — we use the
//! natural logarithm throughout and document it here so every crate agrees).

use serde::{Deserialize, Serialize};

/// The connectivity threshold of an Erdős–Rényi graph: `ln n / n`.
///
/// `G(n, p)` is connected with high probability when `p` exceeds this value
/// by a constant factor `c > 1` (Bollobás; cited as \[7\] in the paper).
///
/// Returns 0.0 for `n <= 1` (a single vertex is trivially connected).
pub fn connectivity_threshold(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    (n as f64).ln() / n as f64
}

/// `c · ln n / n` — the sparse regime used for Figure 2/3 series.
pub fn log_n_over_n(n: usize, c: f64) -> f64 {
    (c * connectivity_threshold(n)).min(1.0)
}

/// `c · (ln n)² / n` — the denser regime used for Figure 2/3 series.
pub fn log_squared_n_over_n(n: usize, c: f64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let ln_n = (n as f64).ln();
    (c * ln_n * ln_n / n as f64).min(1.0)
}

/// `c · log₂ n / n` — base-2 variant used when replicating the figure axis
/// labels verbatim.
pub fn log2_n_over_n(n: usize, c: f64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    (c * (n as f64).log2() / n as f64).min(1.0)
}

/// One `(p, q)` point of a parameter sweep together with the labels used by
/// the experiment harness when printing paper-style series names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamPoint {
    /// Intra-community edge probability.
    pub p: f64,
    /// Inter-community edge probability.
    pub q: f64,
    /// Display label for the `p` series (e.g. `"2·ln n/n"`).
    pub p_label: String,
    /// Display label for the `q` series (e.g. `"0.1/n"`).
    pub q_label: String,
}

impl ParamPoint {
    /// Creates a labelled parameter point.
    pub fn new(p: f64, q: f64, p_label: impl Into<String>, q_label: impl Into<String>) -> Self {
        ParamPoint {
            p,
            q,
            p_label: p_label.into(),
            q_label: q_label.into(),
        }
    }

    /// The ratio `p/q`, or infinity when `q == 0`.
    pub fn ratio(&self) -> f64 {
        if self.q == 0.0 {
            f64::INFINITY
        } else {
            self.p / self.q
        }
    }
}

/// The paper's Figure 2 `p` series for a given `n`: `2·ln n/n`, `2·(ln n)²/n`
/// and `5·ln n/n` (the figure plots three curves; the two lowest are the ones
/// reused in later figures).
pub fn figure2_p_series(n: usize) -> Vec<(String, f64)> {
    vec![
        ("2·ln n / n".to_string(), log_n_over_n(n, 2.0)),
        ("2·(ln n)² / n".to_string(), log_squared_n_over_n(n, 2.0)),
        ("5·ln n / n".to_string(), log_n_over_n(n, 5.0)),
    ]
}

/// The paper's Figure 3 `q` series for a given `n`: `0.1/n`, `0.6/n`,
/// `ln n/n`, `(ln n)²/n`.
pub fn figure3_q_series(n: usize) -> Vec<(String, f64)> {
    vec![
        ("0.1 / n".to_string(), 0.1 / n as f64),
        ("0.6 / n".to_string(), 0.6 / n as f64),
        ("ln n / n".to_string(), log_n_over_n(n, 1.0)),
        ("(ln n)² / n".to_string(), log_squared_n_over_n(n, 1.0)),
    ]
}

/// The paper's Figure 3 `p` series (x-axis) for a given `n`.
pub fn figure3_p_series(n: usize) -> Vec<(String, f64)> {
    vec![
        ("2·ln n / n".to_string(), log_n_over_n(n, 2.0)),
        ("2·(ln n)² / n".to_string(), log_squared_n_over_n(n, 2.0)),
        ("4·ln n / n".to_string(), log_n_over_n(n, 4.0)),
        ("(ln n)² / n".to_string(), log_squared_n_over_n(n, 1.0)),
    ]
}

/// The Figure 4 `(p, q)` series: `p` is fixed to the sparse regimes and `q`
/// is derived from the ratio `p/q ∈ {2^0.1·ln n, 2^0.6·ln n, 2^0.1·(ln n)²,
/// 2^0.6·(ln n)²}` used in the paper's legend.
pub fn figure4_series(n: usize) -> Vec<ParamPoint> {
    let ln_n = (n as f64).ln().max(1.0);
    let mut points = Vec::new();
    for (c_label, c) in [("2^0.1", 2f64.powf(0.1)), ("2^0.6", 2f64.powf(0.6))] {
        for (base_label, base) in [("ln n", ln_n), ("(ln n)²", ln_n * ln_n)] {
            let p = log_squared_n_over_n(n, 2.0);
            let ratio = c * base;
            let q = (p / ratio).min(1.0);
            points.push(ParamPoint::new(
                p,
                q,
                "2·(ln n)²/n",
                format!("p/q = {c_label}·{base_label}"),
            ));
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn connectivity_threshold_basics() {
        assert_eq!(connectivity_threshold(0), 0.0);
        assert_eq!(connectivity_threshold(1), 0.0);
        let t1024 = connectivity_threshold(1024);
        assert!((t1024 - (1024f64).ln() / 1024.0).abs() < 1e-15);
        // Threshold decreases with n.
        assert!(connectivity_threshold(2048) < t1024);
    }

    #[test]
    fn probability_helpers_are_clamped_to_one() {
        // For tiny n the formulas can exceed 1; they must be clamped.
        assert!(log_squared_n_over_n(2, 100.0) <= 1.0);
        assert!(log_n_over_n(2, 100.0) <= 1.0);
        assert!(log2_n_over_n(2, 100.0) <= 1.0);
    }

    #[test]
    fn param_point_ratio() {
        let point = ParamPoint::new(0.05, 0.001, "p", "q");
        assert!((point.ratio() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn zero_q_ratio_is_infinite() {
        let point = ParamPoint::new(0.5, 0.0, "p", "q");
        assert!(point.ratio().is_infinite());
    }

    #[test]
    fn figure_series_have_expected_lengths() {
        assert_eq!(figure2_p_series(1024).len(), 3);
        assert_eq!(figure3_q_series(2048).len(), 4);
        assert_eq!(figure3_p_series(2048).len(), 4);
        assert_eq!(figure4_series(2048).len(), 4);
    }

    #[test]
    fn figure4_q_decreases_with_larger_ratio() {
        let series = figure4_series(4096);
        for point in &series {
            assert!(point.p > point.q);
            assert!(point.q > 0.0);
        }
    }

    proptest! {
        /// All helpers return probabilities in [0, 1] for any n and moderate c.
        #[test]
        fn helpers_return_probabilities(n in 0usize..100_000, c in 0.0f64..16.0) {
            for value in [
                connectivity_threshold(n),
                log_n_over_n(n, c),
                log_squared_n_over_n(n, c),
                log2_n_over_n(n, c),
            ] {
                prop_assert!((0.0..=1.0).contains(&value), "value = {}", value);
            }
        }

        /// Figure series probabilities are valid for the sizes the harness uses.
        #[test]
        fn figure_series_are_valid(exp in 7u32..13) {
            let n = 1usize << exp;
            for (_, p) in figure2_p_series(n).into_iter().chain(figure3_q_series(n)).chain(figure3_p_series(n)) {
                prop_assert!((0.0..=1.0).contains(&p));
            }
            for point in figure4_series(n) {
                prop_assert!((0.0..=1.0).contains(&point.p));
                prop_assert!((0.0..=1.0).contains(&point.q));
            }
        }
    }
}
