//! The §III-B round counts: the Conversion Theorem bound, the paper's
//! closed form, and the link rounds measured by the execution engine.

use cdrw_congest::CongestConfig;
use cdrw_graph::VertexId;
use serde::{Deserialize, Serialize};

use crate::RoundConformance;

/// Wire size of one share entry: a vertex id plus an `f64` share.
const ENTRY_BITS: u64 = 8 * (std::mem::size_of::<VertexId>() + std::mem::size_of::<f64>()) as u64;

/// Measured quantities of a CONGEST execution that are plugged into the
/// Conversion Theorem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConversionInput {
    /// Total number of CONGEST messages `M`.
    pub messages: u64,
    /// Number of CONGEST rounds `T`.
    pub rounds: u64,
    /// Maximum degree `∆` of the graph.
    pub max_degree: u64,
    /// Number of machines `k`.
    pub num_machines: usize,
}

/// The Conversion Theorem (Klauck et al., SODA 2015, part (a)) as used in
/// Section III-B: a CONGEST algorithm with message complexity `M` and time
/// complexity `T` can be simulated in the k-machine model in
/// `Õ(M/k² + ∆·T/k)` rounds. The `Õ` hides polylog factors; this function
/// returns the bare `M/k² + ∆·T/k` value, which the `kmachine-exec` table
/// prints against `k` next to the measured [`link_rounds`].
pub fn conversion_rounds(input: &ConversionInput) -> f64 {
    let k = input.num_machines.max(1) as f64;
    input.messages as f64 / (k * k) + (input.max_degree as f64 * input.rounds as f64) / k
}

/// The paper's closed-form prediction for CDRW on a PPM graph
/// (Section III-B): `Õ((n²/k² + n/(k·r))·(p + q(r−1)))` rounds.
pub fn paper_round_bound(n: usize, r: usize, p: f64, q: f64, k: usize) -> f64 {
    let n = n as f64;
    let r = r as f64;
    let k = k as f64;
    (n * n / (k * k) + n / (k * r)) * (p + q * (r - 1.0))
}

/// The k-machine rounds an engine run measured: each physical round costs
/// its bottleneck link's load at `B =` [`CongestConfig::BANDWIDTH_BITS`] per
/// round, `Σ_rounds ⌈max_link_entries · ENTRY_BITS / B⌉`. The links carry
/// the walk's share exchange; the coordinator's load and gather traffic is
/// not a machine-to-machine link and is not counted.
pub fn link_rounds(per_round: &[RoundConformance]) -> u64 {
    per_round
        .iter()
        .map(|round| (round.max_link_entries * ENTRY_BITS).div_ceil(CongestConfig::BANDWIDTH_BITS))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_rounds_match_hand_computation() {
        let round = |max_link_entries| RoundConformance {
            round: 1,
            lanes: 1,
            measured_messages: 0,
            modelled_messages: 0,
            wire_entries: max_link_entries,
            max_link_entries,
        };
        // A 64-bit id plus an f64 is 128 bits, four 32-bit link rounds.
        assert_eq!(ENTRY_BITS, 128);
        assert_eq!(CongestConfig::BANDWIDTH_BITS, 32);
        // 0 + 4·1 + 4·3 + 4·10 = 56.
        assert_eq!(link_rounds(&[round(0), round(1), round(3), round(10)]), 56);
        assert_eq!(link_rounds(&[]), 0);
    }

    #[test]
    fn conversion_formula_matches_hand_computation() {
        let input = ConversionInput {
            messages: 1_000_000,
            rounds: 100,
            max_degree: 50,
            num_machines: 10,
        };
        // M/k² = 10_000, ∆T/k = 500.
        assert!((conversion_rounds(&input) - 10_500.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_shrink_between_k_and_k_squared() {
        let base = ConversionInput {
            messages: 1 << 24,
            rounds: 1 << 10,
            max_degree: 64,
            num_machines: 2,
        };
        let double = ConversionInput {
            num_machines: 4,
            ..base
        };
        let ratio = conversion_rounds(&base) / conversion_rounds(&double);
        assert!(ratio > 2.0 && ratio <= 4.0, "ratio = {ratio}");
    }

    #[test]
    fn message_dominated_executions_scale_quadratically() {
        // When M ≫ ∆T·k the M/k² term dominates and doubling k gives ≈ 4×.
        let small_k = ConversionInput {
            messages: u64::MAX / 1024,
            rounds: 1,
            max_degree: 1,
            num_machines: 8,
        };
        let large_k = ConversionInput {
            num_machines: 16,
            ..small_k
        };
        let ratio = conversion_rounds(&small_k) / conversion_rounds(&large_k);
        assert!((ratio - 4.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn paper_bound_decreases_in_k_and_increases_in_density() {
        let sparse = paper_round_bound(4096, 4, 0.01, 0.0005, 8);
        let denser = paper_round_bound(4096, 4, 0.05, 0.0005, 8);
        assert!(denser > sparse);
        let more_machines = paper_round_bound(4096, 4, 0.01, 0.0005, 16);
        assert!(more_machines < sparse);
    }

    #[test]
    fn zero_machines_is_clamped() {
        let input = ConversionInput {
            messages: 10,
            rounds: 10,
            max_degree: 10,
            num_machines: 0,
        };
        assert!(conversion_rounds(&input).is_finite());
    }
}
