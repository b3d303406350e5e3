//! Round and message accounting — the CONGEST cost model.
//!
//! ## What counts as a round, and what counts as a message
//!
//! In the CONGEST model the input graph *is* the communication network.
//! Computation proceeds in synchronous rounds; in one round every vertex may
//! send one message of `O(log n)` bits to each of its neighbours. Two costs
//! are tracked ([`CostAccount`]):
//!
//! * **rounds** — the time complexity: how many synchronous rounds elapse.
//!   Independent vertices acting in the same round cost *one* round.
//! * **messages** — the communication complexity: every (sender, edge,
//!   round) triple is one message, regardless of content, as long as the
//!   payload fits in `O(log n)` bits. A vertex flooding its state to `d(u)`
//!   neighbours therefore costs `d(u)` messages in that round. Values that
//!   need more bits (e.g. a probability) are assumed to be truncated to
//!   `O(log n)`-bit precision, as the paper does.
//!
//! The per-primitive formulas live in [`crate::primitives`]; they are the
//! textbook costs, and the BFS/broadcast ones are cross-checked against the
//! real message-passing simulator in the test-only `network` module
//! (`costs_agree_with_simulation`).
//!
//! ## Why costs are read off the sparse support
//!
//! The dominant cost of CDRW is the walk step (Algorithm 1, lines 9–11):
//! each vertex `u` holding probability mass `p(u) > 0` splits it among its
//! neighbours, which is one round and `Σ_{u : p(u) > 0} d(u)` messages — a
//! vertex with no mass has nothing to send and is silent. That set of
//! mass-holding vertices is *exactly* the walk engine's support
//! (`cdrw_walk::WalkWorkspace::support`), which the sparse engine maintains
//! as an explicit sorted list. So the runner charges
//! [`crate::primitives::sparse_walk_step_cost`] by summing degrees over the
//! support in `O(|support|)` — no `O(n)` scan, and the same number the dense
//! formula (its test-only oracle, `walk_step_cost`) produces. This mirrors
//! the analysis: the paper's `Õ(m)`-messages bound comes precisely from the
//! support staying inside the community for the first `O(log n)` steps.
//!
//! ## Criterion-dependent costs
//!
//! The mixing criterion (`cdrw_core::CdrwConfig::criterion`) changes what a
//! size check costs. Every criterion needs one binary-search aggregation
//! through the BFS tree per candidate size (locate + sum the `|S|` selected
//! scores, [`crate::primitives::binary_search_cost`]). Criteria that
//! calibrate against the retained mass `p(S)` — renormalised and adaptive —
//! need one extra broadcast (the candidate indicator) plus one convergecast
//! (the mass sum) per check: two [`crate::primitives::tree_wave_cost`]s.
//! The lazy criterion instead stretches the number of walk steps (its walk
//! mixes `1/(1−α)` times slower) without changing the per-step cost; the
//! mass a lazy vertex keeps for itself travels over no edge and costs no
//! message. `cdrw_walk::MixingCriterion::aggregations_per_size_check`
//! records the aggregation count per criterion, and the
//! `mass_calibrated_criteria_charge_the_extra_convergecast` test pins the
//! exact deltas.
//!
//! ## Ensemble costs
//!
//! Under `cdrw_core::EnsemblePolicy::Ensemble`, each detection runs extra
//! follow-up walks on the *same* BFS tree (they start at members of the
//! base detection, which lie within the tree's `O(log n)` depth). The
//! charging is walk-count-scaled: every walk pays its own flooding steps
//! and sweep aggregations plus one membership broadcast — the vote round
//! after which every vertex knows its own tally locally. Selecting the
//! follow-up seeds costs one affinity convergecast plus one broadcast, and
//! announcing the effective quorum one more broadcast; membership in the
//! consensus is then a local decision, so the consensus itself is free.
//! The `ensemble_cost_delta_is_exact_and_walk_count_scaled` test pins
//! these deltas exactly.

use serde::{Deserialize, Serialize};

/// Accumulated cost of a CONGEST execution (or a fragment of one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CostAccount {
    /// Number of synchronous rounds.
    pub rounds: u64,
    /// Total number of `O(log n)`-bit messages sent.
    pub messages: u64,
}

impl CostAccount {
    /// A zeroed account.
    pub fn new() -> Self {
        CostAccount::default()
    }

    /// Charges `rounds` rounds and `messages` messages.
    pub fn charge(&mut self, rounds: u64, messages: u64) {
        self.rounds += rounds;
        self.messages += messages;
    }

    /// Adds another account onto this one (sequential composition).
    pub fn absorb(&mut self, other: CostAccount) {
        self.rounds += other.rounds;
        self.messages += other.messages;
    }
}

impl std::ops::Add for CostAccount {
    type Output = CostAccount;

    fn add(self, rhs: CostAccount) -> CostAccount {
        CostAccount {
            rounds: self.rounds + rhs.rounds,
            messages: self.messages + rhs.messages,
        }
    }
}

impl std::iter::Sum for CostAccount {
    fn sum<I: Iterator<Item = CostAccount>>(iter: I) -> Self {
        iter.fold(CostAccount::new(), |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_absorb_accumulate() {
        let mut account = CostAccount::new();
        account.charge(3, 10);
        account.charge(2, 5);
        assert_eq!(account.rounds, 5);
        assert_eq!(account.messages, 15);
        let mut other = CostAccount::new();
        other.charge(1, 1);
        other.absorb(account);
        assert_eq!(other.rounds, 6);
        assert_eq!(other.messages, 16);
    }

    #[test]
    fn add_and_sum() {
        let a = CostAccount {
            rounds: 2,
            messages: 7,
        };
        let b = CostAccount {
            rounds: 3,
            messages: 1,
        };
        assert_eq!(
            a + b,
            CostAccount {
                rounds: 5,
                messages: 8
            }
        );
        let total: CostAccount = [a, b, a].into_iter().sum();
        assert_eq!(
            total,
            CostAccount {
                rounds: 7,
                messages: 15
            }
        );
    }
}
