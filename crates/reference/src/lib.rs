//! # cdrw-reference
//!
//! Dense, deliberately plain oracles for the reproduction of *Efficient
//! Distributed Community Detection in the Stochastic Block Model* (ICDCS
//! 2019). None of this is shipped: every crate that uses it takes it as a
//! dev-dependency, and the library's sparse engine, sweep and pipeline are
//! pinned against it by property and identity tests.
//!
//! * [`dense_step`] — the `O(n + m)` push `p_ℓ = A·p_{ℓ−1}` of Algorithm 1,
//!   lines 9–11.
//! * [`node_scores`], [`mixing_condition_holds`], [`mixing_check`] and
//!   [`largest_mixing_set`] — Definition 2's per-node scores and the
//!   candidate-size sweep of lines 12–17, every check an `O(n)` scan, under
//!   each of the four [`Criterion`]s.
//! * [`reference_detect_all`] — Algorithm 1 itself, written line by line
//!   with the strict criterion, one walk per detection and first-claim
//!   results. It is the root of the repository's driver-identity chain:
//!   reference → sequential → CONGEST → k-machine.
//!
//! The crate depends on `cdrw-graph` only and speaks plain types: `&[f64]`
//! distributions, `Vec<VertexId>` sets and its own [`Criterion`]. It derives
//! the paper's constants, the candidate sizes, the affinity conventions and
//! the `(weighted degree, id)` tie order itself instead of calling the
//! library's, so the shipped versions of those are checked too. Invalid
//! input is a caller bug here and panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detect;
mod step;
mod sweep;

pub use detect::{reference_detect_all, ReferenceDetection};
pub use step::dense_step;
pub use sweep::{
    largest_mixing_set, mixing_check, mixing_condition_holds, node_scores, Criterion, MixingCheck,
    SweepOutcome, MIXING_THRESHOLD, SIZE_GROWTH_FACTOR,
};
