//! # cdrw-walk
//!
//! Random-walk machinery for the reproduction of *Efficient Distributed
//! Community Detection in the Stochastic Block Model* (ICDCS 2019).
//!
//! CDRW never samples individual random-walk trajectories: it evolves the
//! full probability *distribution* of a walk started at the seed node by one
//! step per round (the "local flooding" of Algorithm 1, lines 9–11), and then
//! asks whether that distribution has *locally mixed* over some vertex set.
//!
//! ## The sparse frontier engine
//!
//! The hot path of every CDRW layer is [`WalkEngine`] + [`WalkWorkspace`]:
//! a double-buffered, in-place stepper that tracks the walk's *support*
//! (the set of vertices carrying probability mass) explicitly.
//!
//! * [`WalkEngine::step`] costs `O(vol(support))` — the sum of the degrees of
//!   the support — instead of the dense `O(n + m)`. For the first `ℓ` steps
//!   the support is contained in the radius-`ℓ` ball around the seed, so
//!   early steps touch a tiny fraction of the graph.
//! * [`WalkEngine::sweep`] runs the candidate-size sweep of Algorithm 1
//!   (lines 12–17) in `O(|support| + |S|)` per candidate size `|S|` for the
//!   strict/lazy/adaptive criteria: support vertices are scored directly,
//!   and because non-support vertices score exactly `d(u)/µ′(S)` — monotone
//!   in the degree — the best non-support candidates are a prefix of a
//!   degree-sorted order precomputed once per engine. Under the
//!   renormalised criterion the candidate sets of *all* sizes are prefixes
//!   of one merged affinity order, so the entire sweep is a single
//!   incremental prefix scan (a sort of the positive-affinity support plus
//!   a read-only walk of the degree order, instead of re-scoring
//!   `Σ|S| ≈ 24n` candidates; the complexity table in the [`WalkEngine`]
//!   module docs has the details). The sweep has two oracles: the dense
//!   `largest_mixing_set` of the dev-only `cdrw-reference` crate,
//!   property-pinned against it under all four criteria, and the
//!   repository's merge-based prefix scan (`tests/sweep_identity.rs`),
//!   pinned bit for bit.
//! * [`WalkWorkspace`] is allocated once and reused across steps *and seeds*
//!   (`cdrw_core::Cdrw::detect_all` re-seeds one workspace for every
//!   community; `detect_parallel` keeps one per worker thread). Re-seeding
//!   costs `O(|support|)`, not `O(n)`.
//! * [`WalkBatch`] + [`WalkEngine::step_batch`] step K independent walks in
//!   lockstep, reading each adjacency list once for all K lanes (once per
//!   8 lanes when a dense frontier is pulled instead of pushed) — the
//!   ensemble's follow-up walks and the assembly's re-seed walks run
//!   through it. Each lane is bit-identical to a solo walk (see the
//!   [`batch`] module docs).
//! * [`shard`] splits one step across vertex-partitioned shards as an
//!   emit/exchange/absorb message round — one [`shard::Share`] per (source,
//!   remote shard homing a neighbour), expanded by each receiver over its
//!   own rows — that reconstructs the sequential accumulation order exactly:
//!   the stepping kernel of `cdrw-kmachine`'s real multi-shard execution
//!   engine.
//! * Per-vertex bookkeeping is a bit-packed membership mask
//!   ([`mask::BitMask`], one bit per vertex) instead of the former
//!   8-bytes-per-vertex epoch stamps, so the membership test in the hot
//!   accumulation loop touches 64× less memory; the [`WalkEngine`] module
//!   docs carry the memory table.
//!
//! The engine is bit-for-bit equivalent to `cdrw-reference`'s dense oracles
//! for stepping (identical accumulation order) and selects identical mixing
//! sets (same score expressions, same tie-breaking total order); only the
//! reported `score_sum` of a sweep check may differ in the last bits because
//! the summation order differs (for the prefix scan, because each size's
//! score is regrouped around the affinity crossing).
//!
//! ## Pluggable mixing criteria
//!
//! The stopping/selection rule of the sweep is a [`MixingCriterion`], carried
//! by [`LocalMixingConfig`]: the paper's strict `1/2e` rule (the reference,
//! bit-identical to the pre-criterion behaviour of this crate), a lazy-walk
//! variant, a renormalised restricted score that cancels inter-community
//! leakage out of the comparison, and an adaptive threshold calibrated from
//! the observed retained mass. See the [`criterion`] module docs for the
//! semantics and the motivating accuracy gap.
//!
//! ## Multi-seed evidence aggregation
//!
//! [`evidence::WalkEvidence`] accumulates per-vertex co-occurrence votes and
//! mixing margins across several independent walks of one detection, and
//! [`evidence::select_interior_seeds`] picks the follow-up walk seeds from a
//! detection's interior. `cdrw_core`'s `EnsemblePolicy::Ensemble` drives both
//! to close the sparse-PPM accuracy frontier; see the [`evidence`] module
//! docs. On top of the per-detection epochs, the accumulator keeps a
//! *cross-epoch pooled view* ([`evidence::WalkEvidence::pool_epoch`],
//! [`evidence::PooledClaim`]): one claim per detection per voted vertex,
//! which `cdrw_core::assembly` reconciles into the run's single global
//! partition.
//!
//! ## Distributions and global mixing
//!
//! [`WalkDistribution`] is a dense probability vector with L1 arithmetic and
//! the (restricted) stationary distribution `π_S(v) = d(v)/µ(S)`;
//! [`mixing`] estimates the global mixing time `τ_mix(ε)` (Definition 1)
//! and the spectral gap by power iteration (Lemmas 1–2).
//!
//! # Example
//!
//! ```
//! use cdrw_gen::{generate_gnp, GnpParams};
//! use cdrw_walk::{LocalMixingConfig, WalkDistribution, WalkEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generate_gnp(&GnpParams::new(256, 0.08)?, 3)?;
//! let engine = WalkEngine::new(&graph);
//! let mut workspace = engine.workspace();
//! workspace.load_point_mass(0)?;
//! for _ in 0..10 {
//!     engine.step(&mut workspace);
//! }
//! // After 10 steps on an expander the walk is close to stationary.
//! let stationary = WalkDistribution::stationary(&graph)?;
//! let distance = workspace.to_distribution()?.l1_distance(&stationary);
//! assert!(distance < 0.5);
//! // The sweep finds the whole graph as one mixing set.
//! let outcome = engine.sweep(&mut workspace, &LocalMixingConfig::for_graph_size(256))?;
//! assert!(outcome.found());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod criterion;
mod distribution;
mod engine;
mod error;
pub mod evidence;
pub mod local_mixing;
pub mod mask;
pub mod mixing;
#[cfg(test)]
mod sampled;
pub mod shard;

pub use batch::WalkBatch;
pub use criterion::{MixingCriterion, DEFAULT_LAZINESS};
pub use distribution::WalkDistribution;
pub use engine::{WalkEngine, WalkWorkspace};
pub use error::WalkError;
pub use evidence::WalkEvidence;
pub use local_mixing::{
    LocalMixingConfig, LocalMixingOutcome, MIXING_THRESHOLD, SIZE_GROWTH_FACTOR,
};
pub use mixing::{estimate_mixing_time, spectral_gap, MixingEstimate};
