//! Configuration of the CDRW algorithm.

use cdrw_graph::Graph;
use cdrw_walk::{LocalMixingConfig, MixingCriterion, MIXING_THRESHOLD, SIZE_GROWTH_FACTOR};
use serde::{Deserialize, Serialize};

use crate::CdrwError;

/// How the growth threshold `δ` of the stopping rule is obtained.
///
/// Algorithm 1 stops growing the walk when `|S_ℓ| < (1 + δ)|S_{ℓ−1}|` with
/// `δ = Φ_G`. The paper assumes `Φ_G` "is given as input, or it can be
/// computed using a distributed algorithm"; this enum captures the choices a
/// user actually has.
///
/// Whichever policy is selected, the resolved `δ` always lies in the single
/// shared domain `[CdrwConfig::MIN_DELTA, 1.0]`: a fixed value outside it is
/// rejected by [`CdrwConfig::validate`], and the sweep estimate is clamped
/// into it, so a sweep-estimated `δ` can always be re-used verbatim as a
/// fixed one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DeltaPolicy {
    /// Use an explicitly supplied value (what the paper's experiments do:
    /// they plug in the planted conductance of the model).
    Fixed(f64),
    /// Estimate `Φ_G` with a BFS-ordered sweep cut
    /// ([`cdrw_graph::properties::conductance_sweep_estimate`]) before the
    /// first detection. This is the default: it needs no ground truth.
    #[default]
    SweepEstimate,
}

/// How many independent walks each detection aggregates evidence from.
///
/// Near the connectivity threshold (`p = Θ(ln n/n)`) with several blocks, a
/// single walk barely mixes in-block before inter-block leakage dominates:
/// the growth rule tends to fire on a small transient mixing set around the
/// seed. *Agreement across several independent walks* is a much stronger
/// signal, so [`EnsemblePolicy::Ensemble`] runs the base detection, re-seeds
/// `walks − 1` follow-up walks from high-affinity members of the detection's
/// interior, accumulates per-vertex co-occurrence votes in a
/// [`cdrw_walk::evidence::WalkEvidence`], and emits the quorum-filtered
/// consensus set (always joined with the largest single-walk set, whose walk
/// out-survived the early stop when one exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EnsemblePolicy {
    /// One walk per detection — Algorithm 1 verbatim. Bit-identical to the
    /// behaviour before the ensemble layer existed (a property test pins
    /// this).
    #[default]
    Single,
    /// Multi-seed evidence aggregation over `walks` independent walks; a
    /// vertex joins the consensus when at least `quorum` walks voted for it.
    /// `walks == 1` degenerates to [`EnsemblePolicy::Single`] exactly.
    Ensemble {
        /// Total number of walks per detection (the base walk included).
        walks: usize,
        /// Minimum number of votes a vertex needs to join the consensus.
        quorum: usize,
    },
}

impl EnsemblePolicy {
    /// Total number of walks per detection (1 for [`EnsemblePolicy::Single`]).
    pub fn walks(&self) -> usize {
        match self {
            EnsemblePolicy::Single => 1,
            EnsemblePolicy::Ensemble { walks, .. } => *walks,
        }
    }

    /// The vote quorum (1 for [`EnsemblePolicy::Single`]).
    pub fn quorum(&self) -> usize {
        match self {
            EnsemblePolicy::Single => 1,
            EnsemblePolicy::Ensemble { quorum, .. } => *quorum,
        }
    }

    /// Whether the ensemble path actually runs extra walks. An
    /// `Ensemble { walks: 1, .. }` policy is treated as single-walk, so the
    /// single path (bit-identical to the pre-ensemble behaviour) serves it.
    pub fn is_ensemble(&self) -> bool {
        self.walks() > 1
    }
}

/// How the per-seed detections of a run are assembled into the final global
/// partition.
///
/// The pool loop emits one detection per seed; detections can overlap (later
/// walks run on the full graph), conflict, or leave vertices unassigned.
/// [`AssemblyPolicy::Raw`] keeps the historical resolution — first claim
/// wins, leftovers become singletons — bit-identically.
/// [`AssemblyPolicy::Pooled`] instead pools every detection's per-vertex
/// votes and mixing margins in a [`cdrw_walk::evidence::WalkEvidence`]
/// cross-epoch view and hands them to [`crate::assembly`], which
///
/// 1. links detections whose pooled claims overlap heavily into *evidence
///    groups* (fragments of one underlying community),
/// 2. re-seeds `reseed` extra walks per multi-detection group from the
///    group's highest-margin members — the ROADMAP's *cross-detection
///    ensemble re-seeding* — and joins their quorum-filtered consensus into
///    the group's member set,
/// 3. resolves contested vertices by margin-weighted vote and absorbs
///    unassigned vertices into their highest-affinity neighbour community
///    (isolated vertices stay singletons), producing a total partition.
///
/// # Examples
///
/// ```
/// use cdrw_core::{AssemblyPolicy, Cdrw, CdrwConfig};
/// use cdrw_gen::{generate_ppm, PpmParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = PpmParams::new(256, 2, 0.25, 0.004)?;
/// let (graph, _) = generate_ppm(&params, 7)?;
/// let cdrw = Cdrw::new(
///     CdrwConfig::builder().seed(3).delta(0.1).assembly(2, 1).build(),
/// );
/// let result = cdrw.detect_all(&graph)?;
/// // The pooled assembly reports what it did and the partition is total.
/// assert!(result.assembly().is_some());
/// assert_eq!(result.partition().num_vertices(), 256);
/// // The default policy stays Raw: no report, historical behaviour.
/// let raw = Cdrw::new(CdrwConfig::builder().seed(3).delta(0.1).build());
/// assert!(raw.detect_all(&graph)?.assembly().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AssemblyPolicy {
    /// First claim wins, unclaimed vertices become singletons — the assembly
    /// layer changes nothing: a property test pins `Raw` bit-identical to a
    /// configuration that never mentions an assembly policy. (The
    /// zero-degree-vertex bugfix that shipped alongside the assembly layer
    /// applies under every policy, `Raw` included; see the paper map's
    /// deviation 10.)
    #[default]
    Raw,
    /// Cross-detection evidence pooling: group overlapping detections, run
    /// `reseed` follow-up walks per multi-detection group (a vertex needs
    /// `quorum` of their votes to join the group by re-seeding alone), and
    /// reconcile the claims into a total partition. `reseed: 0, quorum: 0`
    /// reconciles without extra walks.
    Pooled {
        /// Follow-up walks per evidence group with at least two detections.
        reseed: usize,
        /// Votes a vertex needs among the re-seeded walks to join the group's
        /// consensus (clamped at runtime to the walks actually recorded, the
        /// same discipline as [`EnsemblePolicy::Ensemble`]).
        quorum: usize,
    },
}

impl AssemblyPolicy {
    /// Whether this policy pools evidence (anything but [`AssemblyPolicy::Raw`]).
    pub fn is_pooled(&self) -> bool {
        !matches!(self, AssemblyPolicy::Raw)
    }

    /// The configured re-seed walk count (0 for [`AssemblyPolicy::Raw`]).
    pub fn reseed(&self) -> usize {
        match self {
            AssemblyPolicy::Raw => 0,
            AssemblyPolicy::Pooled { reseed, .. } => *reseed,
        }
    }

    /// The configured re-seed vote quorum (0 for [`AssemblyPolicy::Raw`]).
    pub fn quorum(&self) -> usize {
        match self {
            AssemblyPolicy::Raw => 0,
            AssemblyPolicy::Pooled { quorum, .. } => *quorum,
        }
    }

    /// Pooled reconciliation without cross-detection re-seed walks.
    pub const fn reconcile_only() -> Self {
        AssemblyPolicy::Pooled {
            reseed: 0,
            quorum: 0,
        }
    }
}

/// Configuration of CDRW (Algorithm 1).
///
/// Use [`CdrwConfig::builder`] to construct; all fields have paper-faithful
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdrwConfig {
    /// RNG seed used for picking seed nodes from the pool.
    pub seed: u64,
    /// Policy for the growth threshold `δ`.
    pub delta: DeltaPolicy,
    /// Minimum candidate community size `R`. `None` uses the paper's
    /// `⌈ln n⌉`.
    pub min_community_size: Option<usize>,
    /// Local-mixing threshold, `1/2e` in the paper.
    pub mixing_threshold: f64,
    /// Geometric growth factor of the candidate-size sweep, `1 + 1/8e` in the
    /// paper.
    pub size_growth_factor: f64,
    /// The mixing criterion the sweep applies per candidate size. Defaults to
    /// [`MixingCriterion::Renormalized`] — the rule under which the
    /// reproduction meets the paper's accuracy targets on every measured
    /// regime (the strict `1/2e` rule under-fires when the walk leaks mass
    /// across blocks faster than it equalises within one; see `ROADMAP.md`).
    /// Select [`MixingCriterion::Strict`] to run Algorithm 1 verbatim.
    pub criterion: MixingCriterion,
    /// How many independent walks each detection aggregates evidence from.
    /// Defaults to [`EnsemblePolicy::Single`] (Algorithm 1 verbatim);
    /// [`EnsemblePolicy::Ensemble`] closes the sparse-PPM accuracy frontier
    /// (`p = Θ(ln n/n)`, several blocks) — see `ROADMAP.md` for the measured
    /// comparison.
    pub ensemble: EnsemblePolicy,
    /// How a run's detections are assembled into the final partition.
    /// Defaults to [`AssemblyPolicy::Raw`] (first claim wins, bit-identical
    /// to the pre-assembly behaviour); [`AssemblyPolicy::Pooled`] pools
    /// evidence across detections, re-seeds fragmented communities and
    /// reconciles overlaps — the lever that lifts the hardest Figure 4a
    /// sparse cells past the plain ensemble (see `ROADMAP.md`).
    pub assembly: AssemblyPolicy,
}

impl CdrwConfig {
    /// Smallest growth threshold `δ` the configuration accepts — the single
    /// domain shared by both [`DeltaPolicy`] paths. A fixed `δ` below this is
    /// rejected by [`CdrwConfig::validate`], and
    /// [`CdrwConfig::resolve_delta`]'s sweep path clamps its estimate up to
    /// it (a sweep on a graph with an extremely sparse cut can estimate an
    /// arbitrarily small conductance, which would make the stopping rule
    /// `|S_ℓ| < (1 + δ)|S_{ℓ−1}|` fire on any non-growing set). The resolved
    /// `δ` therefore always lies in `[MIN_DELTA, 1.0]`, whichever policy
    /// produced it.
    pub const MIN_DELTA: f64 = 1e-6;

    /// Walk-length cap as a multiple of `ln n` (Algorithm 1 runs the walk for
    /// `O(log n)` steps).
    pub const MAX_WALK_LENGTH_FACTOR: f64 = 3.0;

    /// The growth-rule stop (`|S_ℓ| < (1+δ)|S_{ℓ−1}|`) is only applied once
    /// the previous mixing set has at least `MIN_STOP_SIZE_FACTOR · R`
    /// vertices (with `R` the minimum candidate size). Very early in the
    /// walk, tiny sets of ≈ R nodes around the seed can spuriously satisfy
    /// the approximate mixing condition for a couple of steps, which would
    /// otherwise fire the stop rule long before the walk has spread over the
    /// community; the paper's analysis implicitly excludes this regime by
    /// assuming every community has at least `log n` members and analysing
    /// walk lengths up to the (local) mixing time.
    pub const MIN_STOP_SIZE_FACTOR: f64 = 2.0;

    /// Starts building a configuration.
    pub fn builder() -> CdrwConfigBuilder {
        CdrwConfigBuilder::default()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CdrwError::InvalidConfig`] when a field is outside its valid
    /// domain (non-positive threshold, growth factor ≤ 1,
    /// a fixed δ outside `[CdrwConfig::MIN_DELTA, 1.0]`, or an ensemble
    /// policy whose quorum exceeds its walk count).
    // The negated comparisons are deliberate: NaN fails `x > 0.0` and must be
    // rejected, which `x <= 0.0` would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), CdrwError> {
        if !(self.mixing_threshold > 0.0) {
            return Err(CdrwError::InvalidConfig {
                field: "mixing_threshold",
                reason: format!("must be positive, got {}", self.mixing_threshold),
            });
        }
        if !(self.size_growth_factor > 1.0) {
            return Err(CdrwError::InvalidConfig {
                field: "size_growth_factor",
                reason: format!("must be greater than 1, got {}", self.size_growth_factor),
            });
        }
        if let Some(0) = self.min_community_size {
            return Err(CdrwError::InvalidConfig {
                field: "min_community_size",
                reason: "must be at least 1".to_string(),
            });
        }
        if let DeltaPolicy::Fixed(delta) = self.delta {
            // NaN fails `contains` and is rejected, as intended.
            if !(Self::MIN_DELTA..=1.0).contains(&delta) {
                return Err(CdrwError::InvalidConfig {
                    field: "delta",
                    reason: format!(
                        "a fixed δ must lie in [{}, 1] (the same domain the sweep \
                         estimate is clamped into), got {delta}",
                        Self::MIN_DELTA
                    ),
                });
            }
        }
        match self.ensemble {
            EnsemblePolicy::Single => {}
            EnsemblePolicy::Ensemble { walks, quorum } => {
                if walks == 0 {
                    return Err(CdrwError::InvalidConfig {
                        field: "ensemble",
                        reason: "an ensemble needs at least one walk".to_string(),
                    });
                }
                if quorum == 0 || quorum > walks {
                    return Err(CdrwError::InvalidConfig {
                        field: "ensemble",
                        reason: format!(
                            "the quorum must lie in [1, walks]; got quorum {quorum} \
                             with {walks} walks"
                        ),
                    });
                }
            }
        }
        match self.assembly {
            AssemblyPolicy::Raw => {}
            AssemblyPolicy::Pooled { reseed: 0, quorum } => {
                if quorum != 0 {
                    return Err(CdrwError::InvalidConfig {
                        field: "assembly",
                        reason: format!(
                            "a pooled assembly without re-seed walks takes quorum 0, \
                             got quorum {quorum}"
                        ),
                    });
                }
            }
            AssemblyPolicy::Pooled { reseed, quorum } => {
                // The same invariant as the ensemble: the quorum must be
                // satisfiable by the configured walks. At runtime a group can
                // still record fewer walks than `reseed` (degenerate-small
                // seed pools, abstaining walks); the driver then clamps the
                // quorum to the recorded count — the exact mirror of this
                // check, so validation and clamping agree at the boundary.
                if quorum == 0 || quorum > reseed {
                    return Err(CdrwError::InvalidConfig {
                        field: "assembly",
                        reason: format!(
                            "the re-seed quorum must lie in [1, reseed]; got quorum \
                             {quorum} with {reseed} re-seed walks"
                        ),
                    });
                }
            }
        }
        self.criterion
            .validate()
            .map_err(|e| CdrwError::InvalidConfig {
                field: "criterion",
                reason: e.to_string(),
            })
    }

    /// The maximum walk length for a graph of `n` vertices:
    /// `⌈MAX_WALK_LENGTH_FACTOR · ln n⌉` stretched by the criterion's
    /// walk-length multiplier (the lazy walk mixes `1/(1−α)` times slower),
    /// at least 2.
    pub fn max_walk_length(&self, n: usize) -> usize {
        let ln_n = (n.max(2) as f64).ln();
        let budget = Self::MAX_WALK_LENGTH_FACTOR * self.criterion.walk_length_multiplier() * ln_n;
        (budget.ceil() as usize).max(2)
    }

    /// The smallest previous-set size at which the growth-rule stop is
    /// considered, for a graph of `n` vertices.
    pub fn min_stop_size(&self, n: usize) -> usize {
        let r = self.local_mixing_config(n).min_size;
        (Self::MIN_STOP_SIZE_FACTOR * r as f64).ceil() as usize
    }

    /// The [`LocalMixingConfig`] induced by this configuration for a graph of
    /// `n` vertices.
    pub fn local_mixing_config(&self, n: usize) -> LocalMixingConfig {
        let defaults = LocalMixingConfig::for_graph_size(n);
        LocalMixingConfig {
            min_size: self.min_community_size.unwrap_or(defaults.min_size),
            growth_factor: self.size_growth_factor,
            threshold: self.mixing_threshold,
            criterion: self.criterion,
        }
    }

    /// Resolves the growth threshold `δ` for a concrete graph according to
    /// the [`DeltaPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates failures of the sweep estimator (empty graph).
    pub fn resolve_delta(&self, graph: &Graph) -> Result<f64, CdrwError> {
        match self.delta {
            DeltaPolicy::Fixed(delta) => Ok(delta),
            DeltaPolicy::SweepEstimate => {
                let estimate = cdrw_graph::properties::conductance_sweep_estimate(graph)?;
                // Clamp into the shared δ domain (see `CdrwConfig::MIN_DELTA`)
                // so the stopping rule remains usable on graphs with an
                // extremely sparse cut, and so the estimate is always a value
                // `validate` would also accept as a fixed δ.
                Ok(estimate.clamp(Self::MIN_DELTA, 1.0))
            }
        }
    }
}

impl Default for CdrwConfig {
    fn default() -> Self {
        CdrwConfig {
            seed: 0,
            delta: DeltaPolicy::default(),
            min_community_size: None,
            mixing_threshold: MIXING_THRESHOLD,
            size_growth_factor: SIZE_GROWTH_FACTOR,
            criterion: MixingCriterion::default(),
            ensemble: EnsemblePolicy::default(),
            assembly: AssemblyPolicy::default(),
        }
    }
}

/// Builder for [`CdrwConfig`].
#[derive(Debug, Clone, Default)]
pub struct CdrwConfigBuilder {
    config: CdrwConfig,
}

impl CdrwConfigBuilder {
    /// Sets the RNG seed used to draw seed nodes from the pool.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets a fixed growth threshold `δ` (the paper's `Φ_G`).
    pub fn delta(mut self, delta: f64) -> Self {
        self.config.delta = DeltaPolicy::Fixed(delta);
        self
    }

    /// Sets the δ policy directly.
    pub fn delta_policy(mut self, policy: DeltaPolicy) -> Self {
        self.config.delta = policy;
        self
    }

    /// Sets the minimum candidate community size `R`.
    pub fn min_community_size(mut self, size: usize) -> Self {
        self.config.min_community_size = Some(size);
        self
    }

    /// Sets the local-mixing threshold (paper default `1/2e`).
    pub fn mixing_threshold(mut self, threshold: f64) -> Self {
        self.config.mixing_threshold = threshold;
        self
    }

    /// Sets the candidate-size growth factor (paper default `1 + 1/8e`).
    pub fn size_growth_factor(mut self, factor: f64) -> Self {
        self.config.size_growth_factor = factor;
        self
    }

    /// Sets the mixing criterion (default [`MixingCriterion::Renormalized`];
    /// [`MixingCriterion::Strict`] runs Algorithm 1 verbatim).
    pub fn criterion(mut self, criterion: MixingCriterion) -> Self {
        self.config.criterion = criterion;
        self
    }

    /// Sets the ensemble policy directly (default [`EnsemblePolicy::Single`]).
    pub fn ensemble_policy(mut self, policy: EnsemblePolicy) -> Self {
        self.config.ensemble = policy;
        self
    }

    /// Shorthand for [`EnsemblePolicy::Ensemble`] with the given walk count
    /// and vote quorum.
    pub fn ensemble(mut self, walks: usize, quorum: usize) -> Self {
        self.config.ensemble = EnsemblePolicy::Ensemble { walks, quorum };
        self
    }

    /// Sets the assembly policy directly (default [`AssemblyPolicy::Raw`]).
    pub fn assembly_policy(mut self, policy: AssemblyPolicy) -> Self {
        self.config.assembly = policy;
        self
    }

    /// Shorthand for [`AssemblyPolicy::Pooled`] with the given re-seed walk
    /// count and vote quorum.
    pub fn assembly(mut self, reseed: usize, quorum: usize) -> Self {
        self.config.assembly = AssemblyPolicy::Pooled { reseed, quorum };
        self
    }

    /// Finishes building. Panics are avoided: validation happens when the
    /// configuration is first used (so the builder itself stays infallible).
    pub fn build(self) -> CdrwConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;

    #[test]
    fn defaults_match_the_paper() {
        let config = CdrwConfig::default();
        assert!((config.mixing_threshold - MIXING_THRESHOLD).abs() < 1e-15);
        assert!((config.size_growth_factor - SIZE_GROWTH_FACTOR).abs() < 1e-15);
        assert_eq!(config.delta, DeltaPolicy::SweepEstimate);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn builder_sets_every_field() {
        let config = CdrwConfig::builder()
            .seed(9)
            .delta(0.25)
            .min_community_size(16)
            .mixing_threshold(0.2)
            .size_growth_factor(1.1)
            .criterion(MixingCriterion::Adaptive)
            .ensemble(5, 2)
            .assembly(4, 2)
            .build();
        assert_eq!(config.seed, 9);
        assert_eq!(config.delta, DeltaPolicy::Fixed(0.25));
        assert_eq!(config.min_community_size, Some(16));
        assert_eq!(config.mixing_threshold, 0.2);
        assert_eq!(config.size_growth_factor, 1.1);
        assert_eq!(config.criterion, MixingCriterion::Adaptive);
        assert_eq!(
            config.ensemble,
            EnsemblePolicy::Ensemble {
                walks: 5,
                quorum: 2
            }
        );
        assert_eq!(
            config.assembly,
            AssemblyPolicy::Pooled {
                reseed: 4,
                quorum: 2
            }
        );
        assert!(config.validate().is_ok());
        // The three policy-shaped fields are also settable via their
        // dedicated builder methods.
        let config = CdrwConfig::builder()
            .delta_policy(DeltaPolicy::SweepEstimate)
            .ensemble_policy(EnsemblePolicy::Single)
            .assembly_policy(AssemblyPolicy::Raw)
            .build();
        assert_eq!(config.delta, DeltaPolicy::SweepEstimate);
        assert_eq!(config.ensemble, EnsemblePolicy::Single);
        assert_eq!(config.assembly, AssemblyPolicy::Raw);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = CdrwConfig {
            mixing_threshold: -1.0,
            ..CdrwConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = CdrwConfig {
            size_growth_factor: 1.0,
            ..CdrwConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = CdrwConfig {
            min_community_size: Some(0),
            ..CdrwConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = CdrwConfig::builder().delta(0.0).build();
        assert!(bad.validate().is_err());
        let bad = CdrwConfig::builder().delta(1.5).build();
        assert!(bad.validate().is_err());
        let bad = CdrwConfig::builder().ensemble(0, 1).build();
        assert!(bad.validate().is_err());
        let bad = CdrwConfig::builder().ensemble(3, 0).build();
        assert!(bad.validate().is_err());
        let bad = CdrwConfig::builder().ensemble(3, 4).build();
        assert!(bad.validate().is_err());
        let ok = CdrwConfig::builder().ensemble(3, 3).build();
        assert!(ok.validate().is_ok());
        let degenerate = CdrwConfig::builder().ensemble(1, 1).build();
        assert!(degenerate.validate().is_ok());
        assert!(!degenerate.ensemble.is_ensemble());
    }

    #[test]
    fn assembly_validation_boundaries_match_the_runtime_clamp() {
        // Valid side of every boundary: quorum == reseed is the largest
        // quorum the runtime clamp can ever leave in place, and the
        // reconcile-only policy takes quorum 0 exactly.
        for ok in [
            AssemblyPolicy::Raw,
            AssemblyPolicy::reconcile_only(),
            AssemblyPolicy::Pooled {
                reseed: 1,
                quorum: 1,
            },
            AssemblyPolicy::Pooled {
                reseed: 4,
                quorum: 4,
            },
        ] {
            let config = CdrwConfig::builder().assembly_policy(ok).build();
            assert!(config.validate().is_ok(), "{ok:?} must validate");
        }
        // Invalid side: a quorum the configured walks can never satisfy is
        // rejected up front — the exact condition the runtime clamp
        // `quorum.min(walks_recorded)` prevents from arising dynamically.
        for bad in [
            AssemblyPolicy::Pooled {
                reseed: 4,
                quorum: 5,
            },
            AssemblyPolicy::Pooled {
                reseed: 4,
                quorum: 0,
            },
            AssemblyPolicy::Pooled {
                reseed: 0,
                quorum: 1,
            },
        ] {
            let config = CdrwConfig::builder().assembly_policy(bad).build();
            assert!(
                matches!(
                    config.validate(),
                    Err(CdrwError::InvalidConfig {
                        field: "assembly",
                        ..
                    })
                ),
                "{bad:?} must be rejected"
            );
        }
        // The ensemble boundary mirrors it: quorum == walks valid,
        // quorum == walks + 1 invalid (both directions pinned above in
        // `validation_rejects_bad_values`).
        assert!(CdrwConfig::builder()
            .ensemble(3, 3)
            .build()
            .validate()
            .is_ok());
        assert!(CdrwConfig::builder()
            .ensemble(3, 4)
            .build()
            .validate()
            .is_err());
    }

    #[test]
    fn assembly_policy_accessors() {
        assert!(!AssemblyPolicy::Raw.is_pooled());
        assert_eq!(AssemblyPolicy::Raw.reseed(), 0);
        assert_eq!(AssemblyPolicy::Raw.quorum(), 0);
        assert_eq!(AssemblyPolicy::default(), AssemblyPolicy::Raw);
        let pooled = AssemblyPolicy::Pooled {
            reseed: 6,
            quorum: 3,
        };
        assert!(pooled.is_pooled());
        assert_eq!(pooled.reseed(), 6);
        assert_eq!(pooled.quorum(), 3);
        assert!(AssemblyPolicy::reconcile_only().is_pooled());
        assert_eq!(AssemblyPolicy::reconcile_only().reseed(), 0);
    }

    #[test]
    fn delta_domain_is_shared_by_both_policies() {
        // Fixed path: the boundary values of the shared domain are accepted,
        // anything below MIN_DELTA (or above 1) is rejected.
        assert!(CdrwConfig::builder()
            .delta(CdrwConfig::MIN_DELTA)
            .build()
            .validate()
            .is_ok());
        assert!(CdrwConfig::builder().delta(1.0).build().validate().is_ok());
        assert!(CdrwConfig::builder()
            .delta(CdrwConfig::MIN_DELTA / 2.0)
            .build()
            .validate()
            .is_err());
        assert!(CdrwConfig::builder()
            .delta(f64::NAN)
            .build()
            .validate()
            .is_err());
        // Sweep path: the estimate lands in the same domain, so it can always
        // be re-used verbatim as a fixed δ of a valid configuration.
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
                .unwrap();
        let sweep_delta = CdrwConfig::default().resolve_delta(&g).unwrap();
        assert!((CdrwConfig::MIN_DELTA..=1.0).contains(&sweep_delta));
        assert!(CdrwConfig::builder()
            .delta(sweep_delta)
            .build()
            .validate()
            .is_ok());
    }

    #[test]
    fn ensemble_policy_accessors() {
        assert_eq!(EnsemblePolicy::Single.walks(), 1);
        assert_eq!(EnsemblePolicy::Single.quorum(), 1);
        assert!(!EnsemblePolicy::Single.is_ensemble());
        let policy = EnsemblePolicy::Ensemble {
            walks: 7,
            quorum: 3,
        };
        assert_eq!(policy.walks(), 7);
        assert_eq!(policy.quorum(), 3);
        assert!(policy.is_ensemble());
        assert!(!EnsemblePolicy::Ensemble {
            walks: 1,
            quorum: 1
        }
        .is_ensemble());
        assert_eq!(EnsemblePolicy::default(), EnsemblePolicy::Single);
    }

    #[test]
    fn max_walk_length_scales_with_ln_n() {
        let config = CdrwConfig::default();
        assert!(config.max_walk_length(2) >= 2);
        let small = config.max_walk_length(128);
        let large = config.max_walk_length(128 * 128);
        assert!((large as f64 - 2.0 * small as f64).abs() <= 2.0);
    }

    #[test]
    fn local_mixing_config_respects_overrides() {
        let config = CdrwConfig::builder().min_community_size(50).build();
        let lm = config.local_mixing_config(1024);
        assert_eq!(lm.min_size, 50);
        let default_lm = CdrwConfig::default().local_mixing_config(1024);
        assert_eq!(default_lm.min_size, 7);
    }

    #[test]
    fn resolve_delta_fixed_and_sweep() {
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
                .unwrap();
        let fixed = CdrwConfig::builder().delta(0.3).build();
        assert_eq!(fixed.resolve_delta(&g).unwrap(), 0.3);
        let sweep = CdrwConfig::default();
        let delta = sweep.resolve_delta(&g).unwrap();
        assert!(delta > 0.0 && delta <= 1.0);
    }
}
