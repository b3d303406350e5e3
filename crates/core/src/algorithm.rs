//! The CDRW detector: the sequential entry points of Algorithm 1 (the
//! pipeline itself lives in [`crate::pipeline`]).

use cdrw_graph::{Graph, VertexId};

use crate::pipeline::Pipeline;
use crate::result::{CommunityDetection, DetectionResult};
use crate::{CdrwConfig, CdrwError};

/// The CDRW community detector.
///
/// Holds a validated-on-use [`CdrwConfig`]; the same instance can be applied
/// to many graphs. See the crate-level documentation for a quickstart.
///
/// # Examples
///
/// Detect a single seed's community, then all communities, on a planted
/// partition graph:
///
/// ```
/// use cdrw_core::{Cdrw, CdrwConfig, MixingCriterion};
/// use cdrw_gen::{generate_ppm, PpmParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = PpmParams::new(256, 2, 0.25, 0.002)?;
/// let (graph, truth) = generate_ppm(&params, 17)?;
///
/// let cdrw = Cdrw::new(CdrwConfig::builder().seed(4).delta(0.05).build());
/// // One seed: the detection contains the seed and roughly its block.
/// let detection = cdrw.detect_community(&graph, 0)?;
/// assert!(detection.contains(0));
/// let block = truth.members(truth.community_of(0).unwrap());
/// let inside = detection.members.iter().filter(|v| block.contains(v)).count();
/// assert!(inside * 10 >= detection.len() * 8, "≥ 80% of the set is the true block");
///
/// // All seeds (the pool loop): a total partition of the graph.
/// let result = cdrw.detect_all(&graph)?;
/// assert_eq!(result.partition().num_vertices(), 256);
///
/// // The paper's exact rule remains selectable per configuration.
/// let strict = Cdrw::new(
///     CdrwConfig::builder().seed(4).delta(0.05).criterion(MixingCriterion::Strict).build(),
/// );
/// assert!(strict.detect_community(&graph, 0)?.contains(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cdrw {
    config: CdrwConfig,
}

impl Cdrw {
    /// Creates a detector with the given configuration.
    pub fn new(config: CdrwConfig) -> Self {
        Cdrw { config }
    }

    /// Creates a detector with the paper-default configuration.
    pub fn with_defaults() -> Self {
        Cdrw::new(CdrwConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &CdrwConfig {
        &self.config
    }

    /// Detects the community containing `seed` (the inner loop of
    /// Algorithm 1: walk, local-mixing sweep, growth-rule stop — plus the
    /// evidence-aggregation ensemble when [`CdrwConfig::ensemble`] asks for
    /// it). A zero-degree seed is its own singleton community.
    ///
    /// # Errors
    ///
    /// * [`CdrwError::EmptyGraph`] / [`CdrwError::NoEdges`] for degenerate
    ///   graphs.
    /// * [`CdrwError::InvalidConfig`] if the configuration fails validation.
    /// * [`CdrwError::Graph`] if `seed` is out of range.
    pub fn detect_community(
        &self,
        graph: &Graph,
        seed: VertexId,
    ) -> Result<CommunityDetection, CdrwError> {
        let pipeline = Pipeline::new(&self.config, graph)?;
        graph.check_vertex(seed)?;
        pipeline.detect_community(&mut pipeline.local_lanes(), &mut pipeline.evidence(), seed)
    }

    /// Detects all communities by repeatedly seeding from the pool of
    /// unassigned vertices (the outer loop of Algorithm 1), then assembles
    /// the detections into the final partition according to
    /// [`CdrwConfig::assembly`]: first claim wins under
    /// [`crate::AssemblyPolicy::Raw`], cross-detection evidence pooling and
    /// reconciliation under [`crate::AssemblyPolicy::Pooled`] (see
    /// [`crate::assembly`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cdrw::detect_community`].
    pub fn detect_all(&self, graph: &Graph) -> Result<DetectionResult, CdrwError> {
        let pipeline = Pipeline::new(&self.config, graph)?;
        let (result, _) = pipeline.detect_all(&mut pipeline.local_lanes())?;
        Ok(result)
    }
}

impl Default for Cdrw {
    fn default() -> Self {
        Cdrw::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::growth::{GrowthTracker, WalkAnswer};
    use crate::{AssemblyPolicy, DeltaPolicy};
    use cdrw_gen::{generate_gnp, generate_ppm, special, GnpParams, PpmParams};
    use cdrw_graph::Graph;
    use cdrw_metrics::{f_score, f_score_for_detections};
    use cdrw_walk::WalkEngine;

    fn paper_delta(params: &PpmParams) -> f64 {
        params.expected_block_conductance().clamp(0.01, 1.0)
    }

    #[test]
    fn degenerate_graphs_are_rejected() {
        let cdrw = Cdrw::with_defaults();
        assert_eq!(
            cdrw.detect_all(&Graph::empty(0)).unwrap_err(),
            CdrwError::EmptyGraph
        );
        assert_eq!(
            cdrw.detect_all(&Graph::empty(5)).unwrap_err(),
            CdrwError::NoEdges
        );
        let (g, _) = special::complete(10).unwrap();
        assert!(cdrw.detect_community(&g, 42).is_err());
    }

    #[test]
    fn invalid_config_is_reported() {
        let config = CdrwConfig {
            mixing_threshold: -1.0,
            ..CdrwConfig::default()
        };
        let (g, _) = special::complete(10).unwrap();
        assert!(matches!(
            Cdrw::new(config).detect_all(&g),
            Err(CdrwError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn complete_graph_is_one_community() {
        let (g, _) = special::complete(64).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(3).delta(0.05).build());
        let result = cdrw.detect_all(&g).unwrap();
        assert_eq!(result.num_communities(), 1);
        assert_eq!(result.detections()[0].len(), 64);
    }

    #[test]
    fn detection_always_contains_the_seed() {
        let (g, _) = special::ring_of_cliques(3, 16).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(1).min_community_size(4).build());
        for seed in [0, 10, 47] {
            let detection = cdrw.detect_community(&g, seed).unwrap();
            assert!(detection.contains(seed));
            assert!(!detection.trace.steps.is_empty());
        }
    }

    #[test]
    fn gnp_graph_detected_as_single_community() {
        // Figure 2's premise: a G(n, p) expander is one community.
        let n = 1024;
        let p = 2.0 * (n as f64).ln() / n as f64;
        let g = generate_gnp(&GnpParams::new(n, p).unwrap(), 5).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(2).delta(0.9).build());
        let detection = cdrw.detect_community(&g, 0).unwrap();
        // Almost all of the graph should be in the detected community.
        assert!(
            detection.len() as f64 > 0.95 * n as f64,
            "detected only {} of {n} vertices",
            detection.len()
        );
    }

    #[test]
    fn ppm_two_blocks_recovered_with_high_f_score() {
        let params = PpmParams::new(512, 2, 0.2, 0.002).unwrap();
        let (graph, truth) = generate_ppm(&params, 17).unwrap();
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(4)
                .delta(paper_delta(&params))
                .build(),
        );
        let result = cdrw.detect_all(&graph).unwrap();
        // The paper's metric: score each raw detection against the ground
        // truth community of its seed.
        let report = f_score_for_detections(
            result
                .detections()
                .iter()
                .map(|d| (d.members.as_slice(), d.seed)),
            &truth,
        );
        assert!(
            report.f_score > 0.9,
            "F-score {} too low (detected {} communities)",
            report.f_score,
            result.num_communities()
        );
    }

    #[test]
    fn ppm_four_blocks_recovered() {
        let params = PpmParams::new(512, 4, 0.3, 0.003).unwrap();
        let (graph, truth) = generate_ppm(&params, 23).unwrap();
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(6)
                .delta(paper_delta(&params))
                .build(),
        );
        let result = cdrw.detect_all(&graph).unwrap();
        let report = f_score(result.partition(), &truth);
        assert!(
            report.f_score > 0.85,
            "F-score {} too low (detected {} communities, sizes {:?})",
            report.f_score,
            result.num_communities(),
            result.partition().community_sizes()
        );
    }

    #[test]
    fn sweep_delta_policy_also_works_on_ppm() {
        let params = PpmParams::new(256, 2, 0.25, 0.002).unwrap();
        let (graph, truth) = generate_ppm(&params, 31).unwrap();
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(8)
                .delta_policy(DeltaPolicy::SweepEstimate)
                .build(),
        );
        let result = cdrw.detect_all(&graph).unwrap();
        let report = f_score(result.partition(), &truth);
        assert!(report.f_score > 0.7, "F-score {}", report.f_score);
        assert!(result.delta() > 0.0);
    }

    #[test]
    fn ring_of_cliques_blocks_are_recovered() {
        let (graph, truth) = special::ring_of_cliques(4, 32).unwrap();
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(5)
                .delta(0.05)
                .min_community_size(8)
                .build(),
        );
        let result = cdrw.detect_all(&graph).unwrap();
        let report = f_score(result.partition(), &truth);
        assert!(report.f_score > 0.9, "F-score {}", report.f_score);
    }

    #[test]
    fn workspace_reuse_across_seeds_matches_fresh_workspaces() {
        // detect_all reuses one engine workspace for every seed; each of its
        // detections must be identical to a run with a fresh workspace.
        let params = PpmParams::new(256, 2, 0.25, 0.004).unwrap();
        let (graph, _) = generate_ppm(&params, 37).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(3).delta(0.1).build());
        let result = cdrw.detect_all(&graph).unwrap();
        assert!(result.num_communities() >= 2);
        for detection in result.detections() {
            let fresh = cdrw.detect_community(&graph, detection.seed).unwrap();
            assert_eq!(&fresh, detection, "seed {} diverged", detection.seed);
        }
    }

    #[test]
    fn detect_all_is_deterministic_per_seed() {
        let params = PpmParams::new(256, 2, 0.2, 0.004).unwrap();
        let (graph, _) = generate_ppm(&params, 2).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(99).delta(0.1).build());
        let a = cdrw.detect_all(&graph).unwrap();
        let b = cdrw.detect_all(&graph).unwrap();
        assert_eq!(a, b);
        let other = Cdrw::new(CdrwConfig::builder().seed(100).delta(0.1).build())
            .detect_all(&graph)
            .unwrap();
        // Different seed ordering: seeds differ (almost surely).
        assert_ne!(a.seeds(), other.seeds());
    }

    #[test]
    fn partition_covers_every_vertex_exactly_once() {
        let params = PpmParams::new(300, 3, 0.2, 0.005).unwrap();
        let (graph, _) = generate_ppm(&params, 40).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(7).delta(0.1).build());
        let result = cdrw.detect_all(&graph).unwrap();
        let p = result.partition();
        assert_eq!(p.num_vertices(), 300);
        assert_eq!(p.community_sizes().iter().sum::<usize>(), 300);
    }

    #[test]
    fn trace_records_growth_and_stop_reason() {
        let params = PpmParams::new(256, 2, 0.25, 0.002).unwrap();
        let (graph, _) = generate_ppm(&params, 3).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(1).delta(0.1).build());
        let detection = cdrw.detect_community(&graph, 0).unwrap();
        let history = detection.trace.size_history();
        assert!(!history.is_empty());
        // Sizes are non-decreasing until the stop (the walk only spreads).
        let found: Vec<usize> = history.iter().copied().filter(|&s| s > 0).collect();
        for window in found.windows(2) {
            assert!(window[1] >= window[0]);
        }
        assert!(detection.trace.total_size_checks() > 0);
    }

    #[test]
    fn growth_rule_trace_ends_on_the_returned_community_size() {
        // The step that fires the growth rule finds a *larger* set that
        // Algorithm 1 discards; the trace must record the community the
        // caller actually received, not the discarded set.
        let params = PpmParams::new(256, 2, 0.25, 0.002).unwrap();
        for graph_seed in [3u64, 7, 11] {
            let (graph, _) = generate_ppm(&params, graph_seed).unwrap();
            let cdrw = Cdrw::new(CdrwConfig::builder().seed(1).delta(0.1).build());
            for seed in [0usize, 50, 200] {
                let detection = cdrw.detect_community(&graph, seed).unwrap();
                if detection.trace.stopped_by_growth_rule {
                    assert_eq!(
                        detection.trace.size_history().last().copied(),
                        Some(detection.len()),
                        "graph seed {graph_seed}, walk seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn ensemble_detections_cover_more_of_the_block_on_sparse_ppms() {
        // A fig4a-shaped sparse 4-block PPM (p = 2(ln n)²/n, p/q = 2^0.6·ln n)
        // at half the quick-scale size: the single walk tends to stop on a
        // transient plateau; the ensemble consensus must score measurably
        // higher on average.
        let n = 512;
        let ln_n = (n as f64).ln();
        let p = 2.0 * ln_n * ln_n / n as f64;
        let q = p / (2f64.powf(0.6) * ln_n);
        let params = PpmParams::new(n, 4, p, q).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let score = |policy: crate::EnsemblePolicy, graph_seed: u64| {
            let (graph, truth) = generate_ppm(&params, graph_seed).unwrap();
            let cdrw = Cdrw::new(
                CdrwConfig::builder()
                    .seed(graph_seed)
                    .delta(delta)
                    .ensemble_policy(policy)
                    .build(),
            );
            f_score_for_detections(
                cdrw.detect_all(&graph)
                    .unwrap()
                    .detections()
                    .iter()
                    .map(|d| (d.members.as_slice(), d.seed)),
                &truth,
            )
            .f_score
        };
        let ensemble = crate::EnsemblePolicy::Ensemble {
            walks: 5,
            quorum: 2,
        };
        let mut f_single = 0.0;
        let mut f_ensemble = 0.0;
        for graph_seed in [41u64, 20190416] {
            f_single += score(crate::EnsemblePolicy::Single, graph_seed) / 2.0;
            f_ensemble += score(ensemble, graph_seed) / 2.0;
        }
        assert!(
            f_ensemble > f_single + 0.05,
            "ensemble F {f_ensemble} did not beat single F {f_single}"
        );
    }

    #[test]
    fn ensemble_trace_records_per_walk_contributions() {
        let params = PpmParams::new(256, 2, 0.25, 0.004).unwrap();
        let (graph, _) = generate_ppm(&params, 5).unwrap();
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(2)
                .delta(0.1)
                .ensemble(4, 2)
                .build(),
        );
        let detection = cdrw.detect_community(&graph, 0).unwrap();
        let ensemble = detection
            .trace
            .ensemble
            .as_ref()
            .expect("ensemble trace present");
        assert_eq!(ensemble.walks.len(), 4, "base walk plus three follow-ups");
        assert_eq!(ensemble.walks[0].seed, 0, "base walk first");
        assert_eq!(ensemble.consensus_size, detection.len());
        assert!(ensemble.quorum >= 1 && ensemble.quorum <= 2);
        let mut followup_seeds = Vec::new();
        for walk in &ensemble.walks {
            assert!(walk.contributed <= walk.set_size);
            assert!(walk.set_size > 0);
            followup_seeds.push(walk.seed);
        }
        followup_seeds.sort_unstable();
        followup_seeds.dedup();
        assert_eq!(followup_seeds.len(), 4, "follow-up seeds are distinct");
        // The base walk's set is always kept, so its votes all contribute.
        assert_eq!(ensemble.walks[0].contributed, ensemble.walks[0].set_size);
        // The single-walk path carries no ensemble trace.
        let single = Cdrw::new(CdrwConfig::builder().seed(2).delta(0.1).build());
        assert!(single
            .detect_community(&graph, 0)
            .unwrap()
            .trace
            .ensemble
            .is_none());
    }

    #[test]
    fn ensemble_detect_all_is_deterministic_and_total() {
        let params = PpmParams::new(300, 3, 0.2, 0.005).unwrap();
        let (graph, _) = generate_ppm(&params, 13).unwrap();
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(6)
                .delta(0.1)
                .ensemble(3, 2)
                .build(),
        );
        let a = cdrw.detect_all(&graph).unwrap();
        let b = cdrw.detect_all(&graph).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.partition().num_vertices(), 300);
        assert_eq!(a.partition().community_sizes().iter().sum::<usize>(), 300);
        for detection in a.detections() {
            assert!(detection.contains(detection.seed));
        }
    }

    /// A PPM graph with `isolates` extra zero-degree vertices appended.
    fn ppm_with_isolates(
        params: &PpmParams,
        graph_seed: u64,
        isolates: usize,
    ) -> (Graph, cdrw_graph::Partition) {
        let (graph, truth) = generate_ppm(params, graph_seed).unwrap();
        let n = graph.num_vertices();
        let padded = cdrw_graph::GraphBuilder::from_edges(n + isolates, graph.edges()).unwrap();
        (padded, truth)
    }

    #[test]
    fn isolated_vertices_land_in_singleton_communities() {
        // The satellite regression: zero-degree vertices must neither error
        // nor be silently swallowed into a walk's community — each becomes
        // its own singleton, under every policy combination.
        let params = PpmParams::new(256, 2, 0.25, 0.004).unwrap();
        let (graph, _) = ppm_with_isolates(&params, 11, 3);
        let n = graph.num_vertices();
        let isolates = [256usize, 257, 258];
        for (ensemble, assembly) in [
            (crate::EnsemblePolicy::Single, AssemblyPolicy::Raw),
            (
                crate::EnsemblePolicy::Ensemble {
                    walks: 3,
                    quorum: 2,
                },
                AssemblyPolicy::Raw,
            ),
            (
                crate::EnsemblePolicy::Single,
                AssemblyPolicy::Pooled {
                    reseed: 2,
                    quorum: 1,
                },
            ),
            (
                crate::EnsemblePolicy::Ensemble {
                    walks: 3,
                    quorum: 2,
                },
                AssemblyPolicy::reconcile_only(),
            ),
        ] {
            let cdrw = Cdrw::new(
                CdrwConfig::builder()
                    .seed(5)
                    .delta(0.1)
                    .ensemble_policy(ensemble)
                    .assembly_policy(assembly)
                    .build(),
            );
            let result = cdrw.detect_all(&graph).unwrap();
            let partition = result.partition();
            assert_eq!(partition.num_vertices(), n);
            assert_eq!(partition.community_sizes().iter().sum::<usize>(), n);
            for &v in &isolates {
                let community = partition.community_of(v).unwrap();
                assert_eq!(
                    partition.members(community),
                    &[v],
                    "isolate {v} must be a singleton under {ensemble:?}/{assembly:?}"
                );
            }
            // No walk detection claims an isolate it was not seeded on.
            for detection in result.detections() {
                for &v in &isolates {
                    assert!(
                        !detection.contains(v) || detection.seed == v,
                        "detection seeded at {} claims isolate {v}",
                        detection.seed
                    );
                }
            }
        }
    }

    #[test]
    fn isolated_seed_detects_itself() {
        let params = PpmParams::new(128, 2, 0.3, 0.004).unwrap();
        let (graph, _) = ppm_with_isolates(&params, 7, 1);
        let isolate = 128;
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(1).delta(0.1).build());
        let detection = cdrw.detect_community(&graph, isolate).unwrap();
        assert_eq!(detection.members, vec![isolate]);
        assert!(!detection.trace.stopped_by_growth_rule);
        assert!(detection.trace.steps.is_empty());
    }

    #[test]
    fn degenerate_interior_runs_fewer_walks_with_reclamped_quorum() {
        // A 4-vertex graph cannot supply the 5 follow-up seeds the policy
        // asks for: the ensemble must fall back to the walks it can seed and
        // clamp the vote quorum to the evidence actually recorded — the
        // runtime mirror of the builder validation boundary (quorum ≤ walks).
        let graph =
            cdrw_graph::GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(2)
                .delta(0.2)
                .ensemble(6, 6)
                .build(),
        );
        let detection = cdrw.detect_community(&graph, 0).unwrap();
        assert!(detection.contains(0));
        let trace = detection.trace.ensemble.as_ref().expect("ensemble trace");
        // At most the base walk plus three follow-ups fit in the interior.
        assert!(trace.walks.len() <= 4, "{} walks", trace.walks.len());
        assert!(trace.quorum <= trace.walks.len());
        assert!(trace.quorum >= 1);
        // The consensus never empties out by construction.
        assert_eq!(trace.consensus_size, detection.len());
        assert!(!detection.is_empty());
        // detect_all on the same tiny graph also clamps without panicking.
        let result = cdrw.detect_all(&graph).unwrap();
        assert_eq!(
            result.partition().community_sizes().iter().sum::<usize>(),
            4
        );
    }

    #[test]
    fn pooled_assembly_reports_and_refines_on_a_sparse_instance() {
        // Fragmented sparse instance (seed 41 fragments into mergeable
        // groups): the pooled assembly merges fragments, runs re-seed walks
        // and emits a total partition plus a populated report.
        let n = 512;
        let ln_n = (n as f64).ln();
        let p = 2.0 * ln_n * ln_n / n as f64;
        let q = p / (2f64.powf(0.6) * ln_n);
        let params = PpmParams::new(n, 4, p, q).unwrap();
        let (graph, truth) = generate_ppm(&params, 41).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let raw = Cdrw::new(CdrwConfig::builder().seed(41).delta(delta).build());
        let pooled = Cdrw::new(
            CdrwConfig::builder()
                .seed(41)
                .delta(delta)
                .assembly(3, 2)
                .build(),
        );
        let raw_result = raw.detect_all(&graph).unwrap();
        let pooled_result = pooled.detect_all(&graph).unwrap();
        assert!(raw_result.assembly().is_none());
        let report = pooled_result.assembly().expect("assembly report");
        assert!(report.groups >= 2);
        assert!(report.merged_detections >= 2);
        assert!(report.reseed_walks > 0);
        assert_eq!(pooled_result.partition().num_vertices(), n);
        // Walk decisions of phase 1 are identical — the assembly only
        // refines member sets afterwards.
        assert_eq!(raw_result.seeds(), pooled_result.seeds());
        // And the refinement helps on this instance.
        let f = |result: &DetectionResult| {
            f_score_for_detections(
                result
                    .detections()
                    .iter()
                    .map(|d| (d.members.as_slice(), d.seed)),
                &truth,
            )
            .f_score
        };
        let f_raw = f(&raw_result);
        let f_pooled = f(&pooled_result);
        assert!(
            f_pooled >= f_raw,
            "pooled F {f_pooled} below raw F {f_raw} on the fragmented instance"
        );
    }

    proptest::proptest! {
        /// The assembled partition is always total (covers every vertex
        /// exactly once), every refined detection still contains its seed,
        /// and `AssemblyPolicy::Raw` stays bit-identical to a configuration
        /// that never mentions the assembly — on arbitrary graphs, with and
        /// without re-seed walks.
        #[test]
        fn assembled_partition_is_total_and_raw_is_pinned(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 3..90),
            seed in 0u64..256,
            reseed in 0usize..4,
        ) {
            use proptest::{prop_assert, prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = cdrw_graph::GraphBuilder::from_edges(20, clean).unwrap();
            let base = CdrwConfig::builder().seed(seed).delta(0.2).build();
            let raw = CdrwConfig::builder()
                .seed(seed)
                .delta(0.2)
                .assembly_policy(AssemblyPolicy::Raw)
                .build();
            let base_result = Cdrw::new(base).detect_all(&graph).unwrap();
            let raw_result = Cdrw::new(raw).detect_all(&graph).unwrap();
            prop_assert_eq!(&base_result, &raw_result, "Raw must be the default behaviour");
            // The Raw partition is exactly the historical first-claim
            // resolution of its detections.
            let reconstructed = DetectionResult::new(
                graph.num_vertices(),
                base_result.detections().to_vec(),
                base_result.delta(),
            );
            prop_assert_eq!(base_result.partition(), reconstructed.partition());

            let assembly = if reseed == 0 {
                AssemblyPolicy::reconcile_only()
            } else {
                AssemblyPolicy::Pooled { reseed, quorum: reseed.div_ceil(2) }
            };
            let pooled = CdrwConfig::builder()
                .seed(seed)
                .delta(0.2)
                .assembly_policy(assembly)
                .build();
            let pooled_result = Cdrw::new(pooled).detect_all(&graph).unwrap();
            let partition = pooled_result.partition();
            prop_assert_eq!(partition.num_vertices(), graph.num_vertices());
            prop_assert_eq!(
                partition.community_sizes().iter().sum::<usize>(),
                graph.num_vertices()
            );
            prop_assert!(pooled_result.assembly().is_some());
            for detection in pooled_result.detections() {
                prop_assert!(detection.contains(detection.seed));
            }
            // Phase-1 walk decisions are untouched by the assembly.
            prop_assert_eq!(base_result.seeds(), pooled_result.seeds());
        }
    }

    /// The pre-batching follow-up walk, reimplemented solo for the reference
    /// side of the batching pin: step, sweep, growth-rule stop on a private
    /// workspace, with no [`WalkBatch`] involved.
    fn solo_reference_walk(
        cdrw: &Cdrw,
        engine: &WalkEngine<'_>,
        seed: VertexId,
        delta: f64,
        stop_floor: usize,
        cap: usize,
    ) -> WalkAnswer {
        let graph = engine.graph();
        let n = graph.num_vertices();
        let mixing_config = cdrw.config.local_mixing_config(n);
        let max_length = cdrw.config.max_walk_length(n);
        let mut workspace = engine.workspace();
        workspace.load_point_mass(seed).unwrap();
        let mut tracker = GrowthTracker::new(stop_floor, delta, Some(cap));
        for _ in 1..=max_length {
            engine.step(&mut workspace);
            let outcome = engine.sweep(&mut workspace, &mixing_config).unwrap();
            if tracker.observe_outcome(graph, seed, outcome, mixing_config.threshold) {
                break;
            }
        }
        tracker.conclude(graph, seed)
    }

    proptest::proptest! {
        /// The batching pin: every walk of a lockstep-batched bank — member
        /// set, margin and bounded fallback — is bit-identical to the same
        /// walk run solo, across arbitrary graphs, seed banks, stop floors
        /// and criteria. The ensemble and assembly layers consume these
        /// outputs identically in both schedules, so batching their walks
        /// cannot change a detection.
        #[test]
        fn batched_ensemble_matches_the_sequential_reference(
            edges in proptest::collection::vec((0usize..18, 0usize..18), 4..100),
            seeds in proptest::collection::vec(0usize..18, 1..6),
            floor in 1usize..6,
            criterion_index in 0usize..4,
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = cdrw_graph::GraphBuilder::from_edges(18, clean).unwrap();
            let criterion = crate::MixingCriterion::all()[criterion_index];
            let cdrw = Cdrw::new(
                CdrwConfig::builder()
                    .seed(1)
                    .delta(0.2)
                    .criterion(criterion)
                    .build(),
            );
            let pipeline = Pipeline::with_delta(cdrw.config(), &graph, 0.2).unwrap();
            let engine = pipeline.engine();
            let cap = graph.num_vertices() / 2;
            let batched = pipeline
                .followup_walks(&mut pipeline.local_lanes(), &seeds, floor)
                .unwrap();
            for (lane, &walk_seed) in seeds.iter().enumerate() {
                let solo = solo_reference_walk(&cdrw, engine, walk_seed, 0.2, floor, cap);
                prop_assert_eq!(
                    &batched[lane],
                    &solo,
                    "criterion {}, lane {} diverged from its solo walk",
                    criterion.name(),
                    lane
                );
            }
        }
    }

    proptest::proptest! {
        /// `EnsemblePolicy::Ensemble { walks: 1, .. }` takes the single-walk
        /// path, so its detections — members *and* traces — are bit-identical
        /// to `EnsemblePolicy::Single` under every mixing criterion.
        #[test]
        fn ensemble_with_one_walk_is_bit_identical_to_single(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 4..100),
            seed in 0u64..512,
            criterion_index in 0usize..4,
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = cdrw_graph::GraphBuilder::from_edges(20, clean).unwrap();
            let criterion = crate::MixingCriterion::all()[criterion_index];
            let single = Cdrw::new(
                CdrwConfig::builder()
                    .seed(seed)
                    .delta(0.2)
                    .criterion(criterion)
                    .build(),
            );
            let one_walk = Cdrw::new(
                CdrwConfig::builder()
                    .seed(seed)
                    .delta(0.2)
                    .criterion(criterion)
                    .ensemble(1, 1)
                    .build(),
            );
            let a = single.detect_all(&graph).unwrap();
            let b = one_walk.detect_all(&graph).unwrap();
            prop_assert_eq!(a.detections(), b.detections(), "criterion {}", criterion.name());
            prop_assert_eq!(a.partition(), b.partition());
        }
    }
}
