//! The distributed CDRW runner: sequential decisions, CONGEST costs.

use cdrw_core::assembly::{AssemblyOutcome, AssemblyReport};
use cdrw_core::{
    Cdrw, CdrwConfig, CdrwError, CommunityDetection, DetectionResult, LaneExecutor, LocalLanes,
    Pipeline,
};
use cdrw_graph::traversal::BfsTree;
use cdrw_graph::{Graph, VertexId};
use cdrw_walk::{WalkEngine, WalkWorkspace};
use serde::{Deserialize, Serialize};

use crate::primitives::{
    bfs_tree_cost, binary_search_cost, binary_search_iterations, membership_broadcast_cost,
    sparse_walk_step_cost, tree_wave_cost,
};
use crate::CostAccount;

/// Configuration of the CONGEST execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestConfig {
    /// The CDRW algorithm configuration (identical to the sequential one).
    pub algorithm: CdrwConfig,
}

impl CongestConfig {
    /// Per-message bandwidth in bits (the `O(log n)` of the model); only used
    /// to report total communication volume in bits.
    pub const BANDWIDTH_BITS: u64 = 32;

    /// Depth cap of the BFS tree built from each seed, as a multiple of
    /// `ln n` (Algorithm 1 builds a tree of depth `O(log n)`).
    const BFS_DEPTH_FACTOR: f64 = 3.0;

    /// The CONGEST execution of a given algorithm configuration.
    pub fn new(algorithm: CdrwConfig) -> Self {
        CongestConfig { algorithm }
    }

    fn bfs_depth(&self, n: usize) -> usize {
        ((Self::BFS_DEPTH_FACTOR * (n.max(2) as f64).ln()).ceil() as usize).max(2)
    }
}

impl Default for CongestConfig {
    fn default() -> Self {
        CongestConfig::new(CdrwConfig::default())
    }
}

/// Cost of detecting a single community in the CONGEST model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommunityCost {
    /// The seed node of this detection.
    pub seed: VertexId,
    /// Size of the detected community.
    pub community_size: usize,
    /// Number of walks this detection ran (1 for
    /// [`cdrw_core::EnsemblePolicy::Single`], the ensemble walk count
    /// otherwise — rounds and messages scale with it).
    pub walks: usize,
    /// Number of walk steps performed (summed over all walks).
    pub walk_steps: usize,
    /// Number of candidate-size checks across all steps of all walks.
    pub size_checks: usize,
    /// Rounds and messages charged to this detection.
    pub cost: CostAccount,
    /// The probability-flooding share of [`CommunityCost::cost`]: one round
    /// per walk step, `Σ_{u ∈ support, p(u) > 0} d(u)` messages per step
    /// ([`sparse_walk_step_cost`]). This is the part of the model a real
    /// sharded execution sends as actual messages — the k-machine engine's
    /// measured per-round counts are conformance-checked against exactly
    /// this account, per detection (coordination waves stay modelled-only).
    pub flood: CostAccount,
}

/// Cost of the global assembly phase
/// ([`cdrw_core::AssemblyPolicy::Pooled`]): the claim convergecasts, the
/// coordination waves of the reconciliation, the cross-detection re-seed
/// walks and the absorption rounds, all charged on one global BFS tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssemblyCost {
    /// What the assembly did (groups, re-seed walks, contested votes,
    /// absorption) — identical to the sequential driver's report.
    pub report: AssemblyReport,
    /// Walk steps performed by the cross-detection re-seed walks.
    pub walk_steps: usize,
    /// Candidate-size checks performed by the re-seed walks.
    pub size_checks: usize,
    /// Rounds and messages charged to the assembly phase.
    pub cost: CostAccount,
    /// The probability-flooding share of [`AssemblyCost::cost`] (the re-seed
    /// walks' steps), separated out for the same conformance diffing as
    /// [`CommunityCost::flood`].
    pub flood: CostAccount,
}

/// Full report of a CONGEST CDRW execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestReport {
    /// Per-community costs, in detection order.
    pub per_community: Vec<CommunityCost>,
    /// Cost of the global assembly phase, present only under
    /// [`cdrw_core::AssemblyPolicy::Pooled`].
    pub assembly: Option<AssemblyCost>,
    /// Total cost (sequential composition across communities plus the
    /// assembly phase, as in Theorem 6's `O(r log⁴ n)` statement).
    pub total: CostAccount,
    /// Total communication volume in bits
    /// (`messages ·` [`CongestConfig::BANDWIDTH_BITS`]).
    pub total_bits: u64,
    /// The detection result (identical to what the sequential algorithm
    /// produces for the same configuration and seed).
    pub result: DetectionResult,
}

impl CongestReport {
    /// Average rounds per detected community.
    pub fn rounds_per_community(&self) -> f64 {
        if self.per_community.is_empty() {
            0.0
        } else {
            self.total.rounds as f64 / self.per_community.len() as f64
        }
    }

    /// Average messages per detected community.
    pub fn messages_per_community(&self) -> f64 {
        if self.per_community.is_empty() {
            0.0
        } else {
            self.total.messages as f64 / self.per_community.len() as f64
        }
    }
}

/// The CONGEST charging executor: steps the lanes locally and charges what
/// the distributed execution would send, as the pipeline runs.
///
/// * Per live lane and step: one flooding round off the lane's pre-step
///   support ([`sparse_walk_step_cost`]), charged to `cost` and `flood`.
/// * Per candidate size a sweep checks: one binary-search aggregation
///   through the BFS tree, plus a broadcast/convergecast pair for criteria
///   calibrated against the retained mass `p(S)`.
/// * At each detection's boundaries: its BFS tree, the membership and vote
///   broadcasts and the ensemble's coordination waves; at the assembly's, the
///   global tree, the claim convergecasts, the group and reconciliation
///   waves, the re-seed votes and the absorption polls.
struct Charging<'e, 'g> {
    lanes: LocalLanes<'e, 'g>,
    config: &'e CongestConfig,
    /// The open detection's (or the assembly's) charges so far.
    phase: Phase,
    per_community: Vec<CommunityCost>,
    assembly: Option<AssemblyCost>,
}

/// What one detection or the assembly has been charged.
#[derive(Default)]
struct Phase {
    /// The tree the phase coordinates over (`None` for an isolated seed,
    /// which communicates nothing).
    tree: Option<BfsTree>,
    /// What one candidate-size check costs on `tree`.
    per_check: CostAccount,
    cost: CostAccount,
    flood: CostAccount,
    walk_steps: usize,
    size_checks: usize,
}

impl<'e, 'g> Charging<'e, 'g> {
    fn new(config: &'e CongestConfig, engine: &'e WalkEngine<'g>) -> Self {
        Charging {
            lanes: LocalLanes::new(engine),
            config,
            phase: Phase::default(),
            per_community: Vec::new(),
            assembly: None,
        }
    }

    fn graph(&self) -> &'g Graph {
        self.lanes.engine().graph()
    }

    /// Opens a phase coordinated over the BFS tree from `root` (none when
    /// `root` is `None`), charging the tree's construction.
    fn open(&mut self, root: Option<VertexId>) -> Result<(), CdrwError> {
        self.phase = Phase::default();
        let Some(root) = root else {
            return Ok(());
        };
        let graph = self.graph();
        let n = graph.num_vertices();
        let (tree, bfs_cost) = bfs_tree_cost(graph, root, self.config.bfs_depth(n))?;
        let phase = &mut self.phase;
        phase.cost.absorb(bfs_cost);
        // The renormalised and adaptive criteria need an extra convergecast
        // per size check (the retained mass p(S) the scores are calibrated
        // with); strict and lazy need only the score aggregation itself.
        phase.per_check = binary_search_cost(&tree, binary_search_iterations(n));
        let criterion = self.config.algorithm.criterion;
        for _ in 1..criterion.aggregations_per_size_check() {
            phase.per_check.absorb(tree_wave_cost(&tree));
            phase.per_check.absorb(tree_wave_cost(&tree));
        }
        phase.tree = Some(tree);
        Ok(())
    }

    /// Charges `waves` tree waves and `broadcasts` membership broadcasts on
    /// the open phase's tree.
    fn charge_waves(&mut self, waves: usize, broadcasts: usize) {
        let phase = &mut self.phase;
        if let Some(tree) = &phase.tree {
            for _ in 0..waves {
                phase.cost.absorb(tree_wave_cost(tree));
            }
            for _ in 0..broadcasts {
                phase.cost.absorb(membership_broadcast_cost(tree));
            }
        }
    }
}

impl LaneExecutor for Charging<'_, '_> {
    fn load_lanes(&mut self, seeds: &[VertexId]) -> Result<(), CdrwError> {
        self.lanes.load_lanes(seeds)
    }

    fn step(&mut self, live: &[u32]) -> Result<(), CdrwError> {
        // Lines 9–11: one round of probability flooding per live lane, its
        // message count read straight off the lane's support.
        for &lane in live {
            let step_cost = sparse_walk_step_cost(self.graph(), self.lanes.lane(lane as usize));
            self.phase.cost.absorb(step_cost);
            self.phase.flood.absorb(step_cost);
            self.phase.walk_steps += 1;
        }
        self.lanes.step(live)
    }

    fn lane(&mut self, i: usize) -> &mut WalkWorkspace {
        self.lanes.lane(i)
    }

    fn swept(&mut self, _lane: usize, sizes_checked: usize) {
        // Lines 12–17: each candidate size is one aggregation through the
        // tree.
        let phase = &mut self.phase;
        phase.size_checks += sizes_checked;
        for _ in 0..sizes_checked {
            phase.cost.absorb(phase.per_check);
        }
    }

    fn begin_detection(&mut self, seed: VertexId) -> Result<(), CdrwError> {
        // Line 5: a BFS tree of depth O(log n) from the seed. A zero-degree
        // seed is its own community and needs no communication at all.
        let walks = self.graph().degree(seed) > 0;
        self.open(walks.then_some(seed))
    }

    fn end_detection(&mut self, detection: &CommunityDetection) {
        // Line 17: announce membership of the final community (for an
        // ensemble, of the base walk's set — the first round of votes).
        self.charge_waves(0, 1);
        let walks = match &detection.trace.ensemble {
            Some(ensemble) => {
                // Selecting the follow-up seeds costs one affinity
                // convergecast plus one broadcast of the picks; each
                // follow-up announces its voted set, and the effective
                // quorum is announced down the tree. Each vertex then
                // decides membership from its local tally.
                self.charge_waves(3, ensemble.walks.len() - 1);
                ensemble.walks.len()
            }
            None => 1,
        };
        self.per_community.push(CommunityCost {
            seed: detection.seed,
            community_size: detection.members.len(),
            walks,
            walk_steps: self.phase.walk_steps,
            size_checks: self.phase.size_checks,
            cost: self.phase.cost,
            flood: self.phase.flood,
        });
    }

    fn begin_assembly(&mut self, detections: &[CommunityDetection]) -> Result<(), CdrwError> {
        // All assembly coordination runs on one BFS tree rooted at the first
        // detection's seed: one claim convergecast per detection, then the
        // group broadcast.
        self.open(Some(detections.first().map_or(0, |d| d.seed)))?;
        self.charge_waves(detections.len() + 1, 0);
        Ok(())
    }

    fn end_assembly(&mut self, outcome: &AssemblyOutcome) {
        let report = &outcome.report;
        // One vote broadcast per re-seed walk; three waves per re-seeded
        // group (seed announce, quorum announce, refined membership); two
        // for the reconciliation (margin announce, final assignment).
        self.charge_waves(3 * report.reseeded_groups + 2, report.reseed_walks);
        // Absorption: one round per wave, each unassigned vertex polls its
        // neighbourhood.
        for &volume in &outcome.absorption_volumes {
            self.phase.cost.charge(1, volume);
        }
        self.assembly = Some(AssemblyCost {
            report: report.clone(),
            walk_steps: self.phase.walk_steps,
            size_checks: self.phase.size_checks,
            cost: self.phase.cost,
            flood: self.phase.flood,
        });
    }
}

/// Distributed CDRW in the CONGEST model.
///
/// Runs the one [`Pipeline`] of `cdrw_core` (so the detected communities,
/// traces included, are identical to [`cdrw_core::Cdrw`]'s for the same
/// configuration) on an executor that charges the CONGEST cost of every
/// step, sweep and coordination wave using the primitives of
/// [`crate::primitives`].
#[derive(Debug, Clone)]
pub struct CongestCdrw {
    config: CongestConfig,
}

impl CongestCdrw {
    /// Creates a runner with the given configuration.
    pub fn new(config: CongestConfig) -> Self {
        CongestCdrw { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CongestConfig {
        &self.config
    }

    /// Detects the community of a single seed, returning the detection and
    /// its CONGEST cost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cdrw_core::Cdrw::detect_community`].
    pub fn detect_community(
        &self,
        graph: &Graph,
        seed: VertexId,
    ) -> Result<(CommunityDetection, CommunityCost), CdrwError> {
        let pipeline = Pipeline::new(&self.config.algorithm, graph)?;
        graph.check_vertex(seed)?;
        let mut charging = Charging::new(&self.config, pipeline.engine());
        let detection = pipeline.detect_community(&mut charging, &mut pipeline.evidence(), seed)?;
        let cost = charging.per_community.pop().expect("one detection charged");
        Ok((detection, cost))
    }

    /// Detects all communities (the pool loop) and reports aggregate CONGEST
    /// costs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cdrw_core::Cdrw::detect_all`].
    pub fn detect_all(&self, graph: &Graph) -> Result<CongestReport, CdrwError> {
        let pipeline = Pipeline::new(&self.config.algorithm, graph)?;
        let mut charging = Charging::new(&self.config, pipeline.engine());
        let (result, _) = pipeline.detect_all(&mut charging)?;
        let Charging {
            per_community,
            assembly,
            ..
        } = charging;
        let mut total: CostAccount = per_community.iter().map(|c| c.cost).sum();
        if let Some(assembly) = &assembly {
            total.absorb(assembly.cost);
        }
        Ok(CongestReport {
            per_community,
            assembly,
            total,
            total_bits: total.messages * CongestConfig::BANDWIDTH_BITS,
            result,
        })
    }

    /// Convenience: runs the purely sequential algorithm with the same
    /// configuration (used by the equivalence tests).
    pub fn sequential(&self) -> Cdrw {
        Cdrw::new(self.config.algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_gen::{generate_ppm, special, PpmParams};
    use cdrw_metrics::f_score;

    fn ppm_setup(n: usize, r: usize, seed: u64) -> (Graph, cdrw_graph::Partition, f64) {
        let p = 12.0 * (n as f64).ln() / n as f64;
        let q = p / (20.0 * r as f64);
        let params = PpmParams::new(n, r, p.min(1.0), q.min(1.0)).unwrap();
        let (graph, truth) = generate_ppm(&params, seed).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        (graph, truth, delta)
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let runner = CongestCdrw::new(CongestConfig::default());
        assert!(runner.detect_all(&Graph::empty(0)).is_err());
        assert!(runner.detect_all(&Graph::empty(3)).is_err());
        let (g, _) = special::complete(5).unwrap();
        assert!(runner.detect_community(&g, 99).is_err());
    }

    #[test]
    fn detected_communities_match_the_sequential_algorithm() {
        let (graph, _, delta) = ppm_setup(256, 2, 7);
        let algorithm = CdrwConfig::builder().seed(5).delta(delta).build();
        let runner = CongestCdrw::new(CongestConfig::new(algorithm));
        let congest = runner.detect_all(&graph).unwrap();
        let sequential = runner.sequential().detect_all(&graph).unwrap();
        assert_eq!(
            congest.result.partition(),
            sequential.partition(),
            "CONGEST and sequential detections must be identical"
        );
        assert_eq!(congest.result.seeds(), sequential.seeds());
    }

    #[test]
    fn report_costs_are_positive_and_consistent() {
        let (graph, truth, delta) = ppm_setup(256, 2, 9);
        let algorithm = CdrwConfig::builder().seed(2).delta(delta).build();
        let runner = CongestCdrw::new(CongestConfig::new(algorithm));
        let report = runner.detect_all(&graph).unwrap();
        assert!(report.total.rounds > 0);
        assert!(report.total.messages > 0);
        assert_eq!(
            report.total,
            report.per_community.iter().map(|c| c.cost).sum()
        );
        assert_eq!(
            report.total_bits,
            report.total.messages * CongestConfig::BANDWIDTH_BITS
        );
        assert!(report.rounds_per_community() > 0.0);
        assert!(report.messages_per_community() > 0.0);
        // The flood share is the executable part of the model: one round per
        // walk step, never more than the full charge.
        for c in &report.per_community {
            assert_eq!(c.flood.rounds, c.walk_steps as u64);
            assert!(c.flood.messages > 0);
            assert!(c.flood.rounds <= c.cost.rounds);
            assert!(c.flood.messages <= c.cost.messages);
        }
        // The detection itself is still accurate.
        let score = f_score(report.result.partition(), &truth);
        assert!(score.f_score > 0.8, "F = {}", score.f_score);
    }

    #[test]
    fn rounds_grow_polylogarithmically_with_n() {
        // Theorem 5: rounds per community are O(log⁴ n) — in particular the
        // per-community round count must grow far slower than n.
        let mut per_community_rounds = Vec::new();
        for &n in &[128usize, 512] {
            let (graph, _, delta) = ppm_setup(n, 2, 3);
            let algorithm = CdrwConfig::builder().seed(1).delta(delta).build();
            let runner = CongestCdrw::new(CongestConfig::new(algorithm));
            let report = runner.detect_all(&graph).unwrap();
            per_community_rounds.push(report.rounds_per_community());
        }
        let growth = per_community_rounds[1] / per_community_rounds[0];
        // n grew by 4×; polylog growth should stay well under that.
        assert!(
            growth < 3.0,
            "rounds grew by {growth}× for a 4× larger graph: {per_community_rounds:?}"
        );
    }

    #[test]
    fn messages_scale_with_edge_count() {
        // Theorem 5: messages ≈ Õ(n²/r (p + q(r−1))) = Õ(m) per community.
        let (small_graph, _, delta_small) = ppm_setup(128, 2, 5);
        let (large_graph, _, delta_large) = ppm_setup(512, 2, 5);
        let small = CongestCdrw::new(CongestConfig::new(
            CdrwConfig::builder().seed(1).delta(delta_small).build(),
        ))
        .detect_all(&small_graph)
        .unwrap();
        let large = CongestCdrw::new(CongestConfig::new(
            CdrwConfig::builder().seed(1).delta(delta_large).build(),
        ))
        .detect_all(&large_graph)
        .unwrap();
        let edge_ratio = large_graph.num_edges() as f64 / small_graph.num_edges() as f64;
        let message_ratio = large.messages_per_community() / small.messages_per_community();
        // Messages grow at least linearly in m and at most by polylog extra.
        assert!(
            message_ratio > 0.5 * edge_ratio && message_ratio < 10.0 * edge_ratio,
            "message ratio {message_ratio}, edge ratio {edge_ratio}"
        );
    }

    #[test]
    fn mass_calibrated_criteria_charge_the_extra_convergecast() {
        use cdrw_core::MixingCriterion;
        // On a complete graph the strict and renormalised criteria make
        // identical decisions, so the cost difference is exactly the extra
        // broadcast + convergecast pair per size check. The BFS tree from any
        // seed has depth 1, so each tree wave is 1 round and n−1 messages.
        let n = 32usize;
        let (g, _) = special::complete(n).unwrap();
        let run = |criterion: MixingCriterion| {
            let algorithm = CdrwConfig::builder()
                .seed(3)
                .delta(0.2)
                .criterion(criterion)
                .build();
            CongestCdrw::new(CongestConfig::new(algorithm))
                .detect_community(&g, 0)
                .unwrap()
        };
        let (strict_detection, strict) = run(MixingCriterion::Strict);
        let (renorm_detection, renorm) = run(MixingCriterion::Renormalized);
        assert_eq!(strict_detection.members, renorm_detection.members);
        assert_eq!(strict.size_checks, renorm.size_checks);
        let checks = strict.size_checks as u64;
        assert_eq!(renorm.cost.rounds - strict.cost.rounds, 2 * checks);
        assert_eq!(
            renorm.cost.messages - strict.cost.messages,
            2 * checks * (n as u64 - 1)
        );
        // The lazy criterion stretches the walk budget instead: same cost per
        // step, roughly twice the steps.
        let (_, lazy) = run(MixingCriterion::lazy());
        assert_eq!(lazy.walk_steps, 2 * strict.walk_steps);
    }

    #[test]
    fn ensemble_detections_match_the_sequential_ensemble_exactly() {
        use cdrw_core::EnsemblePolicy;
        // The CONGEST ensemble shares the walk code, the follow-up seed
        // selection and the consensus rule with the sequential ensemble, so
        // every detection must be identical member for member.
        for (n, r, graph_seed) in [(256usize, 2usize, 13u64), (256, 4, 7)] {
            let p = (8.0 * (n as f64).ln() / n as f64).min(1.0);
            let q = p / (4.0 * r as f64);
            let params = PpmParams::new(n, r, p, q).unwrap();
            let (graph, _) = generate_ppm(&params, graph_seed).unwrap();
            let delta = params.expected_block_conductance().clamp(0.01, 1.0);
            let algorithm = CdrwConfig::builder()
                .seed(5)
                .delta(delta)
                .ensemble_policy(EnsemblePolicy::Ensemble {
                    walks: 4,
                    quorum: 2,
                })
                .build();
            let runner = CongestCdrw::new(CongestConfig::new(algorithm));
            let congest = runner.detect_all(&graph).unwrap();
            let sequential = runner.sequential().detect_all(&graph).unwrap();
            assert_eq!(congest.result.seeds(), sequential.seeds());
            for (c, s) in congest
                .result
                .detections()
                .iter()
                .zip(sequential.detections())
            {
                assert_eq!(c.seed, s.seed);
                assert_eq!(c.members, s.members, "seed {} diverged", c.seed);
            }
            assert_eq!(congest.result.partition(), sequential.partition());
            for cost in &congest.per_community {
                assert!(cost.walks >= 1 && cost.walks <= 4);
            }
        }
    }

    #[test]
    fn ensemble_cost_delta_is_exact_and_walk_count_scaled() {
        use cdrw_core::EnsemblePolicy;
        // On a complete graph every follow-up walk is identical by symmetry
        // (same decisions, same support, run to the same cap), so the cost of
        // adding one more walk is an exact constant: one walk plus its
        // membership (vote) broadcast. The fixed ensemble overhead on top —
        // seed-selection convergecast + follow-up-seed broadcast + quorum
        // announce — is exactly three tree waves, each 1 round and n − 1
        // messages on the depth-1 BFS tree of a complete graph.
        let n = 24usize;
        let (g, _) = special::complete(n).unwrap();
        let run = |policy: EnsemblePolicy| {
            let algorithm = CdrwConfig::builder()
                .seed(3)
                .delta(0.2)
                .ensemble_policy(policy)
                .build();
            CongestCdrw::new(CongestConfig::new(algorithm))
                .detect_community(&g, 0)
                .unwrap()
        };
        let (single_detection, single) = run(EnsemblePolicy::Single);
        let ensembles: Vec<_> = (2usize..=4)
            .map(|walks| run(EnsemblePolicy::Ensemble { walks, quorum: 1 }))
            .collect();
        // Decisions: on a complete graph the consensus stays the whole graph
        // (follow-ups mix globally and abstain; the base set is always kept).
        for (detection, _) in &ensembles {
            assert_eq!(detection.members, single_detection.members);
        }
        assert_eq!(ensembles[0].1.walks, 2);
        assert_eq!(ensembles[2].1.walks, 4);
        // Per-walk delta: rounds and messages added by the 3rd and 4th walks
        // are identical (one follow-up walk + one membership broadcast).
        let d32 = (
            ensembles[1].1.cost.rounds - ensembles[0].1.cost.rounds,
            ensembles[1].1.cost.messages - ensembles[0].1.cost.messages,
        );
        let d43 = (
            ensembles[2].1.cost.rounds - ensembles[1].1.cost.rounds,
            ensembles[2].1.cost.messages - ensembles[1].1.cost.messages,
        );
        assert_eq!(d32, d43, "ensemble cost must scale linearly in walks");
        assert!(d32.0 > 0 && d32.1 > 0);
        // Fixed overhead: Δ(2 walks vs single) minus one per-walk delta is
        // exactly the three coordination tree waves.
        let d21 = (
            ensembles[0].1.cost.rounds - single.cost.rounds,
            ensembles[0].1.cost.messages - single.cost.messages,
        );
        assert_eq!(d21.0 - d32.0, 3);
        assert_eq!(d21.1 - d32.1, 3 * (n as u64 - 1));
        // Walk-step accounting also scales: every extra walk contributes the
        // same number of steps.
        let s32 = ensembles[1].1.walk_steps - ensembles[0].1.walk_steps;
        let s43 = ensembles[2].1.walk_steps - ensembles[1].1.walk_steps;
        assert_eq!(s32, s43);
    }

    #[test]
    fn assembly_reconciliation_cost_delta_is_exact() {
        use cdrw_core::AssemblyPolicy;
        // On a complete graph the pool loop emits one whole-graph detection,
        // so the pooled assembly runs no re-seed walks, contests nothing and
        // absorbs nothing: the cost delta against `Raw` is exactly the fixed
        // reconciliation overhead — the global BFS tree (depth 1 on a
        // complete graph: 1 round, n(n−1) messages) plus four tree waves
        // (one claim convergecast for the single detection, the group
        // broadcast, the margin announce and the final assignment
        // broadcast), each 1 round and n − 1 messages.
        let n = 24usize;
        let (g, _) = special::complete(n).unwrap();
        let run = |policy: AssemblyPolicy| {
            let algorithm = CdrwConfig::builder()
                .seed(3)
                .delta(0.2)
                .assembly_policy(policy)
                .build();
            CongestCdrw::new(CongestConfig::new(algorithm))
                .detect_all(&g)
                .unwrap()
        };
        let raw = run(AssemblyPolicy::Raw);
        let pooled = run(AssemblyPolicy::reconcile_only());
        assert!(raw.assembly.is_none());
        let assembly = pooled.assembly.as_ref().expect("assembly cost present");
        assert_eq!(assembly.report.groups, 1);
        assert_eq!(assembly.report.reseed_walks, 0);
        assert_eq!(assembly.report.contested, 0);
        assert_eq!(assembly.report.absorbed, 0);
        assert_eq!(assembly.walk_steps, 0);
        let nn = n as u64;
        assert_eq!(assembly.cost.rounds, 1 + 4);
        assert_eq!(assembly.cost.messages, nn * (nn - 1) + 4 * (nn - 1));
        // The delta against Raw is exactly the assembly phase, and the total
        // decomposes into the per-community costs plus the assembly.
        assert_eq!(pooled.total.rounds - raw.total.rounds, assembly.cost.rounds);
        assert_eq!(
            pooled.total.messages - raw.total.messages,
            assembly.cost.messages
        );
        let per_community: CostAccount = pooled.per_community.iter().map(|c| c.cost).sum();
        assert_eq!(
            pooled.total,
            per_community + assembly.cost,
            "total = per-community + assembly"
        );
        // Decisions are untouched by the reconcile-only assembly here.
        assert_eq!(pooled.result.partition(), raw.result.partition());
    }

    #[test]
    fn assembly_cost_scales_with_the_claim_convergecasts() {
        use cdrw_core::AssemblyPolicy;
        // Two detections (ring of two cliques) charge two claim
        // convergecasts; the remaining fixed overhead is the BFS tree plus
        // three waves. Reconstructing the expected delta from the cost
        // primitives pins the charging formula exactly on a non-trivial
        // tree.
        let (g, _) = special::ring_of_cliques(2, 12).unwrap();
        let run = |policy: AssemblyPolicy| {
            let algorithm = CdrwConfig::builder()
                .seed(7)
                .delta(0.05)
                .assembly_policy(policy)
                .build();
            CongestCdrw::new(CongestConfig::new(algorithm))
                .detect_all(&g)
                .unwrap()
        };
        let raw = run(AssemblyPolicy::Raw);
        let pooled = run(AssemblyPolicy::reconcile_only());
        let detections = raw.result.detections().len();
        assert_eq!(detections, 2, "one detection per clique");
        let assembly = pooled.assembly.as_ref().unwrap();
        assert_eq!(assembly.report.reseed_walks, 0);
        assert_eq!(assembly.report.absorption_rounds, 0);
        let root = raw.result.detections()[0].seed;
        let config = CongestConfig::new(CdrwConfig::default());
        let (tree, bfs) = bfs_tree_cost(&g, root, config.bfs_depth(g.num_vertices())).unwrap();
        let wave = tree_wave_cost(&tree);
        let waves = (detections + 3) as u64;
        assert_eq!(assembly.cost.rounds, bfs.rounds + waves * wave.rounds);
        assert_eq!(assembly.cost.messages, bfs.messages + waves * wave.messages);
        assert_eq!(pooled.total.rounds - raw.total.rounds, assembly.cost.rounds);
    }

    #[test]
    fn pooled_assembly_decisions_match_sequential_on_a_sparse_ppm() {
        use cdrw_core::AssemblyPolicy;
        // A fig4a-shaped sparse instance where fragments actually merge and
        // re-seed walks run: the CONGEST driver must produce the identical
        // assembled result (refined detections, partition and report).
        let n = 512;
        let ln_n = (n as f64).ln();
        let p = 2.0 * ln_n * ln_n / n as f64;
        let q = p / (2f64.powf(0.6) * ln_n);
        let params = PpmParams::new(n, 4, p, q).unwrap();
        let (graph, _) = generate_ppm(&params, 41).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let algorithm = CdrwConfig::builder()
            .seed(41)
            .delta(delta)
            .assembly_policy(AssemblyPolicy::Pooled {
                reseed: 3,
                quorum: 2,
            })
            .build();
        let runner = CongestCdrw::new(CongestConfig::new(algorithm));
        let congest = runner.detect_all(&graph).unwrap();
        let sequential = runner.sequential().detect_all(&graph).unwrap();
        assert_eq!(congest.result.seeds(), sequential.seeds());
        for (c, s) in congest
            .result
            .detections()
            .iter()
            .zip(sequential.detections())
        {
            assert_eq!(c.members, s.members, "seed {} diverged", c.seed);
        }
        assert_eq!(congest.result.partition(), sequential.partition());
        let assembly = congest.assembly.as_ref().unwrap();
        assert_eq!(Some(&assembly.report), sequential.assembly());
        // The instance is fragmented enough for the cross-detection layer to
        // actually do something: fragments merged and re-seed walks ran.
        assert!(assembly.report.merged_detections >= 2);
        assert!(assembly.report.reseed_walks > 0);
        assert!(assembly.walk_steps > 0);
        let per_community: CostAccount = congest.per_community.iter().map(|c| c.cost).sum();
        assert_eq!(congest.total, per_community + assembly.cost);
    }

    proptest::proptest! {
        /// On arbitrary graphs and ensemble policies, the CONGEST runner's
        /// ensemble decisions (every detected member set and the induced
        /// partition) match the sequential ensemble exactly.
        #[test]
        fn congest_ensemble_decisions_match_sequential_on_arbitrary_graphs(
            edges in proptest::collection::vec((0usize..18, 0usize..18), 4..90),
            seed in 0u64..256,
            walks in 2usize..5,
            quorum in 1usize..3,
        ) {
            use cdrw_core::EnsemblePolicy;
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = cdrw_graph::GraphBuilder::from_edges(18, clean).unwrap();
            let algorithm = CdrwConfig::builder()
                .seed(seed)
                .delta(0.2)
                .ensemble_policy(EnsemblePolicy::Ensemble {
                    walks,
                    quorum: quorum.min(walks),
                })
                .build();
            let runner = CongestCdrw::new(CongestConfig::new(algorithm));
            let congest = runner.detect_all(&graph).unwrap();
            let sequential = runner.sequential().detect_all(&graph).unwrap();
            prop_assert_eq!(congest.result.seeds(), sequential.seeds());
            for (c, s) in congest
                .result
                .detections()
                .iter()
                .zip(sequential.detections())
            {
                prop_assert_eq!(&c.members, &s.members, "seed {} diverged", c.seed);
            }
            prop_assert_eq!(congest.result.partition(), sequential.partition());
        }

        /// Under the pooled assembly — isolates, merges, re-seed walks and
        /// all — the CONGEST runner's assembled result equals the sequential
        /// driver's bit for bit on arbitrary graphs.
        #[test]
        fn congest_pooled_assembly_matches_sequential_on_arbitrary_graphs(
            edges in proptest::collection::vec((0usize..16, 0usize..16), 3..70),
            seed in 0u64..256,
            reseed in 0usize..4,
        ) {
            use cdrw_core::AssemblyPolicy;
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = cdrw_graph::GraphBuilder::from_edges(16, clean).unwrap();
            let assembly = if reseed == 0 {
                AssemblyPolicy::reconcile_only()
            } else {
                AssemblyPolicy::Pooled { reseed, quorum: reseed.div_ceil(2) }
            };
            let algorithm = CdrwConfig::builder()
                .seed(seed)
                .delta(0.2)
                .assembly_policy(assembly)
                .build();
            let runner = CongestCdrw::new(CongestConfig::new(algorithm));
            let congest = runner.detect_all(&graph).unwrap();
            let sequential = runner.sequential().detect_all(&graph).unwrap();
            prop_assert_eq!(congest.result.seeds(), sequential.seeds());
            for (c, s) in congest
                .result
                .detections()
                .iter()
                .zip(sequential.detections())
            {
                prop_assert_eq!(&c.members, &s.members, "seed {} diverged", c.seed);
            }
            prop_assert_eq!(congest.result.partition(), sequential.partition());
            let assembly_cost = congest.assembly.as_ref().unwrap();
            prop_assert_eq!(Some(&assembly_cost.report), sequential.assembly());
            let per_community: CostAccount = congest.per_community.iter().map(|c| c.cost).sum();
            prop_assert_eq!(congest.total, per_community + assembly_cost.cost);
        }
    }

    #[test]
    fn single_community_detection_reports_costs() {
        let (graph, _, delta) = ppm_setup(128, 2, 11);
        let algorithm = CdrwConfig::builder().seed(3).delta(delta).build();
        let runner = CongestCdrw::new(CongestConfig::new(algorithm));
        let (detection, cost) = runner.detect_community(&graph, 0).unwrap();
        assert!(detection.contains(0));
        assert_eq!(cost.seed, 0);
        assert_eq!(cost.community_size, detection.members.len());
        assert!(cost.walk_steps > 0);
        assert!(cost.size_checks > 0);
        assert!(cost.cost.rounds > 0);
    }
}
