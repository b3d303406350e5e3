//! Algorithm 1, written once: the seed-pool loop, the per-seed detection,
//! the ensemble follow-up walks and the pooled assembly.
//!
//! [`Pipeline`] holds every decision of a CDRW run; a [`LaneExecutor`]
//! holds the walks. The executor loads point masses into lanes, steps the
//! live lanes and lends lane `i`'s [`WalkWorkspace`] to the sweep, and it
//! is told when a detection or the assembly starts and ends. Every driver
//! runs this one pipeline:
//!
//! * [`crate::Cdrw::detect_all`], [`crate::Cdrw::detect_parallel`] and the
//!   incremental [`crate::CdrwService`] over [`LocalLanes`] (a single walk
//!   is a one-lane [`WalkBatch`]);
//! * the CONGEST runner over a wrapper of [`LocalLanes`] that charges each
//!   step, sweep and coordination wave as it observes them;
//! * the k-machine engine over its shard coordinator, whose lanes are the
//!   distributions gathered from the shards.
//!
//! The drivers differ only in how a lane is stepped and in what they record
//! at the hooks, so their [`DetectionResult`]s are equal bit for bit.

use cdrw_graph::{Graph, VertexId};
use cdrw_walk::evidence::{community_scale_vote, select_interior_seeds, PooledClaim};
use cdrw_walk::{LocalMixingConfig, WalkBatch, WalkEngine, WalkEvidence, WalkWorkspace};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::assembly::{self, AssemblyOutcome};
use crate::growth::{GrowthTracker, WalkAnswer};
use crate::result::{
    CommunityDetection, DetectionResult, DetectionTrace, EnsembleTrace, EnsembleWalkTrace,
    StepTrace,
};
use crate::{AssemblyPolicy, CdrwConfig, CdrwError};

/// The shuffled seed pool of Algorithm 1's outer loop: all `n` vertices in
/// the order induced by the configuration seed ("pick a random node from
/// pool").
pub fn shuffled_seed_pool(n: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool: Vec<VertexId> = (0..n).collect();
    pool.shuffle(&mut rng);
    pool
}

/// Runs the walks of a [`Pipeline`]: a bank of lanes, each holding one
/// walk's distribution.
///
/// The hooks default to no-ops; executors that account for the run (cost
/// models, conformance ledgers) observe it through them.
pub trait LaneExecutor {
    /// Loads `seeds[i]` as a fresh point-mass walk into lane `i`.
    ///
    /// # Errors
    ///
    /// A seed out of range, or an executor failure.
    fn load_lanes(&mut self, seeds: &[VertexId]) -> Result<(), CdrwError>;

    /// Advances the listed lanes (ascending, non-empty) by one walk step;
    /// every other lane keeps its distribution.
    ///
    /// # Errors
    ///
    /// An executor failure (for example a shard lost beyond recovery).
    fn step(&mut self, live: &[u32]) -> Result<(), CdrwError>;

    /// Lends lane `i`'s current distribution to the sweep (and, for the
    /// base walk of an ensemble, to the follow-up seed selection).
    fn lane(&mut self, i: usize) -> &mut WalkWorkspace;

    /// Lane `lane`'s sweep has just checked `sizes_checked` candidate sizes.
    fn swept(&mut self, _lane: usize, _sizes_checked: usize) {}

    /// A detection seeded at `seed` is about to run its walks.
    ///
    /// # Errors
    ///
    /// An executor failure; the run aborts with it.
    fn begin_detection(&mut self, _seed: VertexId) -> Result<(), CdrwError> {
        Ok(())
    }

    /// The detection opened by the last [`LaneExecutor::begin_detection`]
    /// has finished.
    fn end_detection(&mut self, _detection: &CommunityDetection) {}

    /// The pooled assembly of `detections` is about to run its re-seed
    /// walks.
    ///
    /// # Errors
    ///
    /// An executor failure; the run aborts with it.
    fn begin_assembly(&mut self, _detections: &[CommunityDetection]) -> Result<(), CdrwError> {
        Ok(())
    }

    /// The pooled assembly has finished.
    fn end_assembly(&mut self, _outcome: &AssemblyOutcome) {}
}

/// The in-process executor: every lane lives in one [`WalkBatch`], stepped
/// with [`WalkEngine::step_batch`] (each lane bit-identical to a solo
/// [`WalkEngine::step`]).
#[derive(Debug)]
pub struct LocalLanes<'e, 'g> {
    engine: &'e WalkEngine<'g>,
    batch: WalkBatch,
}

impl<'e, 'g> LocalLanes<'e, 'g> {
    /// An empty lane bank over `engine`'s graph; lanes are grown on demand
    /// and reused.
    pub fn new(engine: &'e WalkEngine<'g>) -> Self {
        LocalLanes {
            engine,
            batch: WalkBatch::for_graph(engine.graph()),
        }
    }

    /// The engine the lanes are stepped with.
    pub fn engine(&self) -> &'e WalkEngine<'g> {
        self.engine
    }
}

impl LaneExecutor for LocalLanes<'_, '_> {
    fn load_lanes(&mut self, seeds: &[VertexId]) -> Result<(), CdrwError> {
        Ok(self.batch.load_point_masses(seeds)?)
    }

    fn step(&mut self, live: &[u32]) -> Result<(), CdrwError> {
        let mut live = live.iter().peekable();
        for lane in 0..self.batch.lanes() {
            let stepping = live.next_if_eq(&&(lane as u32)).is_some();
            self.batch.set_active(lane, stepping);
        }
        self.engine.step_batch(&mut self.batch);
        Ok(())
    }

    fn lane(&mut self, i: usize) -> &mut WalkWorkspace {
        self.batch.lane_mut(i)
    }
}

/// Algorithm 1 over one graph, with the input checks done and `δ` resolved.
#[derive(Debug)]
pub struct Pipeline<'g> {
    config: CdrwConfig,
    engine: WalkEngine<'g>,
    delta: f64,
    mixing: LocalMixingConfig,
    max_length: usize,
}

impl<'g> Pipeline<'g> {
    /// Checks the graph and the configuration and resolves `δ`.
    ///
    /// # Errors
    ///
    /// * [`CdrwError::EmptyGraph`] / [`CdrwError::NoEdges`] for degenerate
    ///   graphs.
    /// * [`CdrwError::InvalidConfig`] if the configuration fails validation.
    /// * A failure of the `δ` estimator.
    pub fn new(config: &CdrwConfig, graph: &'g Graph) -> Result<Self, CdrwError> {
        Self::check(config, graph)?;
        Ok(Self::build(config, graph, config.resolve_delta(graph)?))
    }

    /// [`Pipeline::new`] with `δ` given instead of resolved (the
    /// incremental service reuses the last full refresh's).
    ///
    /// # Errors
    ///
    /// Same input checks as [`Pipeline::new`].
    pub fn with_delta(
        config: &CdrwConfig,
        graph: &'g Graph,
        delta: f64,
    ) -> Result<Self, CdrwError> {
        Self::check(config, graph)?;
        Ok(Self::build(config, graph, delta))
    }

    fn check(config: &CdrwConfig, graph: &Graph) -> Result<(), CdrwError> {
        if graph.num_vertices() == 0 {
            return Err(CdrwError::EmptyGraph);
        }
        if graph.num_edges() == 0 {
            return Err(CdrwError::NoEdges);
        }
        config.validate()
    }

    fn build(config: &CdrwConfig, graph: &'g Graph, delta: f64) -> Self {
        let n = graph.num_vertices();
        Pipeline {
            config: *config,
            engine: WalkEngine::lazy(graph, config.criterion.laziness()),
            delta,
            mixing: config.local_mixing_config(n),
            max_length: config.max_walk_length(n),
        }
    }

    /// The walk engine (lazy iff the criterion asks for a lazy walk).
    pub fn engine(&self) -> &WalkEngine<'g> {
        &self.engine
    }

    /// The growth threshold `δ` in effect.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// A fresh [`LocalLanes`] executor over this pipeline's engine.
    pub fn local_lanes(&self) -> LocalLanes<'_, 'g> {
        LocalLanes::new(&self.engine)
    }

    /// An evidence accumulator for this configuration: sized for the graph
    /// when the ensemble or the pooled assembly records votes, empty
    /// otherwise.
    pub fn evidence(&self) -> WalkEvidence {
        WalkEvidence::for_graph_if(
            self.config.ensemble.is_ensemble() || self.config.assembly.is_pooled(),
            self.engine.graph(),
        )
    }

    /// The whole run: the seed-pool loop from an empty coverage, then the
    /// configured assembly. Returns the result and the drained evidence
    /// pool (empty under [`AssemblyPolicy::Raw`]).
    ///
    /// # Errors
    ///
    /// Propagates walk and executor failures.
    pub fn detect_all<E: LaneExecutor>(
        &self,
        exec: &mut E,
    ) -> Result<(DetectionResult, Vec<PooledClaim>), CdrwError> {
        let mut evidence = self.evidence();
        let mut covered = vec![false; self.engine.graph().num_vertices()];
        let mut detections = Vec::new();
        self.seed_pool(exec, &mut evidence, &mut covered, &mut detections)?;
        self.assemble(exec, &mut evidence, detections, &[], 0.0)
    }

    /// The outer loop of Algorithm 1: walks the shuffled seed pool, skips
    /// every `covered` vertex, detects the community of each other seed and
    /// marks its members covered. New detections are appended to
    /// `detections`; under the pooled assembly each one's claims are pooled
    /// under its index there.
    ///
    /// # Errors
    ///
    /// Propagates walk and executor failures.
    pub fn seed_pool<E: LaneExecutor>(
        &self,
        exec: &mut E,
        evidence: &mut WalkEvidence,
        covered: &mut [bool],
        detections: &mut Vec<CommunityDetection>,
    ) -> Result<(), CdrwError> {
        for seed in shuffled_seed_pool(covered.len(), self.config.seed) {
            if covered[seed] {
                continue;
            }
            let detection = self.detect_community(exec, evidence, seed)?;
            if self.config.assembly.is_pooled() {
                evidence.pool_epoch(detections.len() as u32);
            }
            for &v in &detection.members {
                covered[v] = true;
            }
            covered[seed] = true;
            detections.push(detection);
        }
        Ok(())
    }

    /// The community of `seed` (the inner loop of Algorithm 1, plus the
    /// evidence-aggregation ensemble when configured), between the
    /// executor's detection hooks.
    ///
    /// Under the pooled assembly the detection's votes and margins are left
    /// in `evidence`'s current epoch for the caller to pool; recording
    /// never influences a walk decision.
    ///
    /// # Errors
    ///
    /// Propagates walk and executor failures.
    pub fn detect_community<E: LaneExecutor>(
        &self,
        exec: &mut E,
        evidence: &mut WalkEvidence,
        seed: VertexId,
    ) -> Result<CommunityDetection, CdrwError> {
        exec.begin_detection(seed)?;
        let detection = self.detect(exec, evidence, seed)?;
        exec.end_detection(&detection);
        Ok(detection)
    }

    fn detect<E: LaneExecutor>(
        &self,
        exec: &mut E,
        evidence: &mut WalkEvidence,
        seed: VertexId,
    ) -> Result<CommunityDetection, CdrwError> {
        let graph = self.engine.graph();
        let n = graph.num_vertices();
        let pooled = self.config.assembly.is_pooled();
        let mut trace = DetectionTrace {
            delta: self.delta,
            ..DetectionTrace::default()
        };
        if graph.degree(seed) == 0 {
            // The walk cannot leave the vertex: an isolated vertex is its
            // own community.
            if pooled {
                evidence.begin();
                evidence.record_walk(&[seed], 0.0)?;
            }
            return Ok(CommunityDetection {
                seed,
                members: vec![seed],
                trace,
            });
        }

        // The base walk: walk, local-mixing sweep, growth-rule stop.
        let base_floor = self.config.min_stop_size(n);
        let tracker = self
            .run_walks(exec, &[seed], base_floor, None, Some(&mut trace.steps))?
            .pop()
            .expect("one tracker per lane");
        trace.stopped_by_growth_rule = tracker.fired();
        let (members, base_margin, _) = tracker.conclude(graph, seed);
        if trace.stopped_by_growth_rule {
            // The firing step found a *larger* set that the stop rule
            // discards; record the returned community's size so the trace
            // agrees with the detection (see `StepTrace::mixing_set_size`).
            if let Some(last) = trace.steps.last_mut() {
                last.mixing_set_size = members.len();
            }
        }
        if pooled || self.config.ensemble.is_ensemble() {
            evidence.begin();
            evidence.record_walk(&members, base_margin)?;
        }
        if !self.config.ensemble.is_ensemble() {
            return Ok(CommunityDetection {
                seed,
                members,
                trace,
            });
        }

        // The ensemble: `walks − 1` follow-up walks re-seeded from
        // high-affinity members of the base detection's interior (lane 0
        // still holds the base walk's final distribution), with the growth
        // floor raised past the base set so they cannot stop on the same
        // transient plateau. The consensus keeps the base set and adds the
        // vertices a quorum of the walks voted for.
        let followups = select_interior_seeds(
            graph,
            exec.lane(0),
            &members,
            seed,
            self.config.ensemble.walks() - 1,
        );
        let escalated_floor = base_floor.max(members.len() + 1);
        let mut walk_traces = vec![EnsembleWalkTrace {
            seed,
            set_size: members.len(),
            margin: base_margin,
            contributed: 0,
        }];
        let mut sets = vec![members];
        let answers = self.followup_walks(exec, &followups, escalated_floor)?;
        for (&followup_seed, (members, walk_margin, bounded)) in followups.iter().zip(answers) {
            // A walk that mixed over more than half the graph votes with the
            // last community-scale set it passed through, or abstains.
            let (voted, margin) = community_scale_vote(members, walk_margin, bounded, n / 2)
                .unwrap_or((Vec::new(), 0.0));
            if !voted.is_empty() {
                evidence.record_walk(&voted, margin)?;
            }
            walk_traces.push(EnsembleWalkTrace {
                seed: followup_seed,
                set_size: voted.len(),
                margin,
                contributed: 0,
            });
            sets.push(voted);
        }
        // Small detections can yield fewer distinct follow-up seeds than the
        // policy asks for; cap the quorum at the evidence actually gathered
        // so the consensus never empties out by construction.
        let quorum = self.config.ensemble.quorum().min(evidence.walks_recorded());
        let members = evidence.consensus_with(quorum as u32, &sets[0]);
        for (walk, set) in walk_traces.iter_mut().zip(&sets) {
            walk.contributed = set
                .iter()
                .filter(|v| members.binary_search(v).is_ok())
                .count();
        }
        trace.ensemble = Some(EnsembleTrace {
            quorum,
            walks: walk_traces,
            consensus_size: members.len(),
        });
        Ok(CommunityDetection {
            seed,
            members,
            trace,
        })
    }

    /// Runs one walk per seed in lockstep, lane `i` from `seeds[i]`: step
    /// the live lanes, sweep each, feed its [`GrowthTracker`]; a lane whose
    /// growth rule fires stops stepping. With `steps` (the base walk, a
    /// single lane), every sweep's result is recorded there.
    fn run_walks<E: LaneExecutor>(
        &self,
        exec: &mut E,
        seeds: &[VertexId],
        stop_floor: usize,
        bounded_cap: Option<usize>,
        mut steps: Option<&mut Vec<StepTrace>>,
    ) -> Result<Vec<GrowthTracker>, CdrwError> {
        let graph = self.engine.graph();
        exec.load_lanes(seeds)?;
        let mut trackers: Vec<GrowthTracker> = seeds
            .iter()
            .map(|_| GrowthTracker::new(stop_floor, self.delta, bounded_cap))
            .collect();
        let mut live: Vec<u32> = (0..seeds.len() as u32).collect();
        for walk_length in 1..=self.max_length {
            if live.is_empty() {
                break;
            }
            exec.step(&live)?;
            let mut kept = 0;
            for index in 0..live.len() {
                let lane = live[index] as usize;
                let outcome = self.engine.sweep(exec.lane(lane), &self.mixing)?;
                exec.swept(lane, outcome.sizes_checked());
                if let Some(steps) = steps.as_deref_mut() {
                    steps.push(StepTrace {
                        walk_length,
                        mixing_set_size: outcome.size(),
                        sizes_checked: outcome.sizes_checked(),
                    });
                }
                let stopped = trackers[lane].observe_outcome(
                    graph,
                    seeds[lane],
                    outcome,
                    self.mixing.threshold,
                );
                if !stopped {
                    live[kept] = live[index];
                    kept += 1;
                }
            }
            live.truncate(kept);
        }
        Ok(trackers)
    }

    /// The walks that vote rather than detect — the ensemble's follow-ups
    /// and the assembly's re-seeds: one per seed with the growth floor
    /// `stop_floor`, tracking the last community-scale (at most `n/2`
    /// vertices) set each passed through. Answers come back in seed order.
    pub(crate) fn followup_walks<E: LaneExecutor>(
        &self,
        exec: &mut E,
        seeds: &[VertexId],
        stop_floor: usize,
    ) -> Result<Vec<WalkAnswer>, CdrwError> {
        let graph = self.engine.graph();
        let cap = graph.num_vertices() / 2;
        let trackers = self.run_walks(exec, seeds, stop_floor, Some(cap), None)?;
        Ok(trackers
            .into_iter()
            .zip(seeds)
            .map(|(tracker, &seed)| tracker.conclude(graph, seed))
            .collect())
    }

    /// Emits the result of `detections` under the configured assembly:
    /// first claim wins under [`AssemblyPolicy::Raw`]; under
    /// [`AssemblyPolicy::Pooled`] [`assembly::assemble_run`] decides,
    /// running its re-seed walks on `exec` between the assembly hooks, and
    /// every detection is refined to its evidence group's consensus.
    ///
    /// `frozen` and `freeze_tolerance` are the incremental service's (see
    /// [`assembly::assemble_run`]); the one-shot drivers pass `&[]` and
    /// `0.0`. Returns the result together with the drained claim pool.
    ///
    /// # Errors
    ///
    /// Propagates walk, evidence and executor failures.
    pub fn assemble<E: LaneExecutor>(
        &self,
        exec: &mut E,
        evidence: &mut WalkEvidence,
        mut detections: Vec<CommunityDetection>,
        frozen: &[bool],
        freeze_tolerance: f64,
    ) -> Result<(DetectionResult, Vec<PooledClaim>), CdrwError> {
        let graph = self.engine.graph();
        let n = graph.num_vertices();
        let AssemblyPolicy::Pooled { reseed, quorum } = self.config.assembly else {
            return Ok((DetectionResult::new(n, detections, self.delta), Vec::new()));
        };
        exec.begin_assembly(&detections)?;
        let member_sets: Vec<Vec<VertexId>> =
            detections.iter().map(|d| d.members.clone()).collect();
        let seeds: Vec<VertexId> = detections.iter().map(|d| d.seed).collect();
        let outcome = assembly::assemble_run(
            graph,
            reseed,
            quorum,
            &member_sets,
            &seeds,
            frozen,
            freeze_tolerance,
            evidence,
            |walk_seeds, floor| {
                Ok(self
                    .followup_walks(exec, walk_seeds, floor)?
                    .into_iter()
                    .map(|(members, margin, bounded)| {
                        community_scale_vote(members, margin, bounded, n / 2)
                    })
                    .collect())
            },
        )?;
        exec.end_assembly(&outcome);
        for (detection, refined) in detections.iter_mut().zip(outcome.refined) {
            detection.members = refined;
        }
        let result = DetectionResult::assembled(
            n,
            detections,
            outcome.partition,
            outcome.report,
            self.delta,
        );
        Ok((result, outcome.claims))
    }
}
