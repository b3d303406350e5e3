//! The k-machine execution engine: CDRW running *on* the shards.
//!
//! [`KMachineEngine`] runs CDRW distributed: the graph is split over
//! `k` worker shards by the [`crate::RandomVertexPartition`] (each holding a
//! [`cdrw_graph::SubCsr`] of its owned rows), every walk step is an explicit
//! message round between the shards ([`cdrw_walk::shard`]), and the one
//! detect/ensemble/assembly [`Pipeline`] of `cdrw_core` runs to completion
//! against the sharded state. In a round, every owned source with mass sends
//! its one per-edge share `p(u)(1−α)/w(u)` once to each remote shard homing
//! one of its neighbours, and each receiver expands the shares over its own
//! rows.
//!
//! ## Conformance contract
//!
//! * **Decisions are bit-identical to the sequential driver.** The
//!   coordinator is a [`LaneExecutor`]: it loads and steps lanes on the
//!   shards and gathers each stepped lane's support back (bit-identical to
//!   the sequential workspace — see the `cdrw_walk::shard` module docs for
//!   the accumulation-order argument). Every decision — sweep, growth rule,
//!   ensemble, assembly, pool order — is the pipeline's, the same code
//!   `cdrw_core::Cdrw::detect_all` runs on local lanes, so the whole
//!   [`DetectionResult`] (members, traces, partition, assembly report)
//!   compares equal to `Cdrw::detect_all`'s.
//! * **Measured messages equal the modelled flood.** Every edge
//!   contribution a receiver applies is one counted CONGEST message —
//!   counted where it lands, since one wire entry stands for all of a
//!   source's edges into the receiving shard. Per lane-round the count is
//!   exactly `sparse_walk_step_cost` on the pre-step distribution, which is
//!   also exactly the `flood` account the CONGEST runner charges per
//!   detection. [`WalkConformance`] carries measured and modelled side by
//!   side, per physical round and per detection, so the cost tests double
//!   as conformance tests of the real execution; next to them it records
//!   the share entries that actually crossed between shards.
//! * **Link loads are measured, not modelled.** Each shard reports the
//!   entry count of its heaviest outgoing link per round, and the ledger
//!   keeps the maximum over shards ([`RoundConformance::max_link_entries`]).
//!   [`crate::link_rounds`] turns those into the run's k-machine round count
//!   at `B` bits per link per round — the measured side of §III-B, next to
//!   the Conversion-Theorem and closed-form bounds of [`crate::conversion_rounds`]
//!   and [`crate::paper_round_bound`].
//!
//! Intentional deviations (asserted by the conformance suite, documented in
//! `docs/PAPER_MAP.md`): sweep/coordination costs (BFS trees, binary-search
//! aggregations, membership broadcasts) are *not* executed — the coordinator
//! decides centrally and those costs stay modelled-only — and lanes stepped
//! together share one physical round, so physical rounds ≤ modelled lane
//! rounds.
//!
//! ## Fault tolerance
//!
//! The coordinator never blocks unboundedly: every wait is a deadline
//! (`CoordinatorLinks::recv_deadline`) with exponential backoff, every
//! command carries a sequence number and is re-broadcast on timeout
//! (duplicates are absorbed by the shards — see the `shard` module), and a
//! shard that stays silent past the retry budget is declared dead and
//! re-materialised from the coordinator's own gathered lanes. That view is
//! exact: while round `S` is being collected it holds the state after every
//! command before `S` — `LoadLanes` is applied to it when issued, a round's
//! supports are gathered only once all `k` replies are in, and the sweep
//! borrows a lane only as scratch, never changing its masses or support. So
//! the replacement starts at `S − 1` with its owned slice of every lane and
//! replays round `S` alone, on the same re-broadcast that makes its peers
//! re-send their round-`S` share buckets. The recovery relies on that gather
//! (deviation 13 in `docs/PAPER_MAP.md`): a coordinator that stopped
//! gathering supports would need its own copy of the shards' state. Once a
//! round is gathered every shard has run every logged command, so the
//! command log is cleared. Replayed and duplicate traffic is charged to a
//! separate [`FaultLog`] — the conformance ledger counts only the first
//! accepted reply per round, so measured-vs-modelled equality survives
//! arbitrary recoverable fault schedules (deviation 16 in
//! `docs/PAPER_MAP.md`). When a shard exhausts its recoveries the run fails
//! with the typed [`CdrwError::ShardFailure`] — never a hang.
//!
//! The fault plan alone sets the budget. A plan that injects faults (not
//! [`FaultPlan::is_fault_free`]) gets 15 ms round deadlines, 3 recoveries per
//! shard and 10 s of shard patience; every other run gets 250 ms, 2 and 60 s.
//! Both retry a round 4 times before declaring its silent shards dead.

use std::sync::Arc;
use std::time::Duration;

use cdrw_congest::primitives::sparse_walk_step_cost;
use cdrw_core::assembly::AssemblyOutcome;
use cdrw_core::{CdrwError, CommunityDetection, DetectionResult, LaneExecutor, Pipeline};
use cdrw_graph::{Graph, SubCsr, VertexId};
use cdrw_walk::shard::merge_runs;
use cdrw_walk::WalkWorkspace;

use crate::chaos::{ChaosHarness, FaultPlan};
use crate::partition::{PartitionStats, RandomVertexPartition};
use crate::shard::ShardWorker;
use crate::transport::{mpsc_mesh, CoordinatorLinks, LaneState, Message, TransportError};
use crate::KMachineConfig;

/// Message conformance of one physical walk round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundConformance {
    /// 1-based physical round index.
    pub round: u64,
    /// Lanes stepped together in this physical round.
    pub lanes: u32,
    /// Edge contributions the shards actually applied (summed over lanes).
    pub measured_messages: u64,
    /// `sparse_walk_step_cost` on each lane's pre-step distribution (summed).
    pub modelled_messages: u64,
    /// Share entries that crossed between shards (summed over lanes; each
    /// shard's own run excluded).
    pub wire_entries: u64,
    /// The most share entries one (sender shard, receiver shard) link
    /// carried this round, summed over lanes: the round's bottleneck link,
    /// which [`crate::link_rounds`] prices in bandwidth-bounded rounds.
    pub max_link_entries: u64,
}

/// Flood conformance of one detection (or of the assembly phase): the
/// measured execution next to the congest model's expected counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionFlood {
    /// The detection's seed (`usize::MAX` for the assembly phase).
    pub seed: VertexId,
    /// Per-lane walk rounds executed — the model's flood rounds.
    pub lane_rounds: u64,
    /// Physical rounds executed (≤ `lane_rounds`: batched lanes share one).
    pub physical_rounds: u64,
    /// Edge contributions actually applied.
    pub measured_messages: u64,
    /// The congest model's expected flood messages.
    pub modelled_messages: u64,
}

/// Walk-phase conformance ledger of one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalkConformance {
    /// Physical message rounds executed.
    pub physical_rounds: u64,
    /// Per-lane walk rounds (what the congest model charges as flood rounds).
    pub lane_rounds: u64,
    /// Total edge contributions applied by the shards.
    pub measured_messages: u64,
    /// Total `sparse_walk_step_cost` messages over the same steps.
    pub modelled_messages: u64,
    /// Total share entries that crossed between shards: one per (source,
    /// remote shard homing a neighbour of it) per lane-round.
    pub wire_entries: u64,
    /// Per-physical-round breakdown.
    pub per_round: Vec<RoundConformance>,
    /// Per-detection breakdown, in detection order.
    pub per_detection: Vec<DetectionFlood>,
    /// The assembly phase's breakdown (pooled assembly only).
    pub assembly: Option<DetectionFlood>,
}

/// One shard recovery event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecovery {
    /// The re-materialised shard.
    pub shard: usize,
    /// The command sequence number the run had reached when the shard was
    /// declared dead.
    pub at_seq: u64,
    /// The first command sequence number the replacement replayed: always
    /// `at_seq`, since one round is replayed.
    pub replay_from: u64,
}

/// Every fault-handling action of one run, charged separately from the
/// conformance ledger: the base CONGEST cost model is unchanged by retries
/// and recovery (the ledger counts only the first accepted reply per
/// round), and this log is where the extra traffic is accounted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    /// Deadline expiries while waiting for shard replies.
    pub timeouts: u64,
    /// Command re-broadcasts after a timeout.
    pub retries: u64,
    /// Sequence-gap complaints received from shards.
    pub nacks: u64,
    /// Duplicate or replayed `StepDone` replies absorbed (not counted in the
    /// conformance ledger).
    pub duplicate_replies: u64,
    /// Edge contributions counted by those duplicate/replayed replies — the
    /// recovery overhead in model units.
    pub replayed_messages: u64,
    /// Shards that replied only after at least one retry of a round.
    pub stragglers: u64,
    /// Shard re-materialisations, in occurrence order.
    pub recoveries: Vec<ShardRecovery>,
}

impl FaultLog {
    /// Whether the run saw no fault-handling action at all.
    pub fn is_clean(&self) -> bool {
        self == &FaultLog::default()
    }
}

/// Consecutive timeouts tolerated, each followed by a command re-broadcast,
/// before the still-silent shards are declared dead.
const MAX_RETRIES: u32 = 4;

/// The fault-tolerance budget of one run, chosen by [`budget`].
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Base deadline for one wait on shard replies; consecutive timeouts
    /// back off exponentially from here (doubling, capped at 32×).
    round_timeout: Duration,
    /// Re-materialisations allowed per shard before the run fails with
    /// [`CdrwError::ShardFailure`].
    max_recoveries: u32,
    /// How long a shard waits without hearing anything before assuming the
    /// run is gone and exiting (the lost-`Halt` watchdog).
    shard_patience: Duration,
}

/// A healthy run's budget: an in-process round takes microseconds, so these
/// deadlines never fire, while a wedged shard is recovered within ~10 s.
const GENEROUS: Budget = Budget {
    round_timeout: Duration::from_millis(250),
    max_recoveries: 2,
    shard_patience: Duration::from_secs(60),
};

/// The budget under injected faults: retries fire in milliseconds so a
/// chaos matrix sweeps quickly.
const TIGHT: Budget = Budget {
    round_timeout: Duration::from_millis(15),
    max_recoveries: 3,
    shard_patience: Duration::from_secs(10),
};

/// The tight budget iff the run injects faults; every other run, fault-free
/// plans included, gets the generous one.
fn budget(plan: Option<&FaultPlan>) -> Budget {
    match plan {
        Some(plan) if !plan.is_fault_free() => TIGHT,
        _ => GENEROUS,
    }
}

/// Report of one sharded execution.
#[derive(Debug, Clone)]
pub struct KMachineRunReport {
    /// Number of worker shards.
    pub num_machines: usize,
    /// The detection result — bit-identical to [`cdrw_core::Cdrw`]'s.
    pub result: DetectionResult,
    /// Balance statistics of the vertex partition used.
    pub partition: PartitionStats,
    /// Measured-vs-modelled walk message conformance.
    pub conformance: WalkConformance,
    /// Every retry, timeout, duplicate and recovery the run absorbed
    /// (empty on a healthy mesh).
    pub fault_log: FaultLog,
}

/// The multi-shard CDRW execution engine: the crate's k-machine runtime.
///
/// It accepts `k = 1`: a single shard exercises the full message protocol
/// against itself (no share crosses a link, so it measures zero link
/// rounds), which the property tests use as the degenerate base case.
#[derive(Debug, Clone)]
pub struct KMachineEngine {
    config: KMachineConfig,
    fault_plan: Option<FaultPlan>,
}

impl KMachineEngine {
    /// Creates an engine with the given configuration and no fault
    /// injection.
    ///
    /// # Errors
    ///
    /// Returns [`CdrwError::InvalidConfig`] when `num_machines == 0`.
    pub fn new(config: KMachineConfig) -> Result<Self, CdrwError> {
        if config.num_machines == 0 {
            return Err(CdrwError::InvalidConfig {
                field: "num_machines",
                reason: "the execution engine needs k ≥ 1".to_string(),
            });
        }
        Ok(KMachineEngine {
            config,
            fault_plan: None,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &KMachineConfig {
        &self.config
    }

    /// Wraps every shard transport in a `ChaosTransport` injecting the given
    /// plan's faults. The plan is validated at run time.
    /// A plan that injects faults also tightens the fault-tolerance budget
    /// (see the [module docs](self)).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs the full detection pipeline on the shards, partitioning by the
    /// configured RVP seed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`cdrw_core::Cdrw::detect_all`], plus
    /// [`CdrwError::ShardFailure`] when a shard dies beyond the recovery
    /// budget.
    pub fn run(&self, graph: &Graph) -> Result<KMachineRunReport, CdrwError> {
        let partition =
            RandomVertexPartition::new(graph, self.config.num_machines, self.config.partition_seed);
        self.run_with_partition(graph, &partition)
    }

    /// Runs under the given fault plan (see
    /// [`KMachineEngine::with_fault_plan`]): the standard entry point of the
    /// chaos conformance matrix. The result must still be bit-identical to
    /// the fault-free (and sequential) run whenever the plan is recoverable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KMachineEngine::run`], plus
    /// [`CdrwError::InvalidConfig`] for an invalid plan.
    pub fn run_chaos(
        &self,
        graph: &Graph,
        plan: &FaultPlan,
    ) -> Result<KMachineRunReport, CdrwError> {
        self.clone().with_fault_plan(plan.clone()).run(graph)
    }

    /// [`KMachineEngine::run_chaos`] over an explicit partition.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KMachineEngine::run_chaos`].
    pub fn run_chaos_with_partition(
        &self,
        graph: &Graph,
        partition: &RandomVertexPartition,
        plan: &FaultPlan,
    ) -> Result<KMachineRunReport, CdrwError> {
        self.clone()
            .with_fault_plan(plan.clone())
            .run_with_partition(graph, partition)
    }

    /// Runs the pipeline over an explicit partition (fault-shape tests build
    /// adversarial layouts with
    /// [`RandomVertexPartition::from_assignment`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`cdrw_core::Cdrw::detect_all`].
    pub fn run_with_partition(
        &self,
        graph: &Graph,
        partition: &RandomVertexPartition,
    ) -> Result<KMachineRunReport, CdrwError> {
        let pipeline = Pipeline::new(&self.config.congest.algorithm, graph)?;
        let k = partition.num_machines();
        let laziness = pipeline.engine().laziness();
        let budget = budget(self.fault_plan.as_ref());
        let patience = budget.shard_patience;

        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(|reason| CdrwError::InvalidConfig {
                field: "fault_plan",
                reason,
            })?;
        }
        let chaos = self.fault_plan.clone().map(ChaosHarness::new);
        let (links, transports, reconnector) = mpsc_mesh(k);

        let outcome = std::thread::scope(|scope| {
            // Spawns one worker thread for shard `m`. The thread extracts
            // its SubCsr and builds its reverse index itself — fresh on a
            // recovery, which cannot reuse the dead worker's (it lives on the
            // wedged thread) — and starts from the given view of the lanes
            // (`seq == 0` with an empty view is a cold start).
            let spawn = |m: usize, mut transport, seq: u64, view: Vec<Vec<(VertexId, f64)>>| {
                let worker = move || {
                    let sub = SubCsr::extract(graph, partition.vertices_of(m), |v| {
                        partition.machine_of(v)
                    });
                    ShardWorker::new(m, k, sub, laziness, patience, seq, &view)
                };
                match &chaos {
                    Some(harness) => {
                        let mut chaotic = harness.wrap(m, transport);
                        scope.spawn(move || worker().run(&mut chaotic));
                    }
                    None => {
                        scope.spawn(move || worker().run(&mut transport));
                    }
                }
            };
            for (m, transport) in transports.into_iter().enumerate() {
                spawn(m, transport, 0, Vec::new());
            }
            // A replacement gets its owned slice of every gathered lane.
            let respawn = |m: usize, seq: u64, lanes: &[WalkWorkspace]| {
                let view = lanes
                    .iter()
                    .map(|lane| {
                        let mut owned = lane.snapshot_sparse();
                        owned.retain(|&(v, _)| partition.machine_of(v) == m);
                        owned
                    })
                    .collect();
                spawn(m, reconnector.reconnect(m), seq, view);
            };
            let mut coordinator = Coordinator::new(graph, &links, budget, &respawn);
            let result = pipeline.detect_all(&mut coordinator);
            links.broadcast(&Message::Halt);
            result.map(|(r, _)| (r, coordinator.conformance, coordinator.fault_log))
        });
        let (result, conformance, fault_log) = outcome?;
        Ok(KMachineRunReport {
            num_machines: k,
            result,
            partition: partition.stats(graph),
            conformance,
            fault_log,
        })
    }
}

/// The coordinator: owns the gathered per-lane global view and drives the
/// shard protocol — the [`LaneExecutor`] the shared [`Pipeline`] runs on.
struct Coordinator<'g, 'l> {
    graph: &'g Graph,
    links: &'l CoordinatorLinks,
    budget: Budget,
    /// Re-materialises shard `m` at `seq` from the gathered view of every
    /// lane on a fresh transport (wired by the caller through the mesh's
    /// reconnector).
    respawn: &'l dyn Fn(usize, u64, &[WalkWorkspace]),
    /// Per-lane gathered global distributions — bit-identical to the
    /// sequential workspaces (the shards' owned slices concatenate to them).
    lanes: Vec<WalkWorkspace>,
    conformance: WalkConformance,
    /// Running totals when the open detection (or the assembly) began.
    mark: (u64, u64, u64, u64),
    /// Last issued command sequence number.
    seq: u64,
    /// The commands issued since the last gathered round, ascending by seq,
    /// kept for `Nack`-triggered re-sends.
    command_log: Vec<(u64, Message)>,
    /// Per-shard re-materialisations consumed from the recovery budget.
    recoveries_used: Vec<u32>,
    fault_log: FaultLog,
}

impl<'g, 'l> Coordinator<'g, 'l> {
    fn new(
        graph: &'g Graph,
        links: &'l CoordinatorLinks,
        budget: Budget,
        respawn: &'l dyn Fn(usize, u64, &[WalkWorkspace]),
    ) -> Self {
        let k = links.num_shards();
        Coordinator {
            graph,
            links,
            budget,
            respawn,
            lanes: Vec::new(),
            conformance: WalkConformance::default(),
            mark: (0, 0, 0, 0),
            seq: 0,
            command_log: Vec::new(),
            recoveries_used: vec![0; k],
            fault_log: FaultLog::default(),
        }
    }

    fn ensure_lanes(&mut self, count: usize) {
        while self.lanes.len() < count {
            self.lanes
                .push(WalkWorkspace::with_len(self.graph.num_vertices()));
        }
    }

    /// Issues the next command: assigns it the next sequence number,
    /// broadcasts it, and appends it to the command log.
    fn issue(&mut self, mut message: Message) -> u64 {
        self.seq += 1;
        let seq = self.seq;
        match &mut message {
            Message::LoadLanes { seq: s, .. } | Message::Step { seq: s, .. } => *s = seq,
            other => unreachable!("only commands are issued: {other:?}"),
        }
        self.links.broadcast(&message);
        self.command_log.push((seq, message));
        seq
    }

    /// Re-sends the logged commands from `from` onwards to one shard.
    fn resend_log(&self, shard: usize, from: u64) {
        for (seq, message) in &self.command_log {
            if *seq >= from {
                self.links.send(shard, message.clone());
            }
        }
    }

    /// Re-materialises a shard found silent while round `seq` is collected:
    /// respawns its worker at `seq − 1` from the gathered lanes (see the
    /// module docs for why they are exact). The caller re-broadcasts round
    /// `seq`, which the replacement then runs.
    ///
    /// # Errors
    ///
    /// [`CdrwError::ShardFailure`] when the shard's recovery budget
    /// (`Budget::max_recoveries`) is exhausted.
    fn recover(&mut self, shard: usize, seq: u64) -> Result<(), CdrwError> {
        if self.recoveries_used[shard] >= self.budget.max_recoveries {
            return Err(CdrwError::ShardFailure {
                shard,
                seq,
                reason: format!(
                    "silent past {} retries with all {} recoveries spent",
                    MAX_RETRIES, self.budget.max_recoveries
                ),
            });
        }
        self.recoveries_used[shard] += 1;
        (self.respawn)(shard, seq - 1, &self.lanes);
        self.fault_log.recoveries.push(ShardRecovery {
            shard,
            at_seq: seq,
            replay_from: seq,
        });
        Ok(())
    }

    /// Handles one non-`StepDone` shard message inside a collect loop,
    /// marking the sender alive in `heard`.
    fn absorb_control(&mut self, message: Message, heard: &mut [bool]) {
        match message {
            Message::Busy { shard, .. } => heard[shard] = true,
            Message::Nack { shard, expected } => {
                heard[shard] = true;
                self.fault_log.nacks += 1;
                self.resend_log(shard, expected);
            }
            _ => {}
        }
    }

    /// Snapshot of the running totals, for per-detection attribution.
    fn totals(&self) -> (u64, u64, u64, u64) {
        let c = &self.conformance;
        (
            c.lane_rounds,
            c.physical_rounds,
            c.measured_messages,
            c.modelled_messages,
        )
    }

    /// The flood since the last [`Coordinator::totals`] mark, attributed to
    /// `seed` (`usize::MAX` for the assembly phase).
    fn flood_since_mark(&self, seed: VertexId) -> DetectionFlood {
        let (c, mark) = (&self.conformance, self.mark);
        DetectionFlood {
            seed,
            lane_rounds: c.lane_rounds - mark.0,
            physical_rounds: c.physical_rounds - mark.1,
            measured_messages: c.measured_messages - mark.2,
            modelled_messages: c.modelled_messages - mark.3,
        }
    }
}

impl LaneExecutor for Coordinator<'_, '_> {
    /// Loads `seeds[i]` as a fresh point-mass walk into lane `i`, on the
    /// shards and in the gathered view.
    fn load_lanes(&mut self, seeds: &[VertexId]) -> Result<(), CdrwError> {
        self.ensure_lanes(seeds.len());
        let mut message_seeds = Vec::with_capacity(seeds.len());
        for (lane, &seed) in seeds.iter().enumerate() {
            self.lanes[lane].load_point_mass(seed)?;
            message_seeds.push((lane as u32, seed));
        }
        if !message_seeds.is_empty() {
            // No direct reply: a lost copy surfaces as a `Nack` when the
            // next `Step`'s sequence number jumps past the gap.
            self.issue(Message::LoadLanes {
                seq: 0,
                seeds: message_seeds,
            });
        }
        Ok(())
    }

    /// One physical walk round for the given lanes: model the flood off the
    /// pre-step gathered state, command the shards, gather the post-step
    /// supports, and record the conformance ledger entry.
    ///
    /// The collect loop is the resilient heart of the engine: every wait is
    /// deadline-bounded with exponential backoff, a timeout re-broadcasts
    /// the round (shards absorb duplicates idempotently), and a shard silent
    /// past `MAX_RETRIES` consecutive timeouts is declared dead and
    /// re-materialised from the gathered lanes. Only the first
    /// accepted `StepDone` per shard enters the conformance ledger; all
    /// retry-induced traffic lands in the [`FaultLog`].
    ///
    /// # Errors
    ///
    /// [`CdrwError::ShardFailure`] when a shard dies beyond the budget.
    fn step(&mut self, lanes: &[u32]) -> Result<(), CdrwError> {
        debug_assert!(!lanes.is_empty());
        let modelled: u64 = lanes
            .iter()
            .map(|&lane| sparse_walk_step_cost(self.graph, &self.lanes[lane as usize]).messages)
            .sum();
        let seq = self.issue(Message::Step {
            seq: 0,
            lanes: lanes.to_vec(),
        });

        let k = self.links.num_shards();
        let (mut measured, mut wire, mut max_link) = (0u64, 0u64, 0u64);
        // Each shard's accepted reply: its owned slice of every stepped
        // lane's support, read in place by the gather below.
        let mut replies: Vec<Arc<Vec<LaneState>>> = Vec::with_capacity(k);
        let mut done = vec![false; k];
        let mut late = vec![false; k];
        // Shards heard from (any message) since the current timeout streak
        // began: a live shard blocked on a dead peer's shares answers the
        // retry re-broadcast with `Busy`, so only the truly silent are
        // re-materialised when the retry budget runs out.
        let mut heard = vec![false; k];
        let mut done_count = 0usize;
        let mut consecutive_timeouts = 0u32;
        while done_count < k {
            let backoff = self
                .budget
                .round_timeout
                .saturating_mul(1u32 << consecutive_timeouts.min(5));
            match self.links.recv_deadline(backoff) {
                Ok(Message::StepDone {
                    seq: s,
                    shard,
                    lanes: shard_lanes,
                    max_link_entries,
                }) => {
                    heard[shard] = true;
                    if s == seq && !done[shard] {
                        consecutive_timeouts = 0;
                        done[shard] = true;
                        done_count += 1;
                        if late[shard] {
                            late[shard] = false;
                            self.fault_log.stragglers += 1;
                        }
                        debug_assert_eq!(shard_lanes.len(), lanes.len());
                        for (slot, state) in shard_lanes.iter().enumerate() {
                            debug_assert_eq!(state.lane, lanes[slot]);
                            measured += state.messages;
                            wire += state.wire_entries;
                        }
                        max_link = max_link.max(max_link_entries);
                        replies.push(shard_lanes);
                    } else {
                        // A replay or a chaos duplicate: charged to the fault
                        // log, never to the conformance ledger.
                        self.fault_log.duplicate_replies += 1;
                        self.fault_log.replayed_messages +=
                            shard_lanes.iter().map(|state| state.messages).sum::<u64>();
                    }
                }
                Ok(other) => self.absorb_control(other, &mut heard),
                // The mesh's reconnector keeps the coordinator channel open,
                // so a disconnect here means every shard endpoint crashed at
                // once — handled like silence: retry, then recover.
                Err(TransportError::Timeout) | Err(TransportError::Disconnected) => {
                    self.fault_log.timeouts += 1;
                    consecutive_timeouts += 1;
                    if consecutive_timeouts == 1 {
                        // A fresh timeout streak: liveness must be re-proven
                        // against the retry probes that follow.
                        heard.fill(false);
                    }
                    if consecutive_timeouts > MAX_RETRIES {
                        let silent: Vec<usize> = (0..k)
                            .filter(|&shard| !done[shard] && !heard[shard])
                            .collect();
                        if silent.is_empty() {
                            // Everyone claims to be alive yet the round is
                            // stuck: break the deadlock by re-materialising
                            // the least-recovered missing shard.
                            let fallback = (0..k)
                                .filter(|&shard| !done[shard])
                                .min_by_key(|&shard| self.recoveries_used[shard])
                                .expect("done_count < k leaves a missing shard");
                            self.recover(fallback, seq)?;
                        }
                        for shard in silent {
                            self.recover(shard, seq)?;
                        }
                        heard.fill(false);
                        consecutive_timeouts = 0;
                    } else {
                        self.fault_log.retries += 1;
                        for (shard, done) in done.iter().enumerate() {
                            if !done {
                                late[shard] = true;
                            }
                        }
                    }
                    // Re-broadcast the round: a replacement runs it, finished
                    // shards re-send their cached replies (the lost message
                    // might be theirs), stuck shards answer `Busy` and
                    // re-send their in-flight share buckets.
                    self.links.broadcast(&Message::Step {
                        seq,
                        lanes: lanes.to_vec(),
                    });
                }
            }
        }
        // Every shard has now run every logged command.
        self.command_log.clear();
        // Every shard's slice is ascending by vertex and the slices are
        // disjoint (each vertex has one home), so merging them yields the
        // global support in order.
        let mut support: Vec<(VertexId, f64)> = Vec::new();
        let mut runs: Vec<&[(VertexId, f64)]> = Vec::with_capacity(k);
        for (slot, &lane) in lanes.iter().enumerate() {
            runs.clear();
            runs.extend(replies.iter().map(|reply| reply[slot].support.as_slice()));
            support.clear();
            merge_runs(&runs, |&(v, _)| v, |&entry| support.push(entry));
            self.lanes[lane as usize]
                .load_sparse(&support)
                .expect("gathered support is in range");
        }

        let ledger = &mut self.conformance;
        ledger.physical_rounds += 1;
        ledger.lane_rounds += lanes.len() as u64;
        ledger.measured_messages += measured;
        ledger.modelled_messages += modelled;
        ledger.wire_entries += wire;
        ledger.per_round.push(RoundConformance {
            round: ledger.physical_rounds,
            lanes: lanes.len() as u32,
            measured_messages: measured,
            modelled_messages: modelled,
            wire_entries: wire,
            max_link_entries: max_link,
        });
        Ok(())
    }

    fn lane(&mut self, i: usize) -> &mut WalkWorkspace {
        &mut self.lanes[i]
    }

    fn begin_detection(&mut self, _seed: VertexId) -> Result<(), CdrwError> {
        self.mark = self.totals();
        Ok(())
    }

    fn end_detection(&mut self, detection: &CommunityDetection) {
        let flood = self.flood_since_mark(detection.seed);
        self.conformance.per_detection.push(flood);
    }

    fn begin_assembly(&mut self, _detections: &[CommunityDetection]) -> Result<(), CdrwError> {
        self.mark = self.totals();
        Ok(())
    }

    fn end_assembly(&mut self, _outcome: &AssemblyOutcome) {
        self.conformance.assembly = Some(self.flood_since_mark(usize::MAX));
    }
}
