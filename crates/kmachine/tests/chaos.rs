//! Chaos suite of the fault-tolerant sharded runtime.
//!
//! The contract under test (ISSUE 10 tentpole):
//!
//! * **Recoverable plans are invisible in the result.** For any seeded
//!   drop/delay/duplicate schedule — and crashes within the recovery
//!   budget — `run_chaos` returns a [`cdrw_core::DetectionResult`] that
//!   compares `PartialEq`-equal to the sequential driver's, and the
//!   conformance ledger still shows measured == modelled per physical round
//!   (retries and replays are charged to the [`FaultLog`], not the ledger).
//! * **Unrecoverable plans are a typed error, never a hang.** A shard
//!   crashed more times than its recovery budget allows (3 per shard under
//!   a plan that injects faults) fails the run with
//!   [`CdrwError::ShardFailure`]; a watchdog asserts the engine returns
//!   promptly instead of wedging.
//! * **The zero plan is free.** A fault-free [`FaultPlan`] leaves a clean
//!   fault log and the inert transport wrapper changes nothing.

use std::time::Duration;

use cdrw_congest::CongestConfig;
use cdrw_core::{Cdrw, CdrwConfig, CdrwError, DetectionResult};
use cdrw_graph::{Graph, GraphBuilder};
use cdrw_kmachine::{FaultPlan, KMachineConfig, KMachineEngine, KMachineRunReport};
use proptest::prelude::*;

fn small_graph() -> Graph {
    // Two dense pockets joined by a bridge: enough structure for several
    // detections and message rounds while staying fast under fault schedules
    // full of retry backoffs.
    GraphBuilder::from_edges(
        10,
        [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (5, 7),
            (6, 7),
            (6, 8),
            (7, 8),
            (8, 9),
            (5, 9),
        ],
    )
    .unwrap()
}

fn config() -> CdrwConfig {
    CdrwConfig::builder().seed(9).delta(0.2).build()
}

fn engine(k: usize) -> KMachineEngine {
    KMachineEngine::new(
        KMachineConfig::new(k)
            .with_congest(CongestConfig::new(config()))
            .with_partition_seed(3),
    )
    .unwrap()
}

fn expected(graph: &Graph) -> DetectionResult {
    Cdrw::new(config()).detect_all(graph).unwrap()
}

/// Runs the plan and pins the full recoverable contract.
fn assert_chaos_is_invisible(k: usize, plan: &FaultPlan) -> KMachineRunReport {
    let graph = small_graph();
    let want = expected(&graph);
    let report = engine(k).run_chaos(&graph, plan).unwrap();
    assert_eq!(
        report.result, want,
        "k = {k}, plan seed {} diverged from sequential",
        plan.seed
    );
    for round in &report.conformance.per_round {
        assert_eq!(
            round.measured_messages, round.modelled_messages,
            "k = {k}: conformance ledger polluted by retries in round {}",
            round.round
        );
    }
    report
}

#[test]
fn a_fault_free_plan_leaves_a_clean_fault_log() {
    let graph = small_graph();
    let want = expected(&graph);
    for k in [1usize, 3] {
        let report = engine(k)
            .with_fault_plan(FaultPlan::fault_free())
            .run(&graph)
            .unwrap();
        assert_eq!(report.result, want);
        assert!(
            report.fault_log.is_clean(),
            "k = {k}: {:?}",
            report.fault_log
        );
    }
}

#[test]
fn crash_recovery_restores_the_exact_result() {
    // Kill shard 1 mid-run: the coordinator must re-materialise it from its
    // gathered lanes and finish with the bit-identical answer.
    let plan = FaultPlan::seeded(41).with_crash(1, 6);
    let report = assert_chaos_is_invisible(2, &plan);
    assert_eq!(report.fault_log.recoveries.len(), 1);
    let recovery = report.fault_log.recoveries[0];
    assert_eq!(recovery.shard, 1);
    assert!(recovery.at_seq >= 6);
    assert!(recovery.replay_from <= recovery.at_seq);
    assert!(report.fault_log.timeouts > 0);
}

#[test]
fn a_recovered_shard_replays_the_command_log_without_a_nack() {
    // The replacement starts from the gathered lanes just before the round
    // in flight and is sent that round. Started from any older state it
    // would see a gap in the command sequence and NACK it, so the NACK
    // count tells the two apart.
    let plan = FaultPlan::seeded(41).with_crash(1, 6);
    let report = assert_chaos_is_invisible(2, &plan);
    assert_eq!(report.fault_log.recoveries.len(), 1);
    assert_eq!(report.fault_log.nacks, 0, "{:?}", report.fault_log);
}

#[test]
fn single_shard_crash_recovers_from_its_own_checkpoint() {
    // k = 1: no peers to re-send shares, so recovery leans entirely on the
    // coordinator's gathered lanes plus the re-sent round.
    let plan = FaultPlan::seeded(5).with_crash(0, 7);
    let report = assert_chaos_is_invisible(1, &plan);
    assert_eq!(report.fault_log.recoveries.len(), 1);
}

#[test]
fn repeated_crashes_within_budget_all_recover() {
    // Two separate crashes of the same shard (the second fires during the
    // post-recovery run), still within the tight budget of 3.
    let plan = FaultPlan::seeded(13).with_crash(0, 4).with_crash(0, 12);
    let report = assert_chaos_is_invisible(2, &plan);
    assert_eq!(report.fault_log.recoveries.len(), 2);
}

#[test]
fn exhausted_recovery_budget_is_a_typed_error_not_a_hang() {
    // More crashes than the recovery budget (the tight one allows 3): the run must
    // fail with `ShardFailure` — inside a watchdog so a wedged coordinator
    // fails the test instead of hanging the suite.
    let plan = FaultPlan::seeded(2)
        .with_crash(0, 2)
        .with_crash(0, 3)
        .with_crash(0, 4)
        .with_crash(0, 5)
        .with_crash(0, 6);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let graph = small_graph();
        let _ = tx.send(engine(2).run_chaos(&graph, &plan));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the engine hung instead of failing over");
    match outcome {
        Err(CdrwError::ShardFailure { shard, seq, .. }) => {
            assert_eq!(shard, 0);
            assert!(seq >= 2);
        }
        other => panic!("expected ShardFailure, got {other:?}"),
    }
}

#[test]
fn invalid_plans_are_rejected_up_front() {
    let graph = small_graph();
    let plan = FaultPlan::seeded(1).with_drop_rate(1.5);
    match engine(2).run_chaos(&graph, &plan) {
        Err(CdrwError::InvalidConfig { field, .. }) => assert_eq!(field, "fault_plan"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

proptest! {
    /// The tentpole property: any recoverable seeded plan — mixed drops,
    /// delays, duplicates, and up to one in-budget crash — yields a
    /// `DetectionResult` equal to the sequential driver's, with the
    /// conformance ledger intact.
    #[test]
    fn recoverable_plans_never_change_the_answer(
        seed in 0u64..10_000,
        drop_rate in 0.0f64..0.12,
        delay_rate in 0.0f64..0.08,
        duplicate_rate in 0.0f64..0.08,
        delay_ops in 1u32..5,
        k in 1usize..4,
        crash_shard in 0usize..3,
        // `< 2` means "no crash": roughly half the cases crash a shard.
        crash_at in 0u64..12,
    ) {
        let mut plan = FaultPlan::seeded(seed)
            .with_drop_rate(drop_rate)
            .with_delay(delay_rate, delay_ops)
            .with_duplicate_rate(duplicate_rate);
        if crash_at >= 2 {
            plan = plan.with_crash(crash_shard % k, crash_at);
        }
        assert_chaos_is_invisible(k, &plan);
    }
}
