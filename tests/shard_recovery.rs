//! A crashed shard is rebuilt from the coordinator's gathered lanes, which
//! hold exactly the state every shard had before the round in flight. So a
//! recovery replays that one round and no more: its `replay_from` is its
//! `at_seq`, the replacement never finds a gap in its command sequence (no
//! NACK), and the run's answer and per-round ledger equal the fault-free
//! run's.

use cdrw_repro::kmachine::FaultPlan;
use cdrw_repro::prelude::*;

fn graph() -> Graph {
    let params = PpmParams::new(256, 4, 0.25, 0.01).unwrap();
    generate_ppm(&params, 3).unwrap().0
}

fn algorithm() -> CdrwConfig {
    CdrwConfig::builder().seed(5).delta(0.1).build()
}

fn engine(k: usize) -> KMachineEngine {
    KMachineEngine::new(
        KMachineConfig::new(k)
            .with_congest(CongestConfig::new(algorithm()))
            .with_partition_seed(7),
    )
    .unwrap()
}

/// Crashes the last of `k` shards at each of two command sequence numbers
/// and checks every recovery against the sequential and fault-free runs.
fn assert_crashes_replay_one_round(k: usize) {
    let graph = graph();
    let sequential = Cdrw::new(algorithm()).detect_all(&graph).unwrap();
    let clean = engine(k).run(&graph).unwrap();
    assert_eq!(clean.result, sequential, "k = {k}: fault-free run");
    for at in [6u64, 14] {
        let plan = FaultPlan::seeded(41).with_crash(k - 1, at);
        let report = engine(k).run_chaos(&graph, &plan).unwrap();
        let log = &report.fault_log;
        assert_eq!(report.result, sequential, "k = {k}, crash at {at}");
        assert_eq!(log.recoveries.len(), 1, "k = {k}, crash at {at}: {log:?}");
        for recovery in &log.recoveries {
            assert_eq!(recovery.shard, k - 1);
            assert!(recovery.at_seq >= at, "k = {k}: {recovery:?}");
            assert_eq!(
                recovery.replay_from, recovery.at_seq,
                "k = {k}, crash at {at}: the replacement replayed more than the round in flight"
            );
        }
        assert_eq!(log.nacks, 0, "k = {k}, crash at {at}: {log:?}");
        // Live peers blocked on the dead shard answer the retries with
        // `Busy`; only the silent, re-materialised shard is a straggler.
        assert!(
            log.stragglers <= 1,
            "k = {k}, crash at {at}: one crash, {} stragglers: {log:?}",
            log.stragglers
        );
        assert_eq!(
            report.conformance.per_round, clean.conformance.per_round,
            "k = {k}, crash at {at}: the recovery leaked into the ledger"
        );
    }
}

#[test]
fn one_shard_rebuilt_from_the_gathered_lanes_replays_one_round() {
    assert_crashes_replay_one_round(1);
}

#[test]
fn two_shards_rebuilt_from_the_gathered_lanes_replay_one_round() {
    assert_crashes_replay_one_round(2);
}

#[test]
fn three_shards_rebuilt_from_the_gathered_lanes_replay_one_round() {
    assert_crashes_replay_one_round(3);
}
