//! The k-machine engine's measured link loads: per physical round, the most
//! share entries one (sender shard, receiver shard) link carried, and the
//! k-machine rounds `link_rounds` prices them at.

use cdrw_repro::kmachine::{link_rounds, FaultPlan, KMachineRunReport};
use cdrw_repro::prelude::*;

fn graph() -> Graph {
    let n = 96;
    let p = (12.0 * (n as f64).ln() / n as f64).min(1.0);
    let params = PpmParams::new(n, 2, p, p / 20.0).unwrap();
    generate_ppm(&params, 5).unwrap().0
}

fn engine(k: usize) -> KMachineEngine {
    let algorithm = CdrwConfig::builder().seed(5).delta(0.1).build();
    KMachineEngine::new(
        KMachineConfig::new(k)
            .with_congest(CongestConfig::new(algorithm))
            .with_partition_seed(2),
    )
    .unwrap()
}

/// `(round, max_link_entries, wire_entries)` of every physical round.
fn link_loads(report: &KMachineRunReport) -> Vec<(u64, u64, u64)> {
    report
        .conformance
        .per_round
        .iter()
        .map(|r| (r.round, r.max_link_entries, r.wire_entries))
        .collect()
}

#[test]
fn one_machine_has_no_links() {
    let report = engine(1).run(&graph()).unwrap();
    let ledger = &report.conformance;
    assert!(ledger.physical_rounds > 0);
    assert_eq!(ledger.wire_entries, 0);
    assert!(ledger.per_round.iter().all(|r| r.max_link_entries == 0));
    assert_eq!(link_rounds(&ledger.per_round), 0);
}

#[test]
fn the_busiest_link_bounds_the_wire_traffic_both_ways() {
    let graph = graph();
    for k in [2usize, 3, 4, 8] {
        let report = engine(k).run(&graph).unwrap();
        let links = (k * (k - 1)) as u64;
        for round in &report.conformance.per_round {
            // The busiest link carries part of the round's wire traffic, and
            // the k(k−1) directed links together carry all of it.
            assert!(
                round.max_link_entries <= round.wire_entries
                    && round.wire_entries <= links * round.max_link_entries,
                "k = {k}, round {}: max link {} vs wire {}",
                round.round,
                round.max_link_entries,
                round.wire_entries
            );
        }
        assert!(link_rounds(&report.conformance.per_round) > 0, "k = {k}");
    }
}

#[test]
fn a_point_mass_puts_at_most_one_entry_on_each_link() {
    // A single-walk detection's first round steps one point mass: its seed
    // sends one entry to every remote shard homing a neighbour, so the
    // round's wire traffic is that shard count and no link carries two.
    let report = engine(8).run(&graph()).unwrap();
    let ledger = &report.conformance;
    let mut first = 0usize;
    let mut spread = false;
    for detection in &ledger.per_detection {
        assert_eq!(detection.lane_rounds, detection.physical_rounds);
        if detection.physical_rounds == 0 {
            continue;
        }
        let round = &ledger.per_round[first];
        assert_eq!(round.lanes, 1);
        assert_eq!(round.max_link_entries, round.wire_entries.min(1));
        spread |= round.wire_entries > 1;
        first += detection.physical_rounds as usize;
    }
    assert!(spread, "no seed had neighbours on two remote shards");
}

#[test]
fn recoverable_faults_leave_the_link_loads_unchanged() {
    let graph = graph();
    let clean = engine(2).run(&graph).unwrap();
    let plan = FaultPlan::seeded(17)
        .with_duplicate_rate(0.1)
        .with_delay(0.05, 2)
        .with_crash(1, 6);
    let faulty = engine(2).run_chaos(&graph, &plan).unwrap();
    assert!(!faulty.fault_log.is_clean(), "the plan injected no fault");
    assert_eq!(faulty.result, clean.result);
    // Duplicate and replayed replies go to the fault log, never the ledger.
    assert_eq!(link_loads(&faulty), link_loads(&clean));
}
