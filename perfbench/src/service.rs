//! The `service-churn` workload: a `CdrwService` refreshed after every churn
//! cycle, plus the cycle loop the traced run reuses on every workload.

use cdrw_core::{Cdrw, CdrwConfig, CdrwService, RefreshKind, RefreshReport};
use cdrw_graph::Graph;
use cdrw_metrics::f_score_weighted;

use crate::inputs::{check_total, Churn, Instance, EPSILON};
use crate::oneshot::BURST;
use crate::stats::{mean, median, peak_rss_mib, quantile, query_burst, share, timed};
use crate::trace::Tracer;
use crate::{Ledger, Metric};

/// Cycles per second of `--seconds`: the fixed cycle schedule of a run.
const CYCLES_PER_SECOND: usize = 12;
/// Fewest cycles a run takes, so that ten lie beyond the p90.
const MIN_CYCLES: usize = 100;
/// Checkpoints (set-up sample plus full-detection sample) per run, spread
/// evenly over the cycle schedule; the last one follows the last cycle.
const CHECKPOINTS: usize = 9;
/// A query burst follows every this many cycles.
const CYCLES_PER_BURST: usize = 12;
/// Largest partition-F gap allowed between the incremental service and a
/// full re-detection of the same graph after the last cycle.
const MAX_F_GAP: f64 = 0.1;

/// A service over `graph` with the ε staleness tolerance.
fn new_service(config: CdrwConfig, graph: Graph) -> CdrwService {
    let mut service = CdrwService::new(Cdrw::new(config), graph);
    service.set_staleness_tolerance(EPSILON);
    service
}

/// Set-up: edge list to a service that answers queries (build, `new`, first
/// full `refresh()`).
fn setup(inst: &Instance) -> Result<CdrwService, String> {
    let mut service = new_service(inst.config, inst.build()?);
    service.refresh().map_err(|e| e.to_string())?;
    check_served(&service, inst)?;
    Ok(service)
}

fn check_served(service: &CdrwService, inst: &Instance) -> Result<(), String> {
    let partition = service.partition().ok_or("service has no partition")?;
    check_total(partition, inst.num_vertices())
}

/// One churn cycle's measurements.
pub struct Cycle {
    /// The explicit `commit()` (traced runs only).
    pub commit_s: Option<f64>,
    pub refresh_s: f64,
    pub report: RefreshReport,
    /// Edges removed plus edges added.
    pub churned: usize,
    /// Edges of the graph the commit rebuilt.
    pub rebuilt: usize,
}

/// Applies one churn cycle and refreshes. With a tracer the commit runs
/// explicitly in its own span before the refresh.
fn cycle(
    service: &mut CdrwService,
    churn: &mut Churn,
    inst: &Instance,
    tracer: Option<&mut Tracer>,
) -> Result<Cycle, String> {
    let (removed, added) = churn.next_cycle(service.graph());
    for &(u, v) in &removed {
        service.remove_edge(u, v).map_err(|e| e.to_string())?;
    }
    for &(u, v) in &added {
        service.add_edge(u, v).map_err(|e| e.to_string())?;
    }
    let (commit_s, (report, refresh_s)) = match tracer {
        Some(t) => {
            let (committed, commit_s) = t.leaf("service.commit", || service.commit());
            committed.map_err(|e| e.to_string())?;
            (
                Some(commit_s),
                t.leaf("service.refresh", || service.refresh()),
            )
        }
        None => (None, timed(|| service.refresh())),
    };
    let report = report.map_err(|e| e.to_string())?;
    check_served(service, inst)?;
    Ok(Cycle {
        commit_s,
        refresh_s,
        report,
        churned: removed.len() + added.len(),
        rebuilt: service.graph().num_edges(),
    })
}

/// What the workload loop gathered.
struct ChurnRun {
    setup_s: Vec<f64>,
    detect_s: Vec<f64>,
    query_ns: Vec<f64>,
    cycles: Vec<Cycle>,
    partition_f: f64,
}

/// The workload loop: `cycles` churn cycles with a checkpoint at the start,
/// after every `cycles / (CHECKPOINTS − 1)` cycles and after the last one.
/// A checkpoint times one set-up (the first becomes the live service) and
/// one `refresh_full()` of a fresh service over the live graph; the last
/// full refresh is the reference the live partition's F is checked against.
fn churn_run(
    inst: &Instance,
    cycles: usize,
    ledger: &mut Ledger,
    mut tracer: Option<&mut Tracer>,
) -> Result<ChurnRun, String> {
    let mut churn = inst.churn();
    let order = inst.query_order();
    let mut run = ChurnRun {
        setup_s: Vec::new(),
        detect_s: Vec::new(),
        query_ns: Vec::new(),
        cycles: Vec::new(),
        partition_f: 0.0,
    };
    let mut live: Option<CdrwService> = None;
    let mut done = 0;
    for checkpoint in 0..CHECKPOINTS {
        let target = cycles * checkpoint / (CHECKPOINTS - 1);
        while let Some(service) = live.as_mut() {
            if done >= target {
                break;
            }
            done += 1;
            let outcome = cycle(service, &mut churn, inst, tracer.as_deref_mut());
            run.cycles.extend(ledger.record(outcome));
            if done % CYCLES_PER_BURST == 0 {
                run.query_ns
                    .push(query_burst(&order, BURST, |v| service.community_of(v)));
            }
        }

        let (fresh, secs) = match tracer.as_deref_mut() {
            Some(t) => t.leaf("setup", || setup(inst)),
            None => timed(|| setup(inst)),
        };
        run.setup_s.push(secs);
        let fresh = ledger.record(fresh);
        if live.is_none() {
            live = Some(fresh.ok_or("the first service set-up failed")?);
        }
        let service = live.as_ref().expect("the live service was set up");

        let mut reference = new_service(inst.config, service.graph().clone());
        let (full, secs) = match tracer.as_deref_mut() {
            Some(t) => t.leaf("detect", || reference.refresh_full()),
            None => timed(|| reference.refresh_full()),
        };
        run.detect_s.push(secs);
        ledger.record(
            full.map_err(|e| e.to_string())
                .and_then(|_| check_served(&reference, inst)),
        );

        if checkpoint + 1 == CHECKPOINTS {
            let f_of = |s: &CdrwService| {
                s.partition()
                    .map_or(0.0, |p| f_score_weighted(p, &inst.truth).f_score)
            };
            run.partition_f = f_of(service);
            let gap = (run.partition_f - f_of(&reference)).abs();
            ledger.record(if gap <= MAX_F_GAP {
                Ok(())
            } else {
                Err(format!(
                    "incremental F is {gap:.4} away from a full refresh"
                ))
            });
        }
    }
    Ok(run)
}

/// The cycle schedule of a `seconds`-long run.
fn schedule(seconds: f64) -> usize {
    (CYCLES_PER_SECOND * seconds.ceil() as usize).max(MIN_CYCLES)
}

/// The untraced run: every end-to-end metric.
pub fn run(inst: &Instance, seconds: f64, ledger: &mut Ledger) -> Result<Vec<Metric>, String> {
    let run = churn_run(inst, schedule(seconds), ledger, None)?;
    let refresh: Vec<f64> = run.cycles.iter().map(|c| c.refresh_s).collect();
    Ok(vec![
        Metric::new("setup_s", median(&run.setup_s), "s"),
        // A mean, like refresh_s: the checkpoints re-detect different churned
        // graphs, whose full detections differ in work.
        Metric::new("detect_s", mean(&run.detect_s), "s"),
        Metric::new("refresh_s", mean(&refresh), "s"),
        Metric::new("query_ns", mean(&run.query_ns), "ns"),
        Metric::new("partition_f", run.partition_f, "score"),
        Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

/// The traced run's share of the workload: the same schedule with explicit
/// commits and spans. Returns the traced full-detection mean and the cycles.
pub fn traced(
    inst: &Instance,
    seconds: f64,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<(f64, Vec<Cycle>), String> {
    let run = churn_run(inst, schedule(seconds), ledger, Some(tracer))?;
    Ok((mean(&run.detect_s), run.cycles))
}

/// A few churn cycles of a service over the workload's own configuration
/// (the service layer's probe on workloads that do not serve).
pub fn probe_cycles(
    inst: &Instance,
    cycles: usize,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<Vec<Cycle>, String> {
    let mut service = setup(inst)?;
    let mut churn = inst.churn();
    let mut log = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let outcome = cycle(&mut service, &mut churn, inst, Some(&mut *tracer));
        log.extend(ledger.record(outcome));
    }
    Ok(log)
}

/// The service and commit metrics of a traced cycle log.
pub fn cycle_metrics(cycles: &[Cycle]) -> Vec<Metric> {
    let commit: Vec<f64> = cycles.iter().filter_map(|c| c.commit_s).collect();
    let refresh: Vec<f64> = cycles.iter().map(|c| c.refresh_s).collect();
    let sum = |f: fn(&Cycle) -> usize| cycles.iter().map(f).sum::<usize>() as f64;
    let surviving = sum(|c| c.report.surviving);
    let retired = sum(|c| c.report.retired);
    let reseeding = sum(|c| usize::from(c.report.reseeded_groups > 0));
    let full = sum(|c| usize::from(c.report.kind == RefreshKind::Full));
    vec![
        Metric::new("graph.commit_s", median(&commit), "s"),
        Metric::new(
            "graph.commit_useful",
            share(sum(|c| c.churned), sum(|c| c.rebuilt)),
            "ratio",
        ),
        Metric::new("service.redetect_s", mean(&refresh), "s"),
        Metric::new("service.refresh_p90_s", quantile(&refresh, 0.9), "s"),
        Metric::new(
            "service.survival",
            share(surviving, surviving + retired),
            "ratio",
        ),
        Metric::new(
            "service.reseed_cycle_share",
            share(reseeding, cycles.len() as f64),
            "ratio",
        ),
        Metric::new("service.full_fallbacks", full, "count"),
    ]
}
