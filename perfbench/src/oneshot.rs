//! The one-shot workloads: a full detection per operation, sequential
//! (`sbm8-ensemble`) or sharded over two shard threads (`sharded-k2`).

use std::time::{Duration, Instant};

use cdrw_congest::CongestConfig;
use cdrw_core::{Cdrw, DetectionResult};
use cdrw_graph::Graph;
use cdrw_kmachine::{KMachineConfig, KMachineEngine, KMachineRunReport, RandomVertexPartition};
use cdrw_metrics::f_score_weighted;

use crate::inputs::{check_total, Instance, Workload};
use crate::stats::{faster_half_mean, mean, median, peak_rss_mib, quantile, query_burst, timed};
use crate::trace::Tracer;
use crate::{Ledger, Metric};

/// Shard threads of `sharded-k2`.
pub const SHARDS: usize = 2;
/// Timed detections a run takes at least, however long they last.
const MIN_DETECTIONS: usize = 5;
/// Set-up samples taken before each timed detection.
const SETUPS_PER_DETECTION: usize = 3;
/// Minimum length of one query burst.
pub const BURST: Duration = Duration::from_millis(100);

/// A workload's graph made ready for detection.
struct Prepared {
    graph: Graph,
    /// The random vertex partition the sharded engine runs over.
    partition: Option<RandomVertexPartition>,
}

/// Set-up: edge list to ready (the CSR build, plus the vertex partition on
/// `sharded-k2`).
fn prepare(inst: &Instance) -> Result<Prepared, String> {
    let graph = inst.build()?;
    let partition = (inst.workload == Workload::ShardedK2)
        .then(|| RandomVertexPartition::new(&graph, SHARDS, inst.seed));
    Ok(Prepared { graph, partition })
}

/// The k-machine engine for the workload's configuration on `SHARDS`
/// shards.
pub fn sharded_engine(inst: &Instance) -> Result<KMachineEngine, String> {
    KMachineEngine::new(
        KMachineConfig::new(SHARDS)
            .with_congest(CongestConfig::new(inst.config))
            .with_partition_seed(inst.seed),
    )
    .map_err(|e| e.to_string())
}

/// Checks a sharded run against the sequential result: equal under
/// `PartialEq`, measured messages equal to modelled ones, no fault absorbed.
pub fn check_sharded(
    report: &KMachineRunReport,
    sequential: &DetectionResult,
) -> Result<(), String> {
    if report.result != *sequential {
        return Err("sharded result differs from Cdrw::detect_all".into());
    }
    let ledger = &report.conformance;
    if ledger.measured_messages != ledger.modelled_messages {
        return Err(format!(
            "measured messages {} != modelled {}",
            ledger.measured_messages, ledger.modelled_messages
        ));
    }
    if !report.fault_log.is_clean() {
        return Err(format!("fault log not clean: {:?}", report.fault_log));
    }
    Ok(())
}

/// One operation: a full detection on the prepared graph, checked against
/// `reference` (the sequential result).
fn detect(inst: &Instance, prepared: &Prepared, reference: &DetectionResult) -> Result<(), String> {
    let result = match &prepared.partition {
        None => Cdrw::new(inst.config)
            .detect_all(&prepared.graph)
            .map_err(|e| e.to_string())?,
        Some(partition) => {
            let report = sharded_engine(inst)?
                .run_with_partition(&prepared.graph, partition)
                .map_err(|e| e.to_string())?;
            check_sharded(&report, reference)?;
            report.result
        }
    };
    check_total(result.partition(), inst.num_vertices())?;
    if result != *reference {
        return Err("detection differs from the first detection of the run".into());
    }
    Ok(())
}

/// What the shared measurement loop gathered.
struct Samples {
    setup_s: Vec<f64>,
    detect_s: Vec<f64>,
    query_ns: Vec<f64>,
    reference: DetectionResult,
}

/// The measurement loop: a warm-up detection, then rounds of set-up
/// samples, one timed detection and one query burst until `seconds` have
/// passed (and at least `MIN_DETECTIONS` detections ran). With a tracer,
/// every set-up and detection sits in a span.
fn measure(
    inst: &Instance,
    seconds: f64,
    ledger: &mut Ledger,
    mut tracer: Option<&mut Tracer>,
) -> Result<Samples, String> {
    let prepared = prepare(inst)?;
    let reference = Cdrw::new(inst.config)
        .detect_all(&prepared.graph)
        .map_err(|e| format!("reference detection failed: {e}"))?;
    ledger.record(check_total(reference.partition(), inst.num_vertices()));
    // Warm-up: the first timed-path detection, untimed.
    ledger.record(detect(inst, &prepared, &reference));

    let order = inst.query_order();
    let mut samples = Samples {
        setup_s: Vec::new(),
        detect_s: Vec::new(),
        query_ns: Vec::new(),
        reference,
    };
    let start = Instant::now();
    while samples.detect_s.len() < MIN_DETECTIONS || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..SETUPS_PER_DETECTION {
            let (ready, secs) = match tracer.as_deref_mut() {
                Some(t) => t.leaf("setup", || prepare(inst)),
                None => timed(|| prepare(inst)),
            };
            ready?;
            samples.setup_s.push(secs);
        }
        let (outcome, secs) = match tracer.as_deref_mut() {
            Some(t) => t.leaf("detect", || detect(inst, &prepared, &samples.reference)),
            None => timed(|| detect(inst, &prepared, &samples.reference)),
        };
        ledger.record(outcome);
        samples.detect_s.push(secs);
        let partition = samples.reference.partition();
        samples
            .query_ns
            .push(query_burst(&order, BURST, |v| partition.community_of(v)));
    }
    Ok(samples)
}

/// The lower quartile of the detection times: the figure `detect_s` reports.
/// Contention from the shared host only ever adds time to a detection, and
/// it lands on the slower samples.
fn detect_figure(detect_s: &[f64]) -> f64 {
    quantile(detect_s, 0.25)
}

/// The untraced run: every end-to-end metric.
pub fn run(inst: &Instance, seconds: f64, ledger: &mut Ledger) -> Result<Vec<Metric>, String> {
    let samples = measure(inst, seconds, ledger, None)?;
    let f = f_score_weighted(samples.reference.partition(), &inst.truth).f_score;
    Ok(vec![
        Metric::new("setup_s", median(&samples.setup_s), "s"),
        Metric::new("detect_s", detect_figure(&samples.detect_s), "s"),
        Metric::new("refresh_s", faster_half_mean(&samples.detect_s), "s"),
        Metric::new("query_ns", mean(&samples.query_ns), "ns"),
        Metric::new("partition_f", f, "score"),
        Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

/// The traced run's share of the operation: the same loop with every
/// set-up and detection in a span. Returns the traced detection figure (as
/// `detect_s` reads it) and the reference result the layer probes replay.
pub fn traced(
    inst: &Instance,
    seconds: f64,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<(f64, DetectionResult), String> {
    let samples = measure(inst, seconds, ledger, Some(tracer))?;
    Ok((detect_figure(&samples.detect_s), samples.reference))
}
