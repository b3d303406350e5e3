//! End-to-end and per-layer benchmark of the CDRW workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sbm8-ensemble|service-churn|sharded-k2 \
//!     [--seed N] [--seconds S] [--trace 0|1] [--instance N]
//! ```
//!
//! `--instance` fixes the graph, the detector seed and the churn schedule;
//! `--seed` drives the query order and the vertex-to-shard partition.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the layer
//! probes inside spans, prints the per-layer metrics and writes the spans to
//! `.bench_trace/<workload>-<instance>-<seed>.jsonl`. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metrics.

mod inputs;
mod layers;
mod oneshot;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use cdrw_core::Cdrw;

use inputs::{Instance, Workload};
use trace::Tracer;

/// The default instance and run seed; a held-out instance for confirming a
/// claim is named in the README.
const DEFAULT_SEED: u64 = 20_190_416;
/// Service churn cycles the traced run runs on workloads that do not serve.
const PROBE_CYCLES: usize = 5;
/// Directory of the traced runs' JSONL files.
const TRACE_DIR: &str = ".bench_trace";

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Operations attempted and failed: a detection, refresh or sharded run, or
/// a check of one, fails when it returns an error or its check does not
/// hold.
#[derive(Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Counts one operation; returns its value when it succeeded.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(reason) => {
                self.failed += 1;
                eprintln!("failed: {reason}");
                None
            }
        }
    }
}

/// A finite number in JSON, with all its digits; `null` otherwise.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

struct Args {
    workload: Workload,
    instance: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut instance = DEFAULT_SEED;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; expected one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?);
            }
            "--instance" => instance = value()?.parse().map_err(|e| format!("--instance: {e}"))?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        instance,
        seed,
        seconds,
        trace,
    })
}

/// The traced run: the workload's own operation in spans, then one probe per
/// layer on the workload's graph and configuration.
fn traced(inst: &Instance, seconds: f64, ledger: &mut Ledger) -> Result<Vec<Metric>, String> {
    let mut tracer = Tracer::new();
    let mut metrics = tracer.scope("graph", |t| layers::graph_build(inst, t))?;
    let graph = inst.build()?;
    let (detect_s, result, cycles) = match inst.workload {
        Workload::ServiceChurn => {
            let (detect_s, cycles) =
                tracer.scope("workload", |t| service::traced(inst, seconds, ledger, t))?;
            let result = Cdrw::new(inst.config)
                .detect_all(&graph)
                .map_err(|e| e.to_string())?;
            (detect_s, result, cycles)
        }
        Workload::Sbm8Ensemble | Workload::ShardedK2 => {
            let (detect_s, result) =
                tracer.scope("workload", |t| oneshot::traced(inst, seconds, ledger, t))?;
            let cycles = tracer.scope("service", |t| {
                service::probe_cycles(inst, PROBE_CYCLES, ledger, t)
            })?;
            (detect_s, result, cycles)
        }
    };
    metrics.extend(service::cycle_metrics(&cycles));
    let (core, ensembles) =
        tracer.scope("core", |t| layers::core(inst, &graph, &result.seeds(), t))?;
    metrics.extend(tracer.scope("walk", |t| {
        layers::walk(inst, &graph, &result, &ensembles, ledger, t)
    })?);
    metrics.extend(core);
    metrics.extend(tracer.scope("assembly", |t| layers::assembly(inst, &graph, ledger, t))?);
    metrics.extend(tracer.scope("kmachine", |t| layers::kmachine(inst, &graph, ledger, t))?);
    metrics.push(Metric::new("trace.detect_s", detect_s, "s"));

    let name = format!(
        "{}-{}-{}.jsonl",
        inst.workload.name(),
        inst.instance,
        inst.seed
    );
    let path = PathBuf::from(TRACE_DIR).join(name);
    let header = format!(
        "{{\"type\":\"run\",\"workload\":\"{}\",\"instance\":{},\"seed\":{},\"seconds\":{}}}",
        inst.workload.name(),
        inst.instance,
        inst.seed,
        json_number(seconds)
    );
    tracer.write_jsonl(&path, &header, &metrics)?;
    eprintln!("trace written to {}", path.display());
    Ok(metrics)
}

fn run(args: &Args) -> Result<(Vec<Metric>, Ledger), String> {
    let inst = Instance::generate(args.workload, args.instance, args.seed)?;
    let mut ledger = Ledger::default();
    let metrics = match (args.trace, args.workload) {
        (true, _) => traced(&inst, args.seconds, &mut ledger)?,
        (false, Workload::ServiceChurn) => service::run(&inst, args.seconds, &mut ledger)?,
        (false, Workload::Sbm8Ensemble | Workload::ShardedK2) => {
            oneshot::run(&inst, args.seconds, &mut ledger)?
        }
    };
    Ok((metrics, ledger))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("error: {reason}");
            return ExitCode::from(2);
        }
    };
    let (metrics, ledger) = match run(&args) {
        Ok(outcome) => outcome,
        Err(reason) => {
            eprintln!("error: {reason}");
            return ExitCode::FAILURE;
        }
    };
    for metric in &metrics {
        eprintln!(
            "{:<30} {:>16} {}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    eprintln!(
        "error_rate {} ({} of {} operations failed)",
        stats::share(ledger.failed as f64, ledger.attempted as f64),
        ledger.failed,
        ledger.attempted
    );
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0 && finite && ledger.attempted > 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
