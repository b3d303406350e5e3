//! Experiment driver: regenerates every figure/table of the paper as text
//! tables on stdout.
//!
//! ```text
//! experiments [--full | --huge] [--criterion NAME] [--ensemble WALKS[:QUORUM]]
//!             [--assembly raw|reconcile|RESEED[:QUORUM]] [--kmachine K] [--json PATH]
//!             [--dataset PATH] [--fault-plan JSON]
//!             [fig1|fig2|fig2-smoke|fig3|fig4a|fig4b|congest|kmachine-exec|baselines|ablations|dcsbm|weighted|churn|chaos|all]
//! ```
//!
//! Without arguments it runs everything at quick scale. `--full` switches to
//! the full sizes (Figure 2 up to `n = 2¹⁴`; minutes instead of seconds);
//! the output of a `--full` run is recorded in `EXPERIMENTS.md`. `--huge`
//! switches to the million-vertex tier (Figure 2 up to `n = 2²⁰`, PPM blocks
//! of `2¹⁸`, one trial per point) where every experiment runs under a
//! wall-clock budget and tables cut short by it are marked truncated.
//! `fig2-smoke` — the single pinned Figure-2 cell at `n = 2¹⁷` CI's
//! perf-smoke job times — must be selected explicitly; it is not part of
//! `all`. So must `churn` — the streaming-service bench (sustained edge
//! churn plus query load, incremental vs full refresh on an 8-block PPM),
//! whose value column is wall-clock and which CI's perf-smoke job gates
//! alongside the smoke cells. `chaos` — the fault-tolerant sharded runtime
//! under seeded fault plans, checked cell by cell against the sequential
//! oracle — is explicit-only for the same reason; `--kmachine K` pins its
//! shard sweep and `--fault-plan JSON` replaces its plan matrix with one
//! explicit plan (the repro path a failing cell prints).
//! `--criterion` selects the mixing criterion every CDRW run uses (`strict`,
//! `lazy`, `lazy:<α>`, `renormalized`, `adaptive`); the default is the
//! library default, `renormalized`. `--ensemble` turns on multi-seed
//! evidence aggregation with the given walk count and vote quorum
//! (`--ensemble 5:2`; the quorum defaults to `max(1, walks / 2)` when
//! omitted); the default is single-walk. `--assembly` selects the global
//! assembly policy: `raw` (first claim wins, the default), `reconcile`
//! (cross-detection evidence pooling without re-seed walks) or
//! `RESEED[:QUORUM]` for pooling plus that many cross-detection re-seed
//! walks per merged group (`--assembly 4:3`; the quorum defaults to
//! `max(1, ⌈reseed/2⌉)`). The `ablations` experiment always compares all
//! criteria, ensemble policies and assembly policies head-to-head regardless
//! of the flags. `kmachine-exec` is the §III-B table: it runs the pipeline
//! on the sharded k-machine engine (worker threads exchanging one walk share
//! per source and remote shard, each receiver expanding the shares over its
//! own rows) and records measured-vs-modelled message counts — the messages
//! counted at the receivers, one per edge contribution applied — next to
//! the share entries that crossed between shards, and the measured link
//! rounds next to the Conversion-Theorem bound and the paper's closed form;
//! `--kmachine K` pins its shard count to a single `K` instead of the
//! default `{1, 2, 4, 8}` sweep.
//! `dcsbm` (alias `--dcsbm`) scores CDRW with ensemble + assembly against
//! all four baselines on degree-corrected SBM instances of growing
//! propensity spread, and `weighted` (alias `--weighted`) does the same on
//! weighted PPM instances of growing intra/inter weight contrast; both are
//! part of `all`, and both upgrade a default single-walk/raw variant to
//! ensemble(5/2) + assembly(4/3). `--dataset PATH` reads a real graph file
//! (METIS when the extension is `.graph`/`.metis`, whitespace edge list
//! with an optional weight column otherwise) and runs the full stack on it
//! end to end, reporting graph shape and detection structure with `δ`
//! estimated by the sweep.
//!
//! `--json PATH` additionally writes the whole run as machine-readable JSON
//! (per-point F / partition-F values, congest round/message costs, per-table
//! wall-clock milliseconds and budget verdicts, the worker-thread count, and
//! the unweighted-step micro-perf reading) — CI uploads it as
//! `BENCH_results.json` so the perf trajectory is recorded run over run, and
//! the `perf_gate` binary diffs the wall-clocks against the committed
//! baselines under `ci/baselines/`.

use std::time::Instant;

use cdrw_bench::experiments::{
    ablations, baselines, chaos, churn, dataset, distributed, gnp_single, heterogeneous, showcase,
    two_blocks, vary_r,
};
use cdrw_bench::json::Json;
use cdrw_bench::{perf, FigureResult, RunOptions, Scale};
use cdrw_core::{AssemblyPolicy, EnsemblePolicy, MixingCriterion};
use cdrw_kmachine::FaultPlan;

const BASE_SEED: u64 = 20190416; // the paper's arXiv submission date, for flavour

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let huge = args.iter().any(|a| a == "--huge");
    if full && huge {
        eprintln!("--full and --huge are mutually exclusive");
        std::process::exit(2);
    }
    let scale = if huge {
        Scale::Huge
    } else if full {
        Scale::Full
    } else {
        Scale::Quick
    };
    let criterion = match parse_criterion(&args) {
        Ok(criterion) => criterion,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let ensemble = match parse_ensemble(&args) {
        Ok(ensemble) => ensemble,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let assembly = match parse_assembly(&args) {
        Ok(assembly) => assembly,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let json_path = match parse_json_path(&args) {
        Ok(path) => path,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let kmachine_k = match parse_kmachine(&args) {
        Ok(k) => k,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let fault_plan = match parse_fault_plan(&args) {
        Ok(plan) => plan,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let options = RunOptions {
        criterion,
        ensemble,
        assembly,
    };
    let dataset_path = match parse_dataset_path(&args) {
        Ok(path) => path,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let mut selected: Vec<&str> = args
        .iter()
        .enumerate()
        // Skip flags and the value following a value-taking flag.
        .filter(|(i, a)| {
            !a.starts_with("--")
                && (*i == 0
                    || (args[i - 1] != "--criterion"
                        && args[i - 1] != "--ensemble"
                        && args[i - 1] != "--assembly"
                        && args[i - 1] != "--kmachine"
                        && args[i - 1] != "--json"
                        && args[i - 1] != "--dataset"
                        && args[i - 1] != "--fault-plan"))
        })
        .map(|(_, a)| a.as_str())
        .collect();
    // The heterogeneous tables double as flags: `--dcsbm` / `--weighted`
    // select them exactly like the positional spellings do.
    for (flag, name) in [("--dcsbm", "dcsbm"), ("--weighted", "weighted")] {
        if args.iter().any(|a| a == flag) && !selected.contains(&name) {
            selected.push(name);
        }
    }
    let run_all = (selected.is_empty() && dataset_path.is_none()) || selected.contains(&"all");
    let wants = |name: &str| run_all || selected.contains(&name);

    println!(
        "CDRW reproduction experiments ({} scale, {options} variant)\n",
        scale_name(scale)
    );

    // Each experiment's table plus its wall-clock, for the JSON record.
    let mut recorded: Vec<(&'static str, FigureResult, f64)> = Vec::new();
    let mut run = |name: &'static str, figure: fn(Scale, u64, RunOptions) -> FigureResult| {
        let started = Instant::now();
        let result = figure(scale, BASE_SEED, options);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        println!("{}", result.to_table());
        recorded.push((name, result, elapsed_ms));
    };

    if wants("fig1") {
        run("fig1", |_, seed, options| showcase::figure1(seed, options));
    }
    if wants("fig2") {
        run("fig2", gnp_single::figure2);
    }
    // The pinned CI smoke cell runs only when selected by name: it is a
    // timing probe, not one of the paper's figures.
    if selected.contains(&"fig2-smoke") {
        run("fig2-smoke", |_, seed, options| {
            gnp_single::figure2_smoke(seed, options)
        });
    }
    // The churn service bench also runs only when selected by name: its
    // value column is wall-clock, so it belongs to the perf trajectory, not
    // to the paper's figures.
    if selected.contains(&"churn") {
        run("churn", churn::churn_service);
    }
    if wants("fig3") {
        run("fig3", two_blocks::figure3);
    }
    if wants("fig4a") {
        run("fig4a", |scale, seed, options| {
            vary_r::figure4(vary_r::Figure4Variant::FixedBlockSize, scale, seed, options)
        });
    }
    if wants("fig4b") {
        run("fig4b", |scale, seed, options| {
            vary_r::figure4(vary_r::Figure4Variant::FixedGraphSize, scale, seed, options)
        });
    }
    if wants("congest") {
        run("congest", distributed::congest_scaling);
    }
    if wants("baselines") {
        run("baselines", baselines::baseline_comparison);
    }
    if wants("ablations") {
        run("ablations", |scale, seed, _| {
            ablations::ablations(scale, seed)
        });
    }
    if wants("dcsbm") {
        run("dcsbm", heterogeneous::dcsbm_comparison);
    }
    if wants("weighted") {
        run("weighted", heterogeneous::weighted_ppm_comparison);
    }
    if let Some(path) = &dataset_path {
        // Runs outside the `run` closure: a dataset has no scale axis and
        // can fail on unreadable or malformed files.
        let started = Instant::now();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("failed to read dataset {path}: {error}");
                std::process::exit(2);
            }
        };
        let format = dataset::detect_format(path);
        let outcome = dataset::parse_dataset(&text, format)
            .and_then(|graph| dataset::dataset_table(path, &graph, options));
        match outcome {
            Ok(result) => {
                let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                println!("{}", result.to_table());
                recorded.push(("dataset", result, elapsed_ms));
            }
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }
    // The chaos resilience bench also runs only when selected by name (its
    // value column is wall-clock), and outside the `run` closure: the shard
    // and fault-plan overrides are not part of the common signature.
    if selected.contains(&"chaos") {
        let started = Instant::now();
        let result =
            chaos::chaos_resilience(scale, BASE_SEED, options, kmachine_k, fault_plan.as_ref());
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        println!("{}", result.to_table());
        recorded.push(("chaos", result, elapsed_ms));
    }
    if wants("kmachine-exec") {
        // Runs outside the `run` closure: the shard-count override is not
        // part of the common experiment signature.
        let started = Instant::now();
        let result = distributed::kmachine_execution(scale, BASE_SEED, options, kmachine_k);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        println!("{}", result.to_table());
        recorded.push(("kmachine-exec", result, elapsed_ms));
    }

    if recorded.is_empty() {
        eprintln!(
            "unknown experiment selection {selected:?}; expected one of \
             fig1, fig2, fig2-smoke, fig3, fig4a, fig4b, congest, \
             kmachine-exec, baselines, ablations, dcsbm, weighted, churn, \
             chaos, all (or --dataset PATH)"
        );
        std::process::exit(2);
    }

    if let Some(path) = json_path {
        let document = json_document(scale, &options, &recorded);
        if let Err(error) = std::fs::write(&path, document.render()) {
            eprintln!("failed to write {path}: {error}");
            std::process::exit(1);
        }
        println!("wrote machine-readable results to {path}");
    }
}

/// The scale's name as printed in the banner and recorded in the JSON.
fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
        Scale::Huge => "huge",
    }
}

/// Assembles the `BENCH_results.json` document: run metadata (including the
/// worker-thread count the parallel driver used), every experiment's points
/// (value plus extras — partition F for the accuracy figures,
/// rounds/messages for the congest tables) with wall-clock milliseconds and
/// the per-table budget verdict, and the unweighted-step micro-perf reading.
fn json_document(
    scale: Scale,
    options: &RunOptions,
    recorded: &[(&'static str, FigureResult, f64)],
) -> Json {
    let budget_ms = scale.budget().map(|b| b.as_secs_f64() * 1e3);
    let figures: Vec<Json> = recorded
        .iter()
        .map(|(name, figure, elapsed_ms)| {
            let points: Vec<Json> = figure
                .points
                .iter()
                .map(|point| {
                    let mut extras = Json::object();
                    for (key, value) in &point.extras {
                        extras = extras.set(key, *value);
                    }
                    Json::object()
                        .set("series", point.series.as_str())
                        .set("x", point.x_label.as_str())
                        .set("value", point.value)
                        .set("extras", extras)
                })
                .collect();
            Json::object()
                .set("name", *name)
                .set("title", figure.title.as_str())
                .set("value_name", figure.value_name.as_str())
                .set("wall_clock_ms", *elapsed_ms)
                .set(
                    "budget_ms",
                    budget_ms.map(Json::Number).unwrap_or(Json::Null),
                )
                .set(
                    "within_budget",
                    budget_ms.map(|b| *elapsed_ms <= b).unwrap_or(true),
                )
                .set("truncated", figure.truncated)
                .set("points", points)
        })
        .collect();
    let step = perf::measure_step_overhead();
    let threads_used = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    Json::object()
        .set("scale", scale_name(scale))
        .set("variant", options.label())
        .set("base_seed", BASE_SEED)
        .set("threads_used", threads_used)
        .set("figures", figures)
        .set(
            "perf",
            Json::object().set(
                "unweighted_step",
                Json::object()
                    .set("n", step.n)
                    .set("support", step.support)
                    .set("step_ns", step.step_ns)
                    .set("reference_ns", step.reference_ns)
                    .set("ratio", step.ratio()),
            ),
        )
}

/// Parses `--json PATH` or `--json=PATH` from the raw arguments.
fn parse_json_path(args: &[String]) -> Result<Option<String>, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--json=") {
            inline
        } else if arg == "--json" {
            args.get(i + 1)
                .ok_or("--json needs a file path (e.g. --json BENCH_results.json)")?
        } else {
            continue;
        };
        if value.is_empty() {
            return Err("--json needs a non-empty file path".to_string());
        }
        return Ok(Some(value.to_string()));
    }
    Ok(None)
}

/// Parses `--dataset PATH` or `--dataset=PATH`: a graph file to run the full
/// stack on end to end.
fn parse_dataset_path(args: &[String]) -> Result<Option<String>, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--dataset=") {
            inline
        } else if arg == "--dataset" {
            args.get(i + 1)
                .ok_or("--dataset needs a file path (e.g. --dataset karate.graph)")?
        } else {
            continue;
        };
        if value.is_empty() {
            return Err("--dataset needs a non-empty file path".to_string());
        }
        return Ok(Some(value.to_string()));
    }
    Ok(None)
}

/// Parses `--fault-plan JSON` or `--fault-plan=JSON`: the single-plan
/// override for the `chaos` experiment, in the format printed by a failing
/// cell's repro line (`experiments::chaos::plan_to_line`).
fn parse_fault_plan(args: &[String]) -> Result<Option<FaultPlan>, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--fault-plan=") {
            inline
        } else if arg == "--fault-plan" {
            args.get(i + 1)
                .ok_or("--fault-plan needs a JSON plan (e.g. --fault-plan '{\"seed\": 7}')")?
        } else {
            continue;
        };
        let json = Json::parse(value).map_err(|e| format!("invalid --fault-plan JSON: {e}"))?;
        let plan =
            chaos::plan_from_json(&json).map_err(|e| format!("invalid --fault-plan: {e}"))?;
        return Ok(Some(plan));
    }
    Ok(None)
}

/// Parses `--kmachine K` or `--kmachine=K`: the shard-count override for the
/// `kmachine-exec` execution-engine experiment.
fn parse_kmachine(args: &[String]) -> Result<Option<usize>, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--kmachine=") {
            inline
        } else if arg == "--kmachine" {
            args.get(i + 1)
                .ok_or("--kmachine needs a shard count (e.g. --kmachine 4)")?
        } else {
            continue;
        };
        let k: usize = value
            .parse()
            .map_err(|_| format!("invalid shard count {value:?}"))?;
        if k == 0 {
            return Err("--kmachine needs k ≥ 1".to_string());
        }
        return Ok(Some(k));
    }
    Ok(None)
}

/// Parses `--criterion NAME` or `--criterion=NAME` from the raw arguments.
fn parse_criterion(args: &[String]) -> Result<MixingCriterion, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--criterion=") {
            inline
        } else if arg == "--criterion" {
            args.get(i + 1).ok_or(
                "--criterion needs a value (strict, lazy, lazy:<α>, renormalized, adaptive)",
            )?
        } else {
            continue;
        };
        return value.parse();
    }
    Ok(MixingCriterion::default())
}

/// Parses `--ensemble WALKS[:QUORUM]` or `--ensemble=WALKS[:QUORUM]`. The
/// quorum defaults to `max(1, walks / 2)` when omitted.
fn parse_ensemble(args: &[String]) -> Result<EnsemblePolicy, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--ensemble=") {
            inline
        } else if arg == "--ensemble" {
            args.get(i + 1)
                .ok_or("--ensemble needs a value (WALKS or WALKS:QUORUM, e.g. 5:2)")?
        } else {
            continue;
        };
        let (walks_str, quorum_str) = match value.split_once(':') {
            Some((w, q)) => (w, Some(q)),
            None => (value, None),
        };
        let walks: usize = walks_str
            .parse()
            .map_err(|_| format!("invalid ensemble walk count {walks_str:?}"))?;
        let quorum: usize = match quorum_str {
            Some(q) => q
                .parse()
                .map_err(|_| format!("invalid ensemble quorum {q:?}"))?,
            None => (walks / 2).max(1),
        };
        if walks == 0 || quorum == 0 || quorum > walks {
            return Err(format!(
                "ensemble needs walks ≥ 1 and 1 ≤ quorum ≤ walks, got {walks}:{quorum}"
            ));
        }
        return Ok(if walks == 1 {
            EnsemblePolicy::Single
        } else {
            EnsemblePolicy::Ensemble { walks, quorum }
        });
    }
    Ok(EnsemblePolicy::Single)
}

/// Parses `--assembly raw|reconcile|RESEED[:QUORUM]` (or the `=` form). The
/// quorum defaults to `max(1, ⌈reseed/2⌉)` when omitted.
fn parse_assembly(args: &[String]) -> Result<AssemblyPolicy, String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if let Some(inline) = arg.strip_prefix("--assembly=") {
            inline
        } else if arg == "--assembly" {
            args.get(i + 1)
                .ok_or("--assembly needs a value (raw, reconcile, RESEED or RESEED:QUORUM)")?
        } else {
            continue;
        };
        return match value {
            "raw" => Ok(AssemblyPolicy::Raw),
            "reconcile" => Ok(AssemblyPolicy::reconcile_only()),
            _ => {
                let (reseed_str, quorum_str) = match value.split_once(':') {
                    Some((r, q)) => (r, Some(q)),
                    None => (value, None),
                };
                let reseed: usize = reseed_str
                    .parse()
                    .map_err(|_| format!("invalid assembly re-seed count {reseed_str:?}"))?;
                let quorum: usize = match quorum_str {
                    Some(q) => q
                        .parse()
                        .map_err(|_| format!("invalid assembly quorum {q:?}"))?,
                    None if reseed == 0 => 0,
                    None => reseed.div_ceil(2).max(1),
                };
                if reseed == 0 {
                    // Zero re-seed walks is reconcile-only; a non-zero quorum
                    // with no walks to satisfy it is a contradiction, same as
                    // the builder validation.
                    return if quorum == 0 {
                        Ok(AssemblyPolicy::reconcile_only())
                    } else {
                        Err(format!(
                            "assembly with 0 re-seed walks takes quorum 0, got 0:{quorum}"
                        ))
                    };
                }
                if quorum == 0 || quorum > reseed {
                    return Err(format!(
                        "assembly needs 1 ≤ quorum ≤ reseed, got {reseed}:{quorum}"
                    ));
                }
                Ok(AssemblyPolicy::Pooled { reseed, quorum })
            }
        };
    }
    Ok(AssemblyPolicy::Raw)
}
