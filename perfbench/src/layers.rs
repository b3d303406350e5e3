//! Per-layer probes of the traced run. Each probe calls one layer's public
//! functions on the workload's graph and configuration, inside spans, and
//! turns the spans and the layer's own work counts into metrics.

use cdrw_congest::{CongestCdrw, CongestConfig};
use cdrw_core::{
    AssemblyPolicy, Cdrw, CommunityDetection, DetectionResult, EnsemblePolicy, GrowthTracker,
};
use cdrw_graph::{Graph, VertexId};
use cdrw_kmachine::RandomVertexPartition;
use cdrw_walk::evidence::community_scale_vote;
use cdrw_walk::{WalkBatch, WalkEngine};

use crate::inputs::{Instance, ENSEMBLE, POOLED};
use crate::oneshot::{check_sharded, sharded_engine, SHARDS};
use crate::stats::{median, share};
use crate::trace::Tracer;
use crate::{Ledger, Metric};

/// Samples of the cheap set-up steps (CSR build, vertex partition).
const SETUP_SAMPLES: usize = 10;
/// Interleaved pairs of the two sides of a difference or ratio.
const PAIRS: usize = 2;

/// The graph layer's build time.
pub fn graph_build(inst: &Instance, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let mut build_s = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (graph, secs) = tracer.leaf("graph.build", || inst.build());
        graph?;
        build_s.push(secs);
    }
    Ok(vec![Metric::new("graph.build_s", median(&build_s), "s")])
}

/// Sum of the degrees of `support`: the edges one walk step reads.
fn volume(graph: &Graph, support: &[VertexId]) -> usize {
    support.iter().map(|&v| graph.degree(v)).sum()
}

#[derive(Default)]
struct WalkWork {
    step_s: f64,
    step_edges: usize,
    batch_step_s: f64,
    batch_edges: usize,
    sweep_s: f64,
    sweeps: usize,
    lane_steps: usize,
    sizes_checked: usize,
}

/// Replays every base walk of `result` through `WalkEngine::step`/`sweep`
/// and every follow-up walk of `ensembles` through `WalkBatch`/`step_batch`,
/// checking each replay against the recorded trace.
pub fn walk(
    inst: &Instance,
    graph: &Graph,
    result: &DetectionResult,
    ensembles: &[CommunityDetection],
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let config = &inst.config;
    let n = graph.num_vertices();
    let engine = WalkEngine::lazy(graph, config.criterion.laziness());
    let mixing = config.local_mixing_config(n);
    let mut work = WalkWork::default();

    let mut workspace = engine.workspace();
    for detection in result.detections() {
        if graph.degree(detection.seed) == 0 {
            continue;
        }
        workspace
            .load_point_mass(detection.seed)
            .map_err(|e| e.to_string())?;
        let steps = &detection.trace.steps;
        let mut replayed = Ok(());
        for (index, recorded) in steps.iter().enumerate() {
            work.step_edges += volume(graph, workspace.support());
            work.lane_steps += 1;
            let ((), secs) = tracer.leaf("walk.step", || engine.step(&mut workspace));
            work.step_s += secs;
            let (outcome, secs) =
                tracer.leaf("walk.sweep", || engine.sweep(&mut workspace, &mixing));
            let outcome = outcome.map_err(|e| e.to_string())?;
            work.sweep_s += secs;
            work.sweeps += 1;
            work.sizes_checked += outcome.sizes_checked();
            // The last step of a growth-rule stop records the returned set,
            // not the sweep's, so only its size count is comparable.
            let last = index + 1 == steps.len();
            if outcome.sizes_checked() != recorded.sizes_checked
                || (!last && outcome.size() != recorded.mixing_set_size)
            {
                replayed = Err(format!(
                    "base walk of seed {} diverged from its trace at step {}",
                    detection.seed, recorded.walk_length
                ));
            }
        }
        ledger.record(replayed);
    }

    let mut batch = WalkBatch::for_graph(graph);
    for detection in ensembles {
        let Some(ensemble) = &detection.trace.ensemble else {
            continue;
        };
        let walks = &ensemble.walks[1..];
        if walks.is_empty() {
            continue;
        }
        let seeds: Vec<VertexId> = walks.iter().map(|w| w.seed).collect();
        let floor = config.min_stop_size(n).max(ensemble.walks[0].set_size + 1);
        let mut trackers: Vec<GrowthTracker> = seeds
            .iter()
            .map(|_| GrowthTracker::new(floor, detection.trace.delta, Some(n / 2)))
            .collect();
        batch.load_point_masses(&seeds).map_err(|e| e.to_string())?;
        for _ in 0..config.max_walk_length(n) {
            if batch.active_lanes() == 0 {
                break;
            }
            for lane in (0..seeds.len()).filter(|&lane| batch.is_active(lane)) {
                work.batch_edges += volume(graph, batch.lane(lane).support());
                work.lane_steps += 1;
            }
            let ((), secs) = tracer.leaf("walk.step_batch", || engine.step_batch(&mut batch));
            work.batch_step_s += secs;
            for (lane, &seed) in seeds.iter().enumerate() {
                if !batch.is_active(lane) {
                    continue;
                }
                let (outcome, secs) =
                    tracer.leaf("walk.sweep", || engine.sweep(batch.lane_mut(lane), &mixing));
                let outcome = outcome.map_err(|e| e.to_string())?;
                work.sweep_s += secs;
                work.sweeps += 1;
                work.sizes_checked += outcome.sizes_checked();
                if trackers[lane].observe_outcome(graph, seed, outcome, mixing.threshold) {
                    batch.set_active(lane, false);
                }
            }
        }
        for ((tracker, &seed), recorded) in trackers.into_iter().zip(&seeds).zip(walks) {
            let (members, margin, bounded) = tracker.conclude(graph, seed);
            let voted = community_scale_vote(members, margin, bounded, n / 2)
                .map_or(0, |(set, _)| set.len());
            ledger.record(if voted == recorded.set_size {
                Ok(())
            } else {
                Err(format!(
                    "follow-up walk of seed {seed} voted {voted} vertices, trace says {}",
                    recorded.set_size
                ))
            });
        }
    }

    let walk_s = work.step_s + work.batch_step_s + work.sweep_s;
    Ok(vec![
        Metric::new(
            "walk.step_ns_per_edge",
            share(work.step_s * 1e9, work.step_edges as f64),
            "ns/edge",
        ),
        Metric::new(
            "walk.sweep_ns_per_vertex",
            share(work.sweep_s * 1e9, (work.sweeps * n) as f64),
            "ns/vertex",
        ),
        Metric::new("walk.sweep_share", share(work.sweep_s, walk_s), "ratio"),
        Metric::new(
            "walk.batch_step_ns_per_edge",
            share(work.batch_step_s * 1e9, work.batch_edges as f64),
            "ns/edge",
        ),
        Metric::new("walk.lane_steps", work.lane_steps as f64, "count"),
        Metric::new(
            "walk.step_edges",
            (work.step_edges + work.batch_edges) as f64,
            "count",
        ),
        Metric::new("walk.sizes_checked", work.sizes_checked as f64, "count"),
    ])
}

/// Runs `detect_community` over `seeds` under the single-walk and the
/// ensemble configuration. Returns the metrics and the ensemble detections
/// (whose follow-up walks the walk probe replays).
pub fn core(
    inst: &Instance,
    graph: &Graph,
    seeds: &[VertexId],
    tracer: &mut Tracer,
) -> Result<(Vec<Metric>, Vec<CommunityDetection>), String> {
    let assembly = inst.config.assembly;
    let single = Cdrw::new(inst.config_with(EnsemblePolicy::Single, assembly));
    let ensemble = Cdrw::new(inst.config_with(ENSEMBLE, assembly));
    let mut base_s = 0.0;
    let mut ensemble_s = 0.0;
    let mut detections = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let (base, secs) = tracer.leaf("core.detect_community", || {
            single.detect_community(graph, seed)
        });
        base.map_err(|e| e.to_string())?;
        base_s += secs;
        let (detection, secs) = tracer.leaf("core.detect_community", || {
            ensemble.detect_community(graph, seed)
        });
        detections.push(detection.map_err(|e| e.to_string())?);
        ensemble_s += secs;
    }
    let followups: Vec<_> = detections
        .iter()
        .filter_map(|d| d.trace.ensemble.as_ref())
        .flat_map(|e| &e.walks[1..])
        .collect();
    let useful = followups.iter().filter(|w| w.contributed > 0).count();
    let metrics = vec![
        Metric::new("core.base_walks_s", base_s, "s"),
        Metric::new("core.ensemble_s", ensemble_s - base_s, "s"),
        Metric::new("core.followup_walks", followups.len() as f64, "count"),
        Metric::new(
            "core.followup_useful",
            share(useful as f64, followups.len() as f64),
            "ratio",
        ),
    ];
    Ok((metrics, detections))
}

/// Times `detect_all` with pooled against raw assembly on the workload's
/// ensemble policy; both must start from the same seeds.
pub fn assembly(
    inst: &Instance,
    graph: &Graph,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let ensemble = inst.config.ensemble;
    let raw = Cdrw::new(inst.config_with(ensemble, AssemblyPolicy::Raw));
    let pooled = Cdrw::new(inst.config_with(ensemble, POOLED));
    let mut raw_s = Vec::new();
    let mut pooled_s = Vec::new();
    let mut report = None;
    for _ in 0..PAIRS {
        let (plain, secs) = tracer.leaf("core.detect_all", || raw.detect_all(graph));
        let plain = plain.map_err(|e| e.to_string())?;
        raw_s.push(secs);
        let (assembled, secs) = tracer.leaf("assembly.detect_all", || pooled.detect_all(graph));
        let assembled = assembled.map_err(|e| e.to_string())?;
        pooled_s.push(secs);
        ledger.record(if plain.seeds() == assembled.seeds() {
            Ok(())
        } else {
            Err("pooled and raw detect_all walked from different seeds".to_string())
        });
        report = assembled.assembly().cloned();
    }
    let report = report.ok_or("pooled detect_all returned no assembly report")?;
    Ok(vec![
        Metric::new("assembly.s", median(&pooled_s) - median(&raw_s), "s"),
        Metric::new("assembly.reseed_walks", report.reseed_walks as f64, "count"),
        Metric::new(
            "assembly.reseeded_groups",
            report.reseeded_groups as f64,
            "count",
        ),
        Metric::new("assembly.contested", report.contested as f64, "count"),
        Metric::new("assembly.absorbed", report.absorbed as f64, "count"),
    ])
}

/// Times the vertex partition, then the sharded engine against
/// `Cdrw::detect_all` on the same input, and checks the engine's measured
/// flood against the CONGEST runner's model of the same run.
pub fn kmachine(
    inst: &Instance,
    graph: &Graph,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let config = inst.config;
    let mut partition_s = Vec::new();
    let mut partition = None;
    for _ in 0..SETUP_SAMPLES {
        let (built, secs) = tracer.leaf("kmachine.partition", || {
            RandomVertexPartition::new(graph, SHARDS, inst.seed)
        });
        partition_s.push(secs);
        partition = Some(built);
    }
    let partition = partition.expect("at least one partition sample");
    let sequential = Cdrw::new(config);
    let engine = sharded_engine(inst)?;
    let mut sequential_s = Vec::new();
    let mut sharded_s = Vec::new();
    let mut last = None;
    for _ in 0..PAIRS {
        let (result, secs) = tracer.leaf("core.detect_all", || sequential.detect_all(graph));
        let result = result.map_err(|e| e.to_string())?;
        sequential_s.push(secs);
        let (report, secs) = tracer.leaf("kmachine.run", || {
            engine.run_with_partition(graph, &partition)
        });
        let report = report.map_err(|e| e.to_string())?;
        sharded_s.push(secs);
        ledger.record(check_sharded(&report, &result));
        last = Some(report);
    }
    let report = last.expect("at least one sharded run");
    let flood = &report.conformance;

    let (congest, _) = tracer.leaf("congest.detect_all", || {
        CongestCdrw::new(CongestConfig::new(config)).detect_all(graph)
    });
    let congest = congest.map_err(|e| e.to_string())?;
    let floods = congest
        .per_community
        .iter()
        .map(|c| c.flood)
        .chain(congest.assembly.as_ref().map(|a| a.flood));
    let (rounds, messages) = floods.fold((0, 0), |(r, m), f| (r + f.rounds, m + f.messages));
    ledger.record(
        if rounds == flood.lane_rounds && messages == flood.measured_messages {
            Ok(())
        } else {
            Err(format!(
                "CONGEST flood ({rounds} rounds, {messages} messages) != measured ({} lane rounds, {} messages)",
                flood.lane_rounds, flood.measured_messages
            ))
        },
    );

    let sharded = median(&sharded_s);
    let sequential = median(&sequential_s);
    Ok(vec![
        Metric::new("kmachine.partition_s", median(&partition_s), "s"),
        Metric::new("kmachine.sequential_s", sequential, "s"),
        Metric::new("kmachine.overhead_x", share(sharded, sequential), "x"),
        Metric::new(
            "kmachine.ns_per_message",
            share(sharded * 1e9, flood.measured_messages as f64),
            "ns/message",
        ),
        Metric::new(
            "kmachine.physical_rounds",
            flood.physical_rounds as f64,
            "count",
        ),
        Metric::new("kmachine.lane_rounds", flood.lane_rounds as f64, "count"),
        Metric::new("kmachine.messages", flood.measured_messages as f64, "count"),
    ])
}
