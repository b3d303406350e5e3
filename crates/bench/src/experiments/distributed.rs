//! Theorem 5/6 and §III-B: CONGEST and k-machine complexity measurements.

use cdrw_congest::{CongestCdrw, CongestConfig};
use cdrw_core::CdrwConfig;
use cdrw_gen::{generate_ppm, PpmParams};
use cdrw_kmachine::{
    conversion_rounds, link_rounds, paper_round_bound, ConversionInput, KMachineConfig,
    KMachineEngine,
};

use crate::{BudgetClock, DataPoint, FigureResult, RunOptions, Scale};

/// Parameters of the PPM family used by the distributed-complexity
/// experiments: `r = 2`, `p = 12·ln n/n`, `q = p/40` — comfortably inside the
/// Theorem 6 recovery regime so the measured costs correspond to correct
/// detections.
fn complexity_ppm(n: usize) -> PpmParams {
    let p = (12.0 * (n as f64).ln() / n as f64).min(1.0);
    let q = (p / 40.0).min(1.0);
    PpmParams::new(n, 2, p, q).expect("two blocks divide every even n")
}

fn sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![128, 256, 512],
        Scale::Full => vec![128, 256, 512, 1024, 2048],
        // The CONGEST runner's accounting scans every edge of the graph per
        // walk step, so the Huge tier extends the curve rather than chasing
        // 2²⁰ here; the million-vertex points belong to Figure 2.
        Scale::Huge => vec![1024, 2048, 4096, 8192],
    }
}

/// Reproduces the Theorem 5/6 complexity claims: rounds and messages per
/// detected community as `n` grows, next to the theoretical `log⁴ n` and
/// `m = n²(p + q(r−1))/r` reference curves (up to constants).
pub fn congest_scaling(scale: Scale, base_seed: u64, options: RunOptions) -> FigureResult {
    let mut figure = FigureResult::new(
        format!(
            "Theorem 5/6: CONGEST rounds and messages per community vs n \
             (variant = {options})"
        ),
        "rounds/community",
    );
    let clock = BudgetClock::for_scale(scale);
    for n in sizes(scale) {
        if clock.expired() {
            figure.mark_truncated();
            break;
        }
        let params = complexity_ppm(n);
        let (graph, _) = generate_ppm(&params, base_seed).expect("validated parameters");
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let algorithm = CdrwConfig::builder()
            .seed(base_seed)
            .delta(delta)
            .criterion(options.criterion)
            .ensemble_policy(options.ensemble)
            .assembly_policy(options.assembly)
            .build();
        let report = CongestCdrw::new(CongestConfig::new(algorithm))
            .detect_all(&graph)
            .expect("non-degenerate graph");
        let ln_n = (n as f64).ln();
        let theory_rounds = ln_n.powi(4);
        // Theorem 5's expected message count per community:
        // n²/r · (p + q(r−1)), i.e. the number of edges touched by the walk.
        let theory_messages =
            (n as f64).powi(2) / params.r as f64 * (params.p + params.q * (params.r as f64 - 1.0));
        figure.push(
            DataPoint::new(
                "measured",
                format!("n = {n}"),
                report.rounds_per_community(),
            )
            .with_extra("messages/community", report.messages_per_community())
            .with_extra("log^4 n (theory shape)", theory_rounds)
            .with_extra("m per community (theory shape)", theory_messages)
            .with_extra("communities", report.per_community.len() as f64)
            .with_extra("edges", graph.num_edges() as f64),
        );
    }
    figure
}

/// The §III-B table: runs the full pipeline on the k-machine engine over `k`
/// worker shards and reports the *measured* flood message counts next to
/// the exact-delta model's prediction — the two must agree exactly (the
/// engine's conformance contract), so this table doubles as a standing
/// end-to-end check of the sharded execution. Next to them it reports the
/// share entries that crossed between shards (one per source and remote
/// shard homing a neighbour, per walk step, where the messages count one
/// per edge) and the round complexity three ways: the measured link
/// rounds ([`link_rounds`]), the Conversion Theorem over one CONGEST run of
/// the same configuration ([`conversion_rounds`]), and the paper's closed
/// form ([`paper_round_bound`]).
///
/// `k_override` (the CLI's `--kmachine K`) pins a single shard count;
/// otherwise the table sweeps `k ∈ {1, 2, 4, 8}`.
pub fn kmachine_execution(
    scale: Scale,
    base_seed: u64,
    options: RunOptions,
    k_override: Option<usize>,
) -> FigureResult {
    let n = match scale {
        Scale::Quick => 128,
        Scale::Full => 256,
        // The coordinator gathers every lane's full support per round, so
        // the Huge tier stays moderate; scale lives in Figure 2.
        Scale::Huge => 512,
    };
    let params = complexity_ppm(n);
    let (graph, _) = generate_ppm(&params, base_seed).expect("validated parameters");
    let delta = params.expected_block_conductance().clamp(0.01, 1.0);
    let algorithm = CdrwConfig::builder()
        .seed(base_seed)
        .delta(delta)
        .criterion(options.criterion)
        .ensemble_policy(options.ensemble)
        .assembly_policy(options.assembly)
        .build();

    let congest = CongestConfig::new(algorithm);
    // The Conversion Theorem prices one CONGEST run of the same
    // configuration; only `k` varies across the rows.
    let congest_total = CongestCdrw::new(congest)
        .detect_all(&graph)
        .expect("non-degenerate graph")
        .total;

    let ks: Vec<usize> = match k_override {
        Some(k) => vec![k],
        None => vec![1, 2, 4, 8],
    };
    let mut figure = FigureResult::new(
        format!(
            "k-machine execution engine: measured flood messages vs the \
             exact-delta model, measured link rounds vs the §III-B bounds \
             (n = {n}, r = 2, variant = {options})"
        ),
        "measured messages",
    );
    for k in ks {
        let config = KMachineConfig::new(k)
            .with_congest(congest)
            .with_partition_seed(base_seed);
        let report = KMachineEngine::new(config)
            .expect("k >= 1")
            .run(&graph)
            .expect("non-degenerate graph");
        let ledger = &report.conformance;
        let conversion = conversion_rounds(&ConversionInput {
            messages: congest_total.messages,
            rounds: congest_total.rounds,
            max_degree: graph.max_degree() as u64,
            num_machines: k,
        });
        figure.push(
            DataPoint::new(
                "measured",
                format!("k = {k}"),
                ledger.measured_messages as f64,
            )
            .with_extra("modelled messages", ledger.modelled_messages as f64)
            .with_extra("wire entries", ledger.wire_entries as f64)
            .with_extra("physical rounds", ledger.physical_rounds as f64)
            .with_extra("lane rounds", ledger.lane_rounds as f64)
            .with_extra("link rounds", link_rounds(&ledger.per_round) as f64)
            .with_extra("conversion rounds", conversion)
            .with_extra(
                "paper closed form",
                paper_round_bound(n, params.r, params.p, params.q, k),
            )
            .with_extra("communities", report.result.detections().len() as f64)
            .with_extra("max vertices/shard", report.partition.max_vertices as f64)
            .with_extra("cross edges", report.partition.cross_edges as f64),
        );
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congest_scaling_grows_slower_than_n() {
        let figure = congest_scaling(Scale::Quick, 3, crate::RunOptions::default());
        let measured = figure.series_values("measured");
        assert_eq!(measured.len(), 3);
        // n quadruples from 128 to 512; polylog rounds must grow far slower.
        let growth = measured[2] / measured[0];
        assert!(
            growth < 4.0,
            "rounds grew by {growth}× over a 4× size increase"
        );
    }

    #[test]
    fn kmachine_execution_measures_exactly_what_the_model_predicts() {
        let figure = kmachine_execution(Scale::Quick, 3, crate::RunOptions::default(), None);
        let measured = figure.series_values("measured");
        assert_eq!(measured.len(), 4);
        for point in &figure.points {
            let modelled = point.extras.iter().find(|(k, _)| k == "modelled messages");
            assert_eq!(point.value, modelled.unwrap().1, "{}", point.x_label);
            assert!(point.value > 0.0);
            // One share entry per (source, remote shard): none on a single
            // shard, never more than the edge messages it stands for.
            let wire = point.extras.iter().find(|(k, _)| k == "wire entries");
            let wire = wire.unwrap().1;
            assert!(wire <= point.value, "{}", point.x_label);
            assert_eq!(wire == 0.0, point.x_label == "k = 1", "{}", point.x_label);
        }
        // Every shard count runs the same walks, so the flood is identical.
        assert!(measured.windows(2).all(|w| w[0] == w[1]), "{measured:?}");
    }

    #[test]
    fn kmachine_execution_honours_the_k_override() {
        let figure = kmachine_execution(Scale::Quick, 3, crate::RunOptions::default(), Some(3));
        assert_eq!(figure.points.len(), 1);
        assert_eq!(figure.points[0].x_label, "k = 3");
    }

    #[test]
    fn kmachine_execution_prices_link_rounds_next_to_both_bounds() {
        let figure = kmachine_execution(Scale::Quick, 3, crate::RunOptions::default(), None);
        for point in &figure.points {
            let extra = |name: &str| {
                let found = point.extras.iter().find(|(k, _)| k == name);
                found
                    .unwrap_or_else(|| panic!("{}: no {name}", point.x_label))
                    .1
            };
            // One machine has no link to load.
            let link = extra("link rounds");
            assert_eq!(link == 0.0, point.x_label == "k = 1", "{}", point.x_label);
            assert!(extra("conversion rounds") > 0.0, "{}", point.x_label);
            assert!(extra("paper closed form") > 0.0, "{}", point.x_label);
        }
    }
}
