//! Distributed complexity walkthrough: CONGEST rounds/messages and k-machine
//! rounds for one PPM instance.
//!
//! Reproduces, on a single graph, the quantities behind Theorems 5–6 and the
//! Section III-B k-machine analysis: per-community round and message counts
//! in the CONGEST model, then the pipeline run on the k-machine engine for a
//! range of machine counts, its measured link rounds next to the
//! Conversion-Theorem bound and the paper's closed form.
//!
//! ```text
//! cargo run --release --example distributed_costs
//! ```

use cdrw_repro::kmachine;
use cdrw_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 512;
    let r = 2;
    let p = 12.0 * (n as f64).ln() / n as f64;
    let q = p / 40.0;
    let params = PpmParams::new(n, r, p, q)?;
    let (graph, truth) = generate_ppm(&params, 99)?;
    let delta = params.expected_block_conductance();

    // CONGEST execution with cost accounting.
    let algorithm = CdrwConfig::builder().seed(3).delta(delta).build();
    let congest = CongestCdrw::new(CongestConfig::new(algorithm));
    let report = congest.detect_all(&graph)?;

    println!("CONGEST execution on G(n={n}, r={r}):");
    println!(
        "  detected {} communities, F-score vs ground truth = {:.3}",
        report.per_community.len(),
        f_score(report.result.partition(), &truth).f_score
    );
    for cost in &report.per_community {
        println!(
            "  seed {:>4}: |C| = {:>4}, walk steps = {:>3}, size checks = {:>5}, rounds = {:>9}, messages = {:>12}",
            cost.seed, cost.community_size, cost.walk_steps, cost.size_checks,
            cost.cost.rounds, cost.cost.messages
        );
    }
    let ln_n = (n as f64).ln();
    println!(
        "  total: {} rounds ({}x log^4 n), {} messages ({:.2}x m)",
        report.total.rounds,
        (report.total.rounds as f64 / ln_n.powi(4)).round(),
        report.total.messages,
        report.total.messages as f64 / graph.num_edges() as f64
    );

    // The same algorithm on the k-machine engine: measured link rounds next
    // to the Conversion Theorem over the CONGEST run above and the closed form.
    println!("\nk-machine rounds (engine run; bounds from the CONGEST run above):");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>18} {:>18}",
        "k", "wire entries", "phys rounds", "link rounds", "conversion rounds", "paper closed form"
    );
    for k in [1usize, 2, 4, 8, 16] {
        let config = KMachineConfig::new(k)
            .with_congest(CongestConfig::new(algorithm))
            .with_partition_seed(1);
        let run = KMachineEngine::new(config)?.run(&graph)?;
        let ledger = &run.conformance;
        assert_eq!(run.result, report.result, "the engine left the algorithm");
        assert_eq!(ledger.measured_messages, ledger.modelled_messages);
        let conversion = kmachine::conversion_rounds(&kmachine::ConversionInput {
            messages: report.total.messages,
            rounds: report.total.rounds,
            max_degree: graph.max_degree() as u64,
            num_machines: k,
        });
        println!(
            "{:>4} {:>12} {:>12} {:>12} {:>18.0} {:>18.1}",
            k,
            ledger.wire_entries,
            ledger.physical_rounds,
            kmachine::link_rounds(&ledger.per_round),
            conversion,
            kmachine::paper_round_bound(n, r, p, q, k)
        );
    }
    Ok(())
}
