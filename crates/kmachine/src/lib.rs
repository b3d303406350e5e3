//! # cdrw-kmachine
//!
//! The k-machine ("Big Data") model simulation of CDRW, reproducing
//! Section III-B of *Efficient Distributed Community Detection in the
//! Stochastic Block Model* (ICDCS 2019).
//!
//! In the k-machine model the `n`-vertex input graph is distributed over
//! `k ≪ n` machines by the *random vertex partition* (RVP): every vertex is
//! hashed to a uniformly random machine, which becomes its *home machine* and
//! stores its incident edges. Machines communicate point-to-point over a
//! complete network of links, each carrying `B = O(log n)` bits per round;
//! the complexity measure is the number of communication rounds.
//!
//! The paper implements CDRW in this model by *simulating* the CONGEST
//! algorithm: when vertex `u` messages its neighbour `v`, the home machine of
//! `u` sends the same message to the home machine of `v` (no cost if they
//! share a machine). The round complexity then follows from the Conversion
//! Theorem of Klauck–Nanongkai–Pandurangan–Robinson (SODA 2015): a CONGEST
//! algorithm using `M` messages and `T` rounds runs in
//! `Õ(M/k² + ∆·T/k)` k-machine rounds.
//!
//! This crate provides:
//!
//! * [`RandomVertexPartition`] — the RVP mapping plus balance statistics
//!   (each machine holds `Õ(n/k)` vertices and `Õ(m/k + ∆)` edges, which the
//!   tests verify empirically);
//! * [`conversion_rounds`] — the Conversion Theorem bound;
//! * [`KMachineSimulator`] — runs the CONGEST CDRW runner, plugs its measured
//!   `M` and `T` into the conversion bound for the requested `k`, and also
//!   re-derives the paper's closed-form
//!   `Õ((n²/k² + n/(kr))(p + q(r−1)))` prediction for comparison;
//! * [`KMachineEngine`] — the *execution* engine: actually runs the pipeline
//!   distributed over `k` worker shards in explicit message rounds (see
//!   [`engine`] and the private `transport` module), producing decisions bit-identical to the
//!   sequential driver alongside a measured-vs-modelled message-conformance
//!   ledger. Since `u` sends the same share along every edge, the home
//!   machine of `u` ships it once to each remote machine homing a neighbour
//!   of `u` — one share per (source, remote shard) crosses the wire, not
//!   one message per edge — and the receiving machine applies it to each of
//!   its vertices adjacent to `u`. The CONGEST messages of the simulation
//!   are therefore counted at the receiver, one per edge contribution
//!   applied, and equal the modelled count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod conversion;
pub mod engine;
mod partition;
mod shard;
mod transport;

pub use chaos::{FaultPlan, ShardCrash};
pub use conversion::{conversion_rounds, paper_round_bound, ConversionInput};
pub use engine::{
    DetectionFlood, FaultLog, KMachineEngine, KMachineRunReport, RoundConformance, ShardRecovery,
    WalkConformance,
};
pub use partition::{PartitionStats, RandomVertexPartition};

use cdrw_congest::{CongestCdrw, CongestConfig, CongestReport};
use cdrw_core::CdrwError;
use cdrw_graph::Graph;
use serde::{Deserialize, Serialize};

/// Configuration of a k-machine simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMachineConfig {
    /// Number of machines `k ≥ 2`.
    pub num_machines: usize,
    /// Seed of the random vertex partition hash.
    pub partition_seed: u64,
    /// The CONGEST/CDRW configuration whose execution is converted.
    pub congest: CongestConfig,
}

impl KMachineConfig {
    /// Creates a configuration with `k` machines and default parameters.
    pub fn new(num_machines: usize) -> Self {
        KMachineConfig {
            num_machines,
            partition_seed: 0,
            congest: CongestConfig::default(),
        }
    }

    /// Sets the CONGEST configuration.
    pub fn with_congest(mut self, congest: CongestConfig) -> Self {
        self.congest = congest;
        self
    }

    /// Sets the partition seed.
    pub fn with_partition_seed(mut self, seed: u64) -> Self {
        self.partition_seed = seed;
        self
    }
}

/// Result of a k-machine simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMachineReport {
    /// Number of machines used.
    pub num_machines: usize,
    /// The measured CONGEST execution that was converted.
    pub congest: CongestReport,
    /// Balance statistics of the random vertex partition.
    pub partition: PartitionStats,
    /// Round bound from the Conversion Theorem applied to the measured
    /// CONGEST message and round counts.
    pub conversion_rounds: f64,
    /// The number of CONGEST messages that actually cross machine boundaries
    /// under this vertex partition (messages between co-located vertices are
    /// free). This refines `M` in the conversion bound.
    pub cross_machine_fraction: f64,
}

impl KMachineReport {
    /// The conversion bound recomputed with the measured cross-machine
    /// message fraction instead of the worst-case `M`.
    pub fn refined_rounds(&self) -> f64 {
        let input = ConversionInput {
            messages: (self.congest.total.messages as f64 * self.cross_machine_fraction) as u64,
            rounds: self.congest.total.rounds,
            max_degree: self.partition.max_degree as u64,
            num_machines: self.num_machines,
        };
        conversion_rounds(&input)
    }
}

/// Simulates CDRW in the k-machine model.
#[derive(Debug, Clone)]
pub struct KMachineSimulator {
    config: KMachineConfig,
}

impl KMachineSimulator {
    /// Creates a simulator with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CdrwError::InvalidConfig`] when `num_machines < 2`.
    pub fn new(config: KMachineConfig) -> Result<Self, CdrwError> {
        if config.num_machines < 2 {
            return Err(CdrwError::InvalidConfig {
                field: "num_machines",
                reason: format!(
                    "the k-machine model needs k ≥ 2, got {}",
                    config.num_machines
                ),
            });
        }
        Ok(KMachineSimulator { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &KMachineConfig {
        &self.config
    }

    /// Runs CDRW on the graph and reports the k-machine round complexity.
    ///
    /// # Errors
    ///
    /// Propagates CONGEST/CDRW failures (empty graph, no edges, invalid
    /// algorithm configuration).
    pub fn run(&self, graph: &Graph) -> Result<KMachineReport, CdrwError> {
        let congest = CongestCdrw::new(self.config.congest).detect_all(graph)?;
        let partition =
            RandomVertexPartition::new(graph, self.config.num_machines, self.config.partition_seed);
        let stats = partition.stats(graph);

        // Fraction of graph edges whose endpoints live on different machines;
        // CONGEST messages travel along edges, so this is (in expectation) the
        // fraction of messages that incur inter-machine communication.
        let cross_edges = graph
            .edges()
            .filter(|&(u, v)| partition.machine_of(u) != partition.machine_of(v))
            .count();
        let cross_machine_fraction = if graph.num_edges() == 0 {
            0.0
        } else {
            cross_edges as f64 / graph.num_edges() as f64
        };

        let input = ConversionInput {
            messages: congest.total.messages,
            rounds: congest.total.rounds,
            max_degree: graph.max_degree() as u64,
            num_machines: self.config.num_machines,
        };
        let rounds = conversion_rounds(&input);
        Ok(KMachineReport {
            num_machines: self.config.num_machines,
            congest,
            partition: stats,
            conversion_rounds: rounds,
            cross_machine_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_core::CdrwConfig;
    use cdrw_gen::{generate_ppm, PpmParams};

    fn setup(n: usize, r: usize) -> (Graph, f64) {
        let p = 12.0 * (n as f64).ln() / n as f64;
        let q = p / (20.0 * r as f64);
        let params = PpmParams::new(n, r, p.min(1.0), q.min(1.0)).unwrap();
        let (graph, _) = generate_ppm(&params, 3).unwrap();
        (graph, params.expected_block_conductance().clamp(0.01, 1.0))
    }

    #[test]
    fn k_less_than_two_is_rejected() {
        assert!(KMachineSimulator::new(KMachineConfig::new(1)).is_err());
        assert!(KMachineSimulator::new(KMachineConfig::new(0)).is_err());
        assert!(KMachineSimulator::new(KMachineConfig::new(2)).is_ok());
    }

    #[test]
    fn report_fields_are_consistent() {
        let (graph, delta) = setup(256, 2);
        let congest = CongestConfig::new(CdrwConfig::builder().seed(1).delta(delta).build());
        let config = KMachineConfig::new(8)
            .with_congest(congest)
            .with_partition_seed(5);
        let report = KMachineSimulator::new(config).unwrap().run(&graph).unwrap();
        assert_eq!(report.num_machines, 8);
        assert!(report.conversion_rounds > 0.0);
        assert!(report.cross_machine_fraction > 0.0 && report.cross_machine_fraction <= 1.0);
        assert!(report.refined_rounds() <= report.conversion_rounds + 1.0);
        assert_eq!(report.partition.num_machines, 8);
    }

    #[test]
    fn rounds_decrease_as_k_grows() {
        // §III-B: round complexity scales between 1/k and 1/k².
        let (graph, delta) = setup(256, 2);
        let congest = CongestConfig::new(CdrwConfig::builder().seed(1).delta(delta).build());
        let mut rounds = Vec::new();
        for k in [2usize, 4, 8, 16] {
            let config = KMachineConfig::new(k).with_congest(congest);
            let report = KMachineSimulator::new(config).unwrap().run(&graph).unwrap();
            rounds.push(report.conversion_rounds);
        }
        for window in rounds.windows(2) {
            assert!(
                window[1] < window[0],
                "rounds should decrease with k: {rounds:?}"
            );
        }
        // Doubling k should cut rounds by at least ~1.5× (between k and k²).
        assert!(rounds[0] / rounds[1] > 1.5, "{rounds:?}");
    }

    #[test]
    fn cross_machine_fraction_approaches_one_minus_one_over_k() {
        let (graph, delta) = setup(256, 2);
        let congest = CongestConfig::new(CdrwConfig::builder().seed(1).delta(delta).build());
        let config = KMachineConfig::new(16).with_congest(congest);
        let report = KMachineSimulator::new(config).unwrap().run(&graph).unwrap();
        // Under RVP a random edge crosses machines with probability 1 − 1/k.
        let expected = 1.0 - 1.0 / 16.0;
        assert!(
            (report.cross_machine_fraction - expected).abs() < 0.05,
            "fraction = {}, expected ≈ {expected}",
            report.cross_machine_fraction
        );
    }
}
