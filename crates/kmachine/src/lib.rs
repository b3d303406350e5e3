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
//! share a machine). The Conversion Theorem of
//! Klauck–Nanongkai–Pandurangan–Robinson (SODA 2015) then bounds the round
//! complexity: a CONGEST algorithm using `M` messages and `T` rounds runs in
//! `Õ(M/k² + ∆·T/k)` k-machine rounds.
//!
//! This crate runs that simulation and measures it:
//!
//! * [`KMachineEngine`] — the k-machine runtime: runs the pipeline
//!   distributed over `k` worker shards in explicit message rounds (see
//!   [`engine`] and the private `transport` module), producing decisions
//!   bit-identical to the sequential driver alongside a measured-vs-modelled
//!   message-conformance ledger. Since `u` sends the same share along every
//!   edge, the home machine of `u` ships it once to each remote machine
//!   homing a neighbour of `u` — one share per (source, remote shard) crosses
//!   the wire, not one message per edge — and the receiving machine applies
//!   it to each of its vertices adjacent to `u`. The CONGEST messages of the
//!   simulation are therefore counted at the receiver, one per edge
//!   contribution applied, and equal the modelled count. Per round the
//!   ledger also records the load of the busiest machine-to-machine link;
//! * [`link_rounds`] — the k-machine rounds those link loads cost at
//!   `B = O(log n)` bits per link per round, next to the two bounds it is
//!   read against: [`conversion_rounds`] (the Conversion Theorem over a
//!   CONGEST run's measured `M` and `T`) and [`paper_round_bound`] (the
//!   paper's closed form `Õ((n²/k² + n/(kr))(p + q(r−1)))`);
//! * [`RandomVertexPartition`] — the RVP mapping plus balance statistics
//!   (each machine holds `Õ(n/k)` vertices and `Õ(m/k + ∆)` edges, which the
//!   tests verify empirically).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod conversion;
pub mod engine;
mod partition;
mod shard;
mod transport;

pub use chaos::{FaultPlan, ShardCrash};
pub use conversion::{conversion_rounds, link_rounds, paper_round_bound, ConversionInput};
pub use engine::{
    DetectionFlood, FaultLog, KMachineEngine, KMachineRunReport, RoundConformance, ShardRecovery,
    WalkConformance,
};
pub use partition::{PartitionStats, RandomVertexPartition};

use cdrw_congest::CongestConfig;
use serde::{Deserialize, Serialize};

/// Configuration of a k-machine run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMachineConfig {
    /// Number of machines `k ≥ 1`.
    pub num_machines: usize,
    /// Seed of the random vertex partition hash.
    pub partition_seed: u64,
    /// The CONGEST/CDRW configuration: the algorithm the shards run.
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
