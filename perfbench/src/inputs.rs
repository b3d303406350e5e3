//! Workload definitions: the seeded planted-partition inputs, the detector
//! configurations and the churn stream. Everything here runs untimed.

use cdrw_core::{AssemblyPolicy, CdrwConfig, EnsemblePolicy};
use cdrw_gen::{generate_ppm, params, PpmParams};
use cdrw_graph::{Graph, GraphBuilder, Partition, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Planted blocks of every workload graph.
const BLOCKS: usize = 8;

/// The ensemble every ensemble measurement uses: 5 walks, quorum 2.
pub const ENSEMBLE: EnsemblePolicy = EnsemblePolicy::Ensemble {
    walks: 5,
    quorum: 2,
};

/// The pooled assembly every pooled measurement uses: 4 re-seed walks,
/// quorum 3.
pub const POOLED: AssemblyPolicy = AssemblyPolicy::Pooled {
    reseed: 4,
    quorum: 3,
};

/// Staleness tolerance ε of the service workload.
pub const EPSILON: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure-4a sparse cell, n = 8192: ensemble 5:2 + pooled assembly 4:3.
    Sbm8Ensemble,
    /// Clear cell, n = 8192: a `CdrwService` refreshed under churn.
    ServiceChurn,
    /// Clear cell, n = 16384: the k-machine engine on two shard threads.
    ShardedK2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Sbm8Ensemble,
        Workload::ServiceChurn,
        Workload::ShardedK2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sbm8Ensemble => "sbm8-ensemble",
            Workload::ServiceChurn => "service-churn",
            Workload::ShardedK2 => "sharded-k2",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn num_vertices(self) -> usize {
        match self {
            Workload::Sbm8Ensemble | Workload::ServiceChurn => 8192,
            Workload::ShardedK2 => 16384,
        }
    }

    fn policies(self) -> (EnsemblePolicy, AssemblyPolicy) {
        match self {
            Workload::Sbm8Ensemble => (ENSEMBLE, POOLED),
            Workload::ServiceChurn => (EnsemblePolicy::Single, POOLED),
            Workload::ShardedK2 => (EnsemblePolicy::Single, AssemblyPolicy::Raw),
        }
    }
}

/// One workload's generated input: the edge list, the planted truth, the
/// detector configuration and the churn stream, all fixed by the instance
/// seed; the run seed drives the query order and the vertex-to-shard
/// partition.
pub struct Instance {
    pub workload: Workload,
    pub instance: u64,
    pub seed: u64,
    pub params: PpmParams,
    pub edges: Edges,
    pub truth: Partition,
    pub config: CdrwConfig,
}

impl Instance {
    /// Generates instance `instance` of the workload: an 8-block planted
    /// partition with `p = 2·ln²n/n`, `q` per workload, and
    /// `δ = expected_block_conductance()` clamped to `[0.01, 1]`; the
    /// detector seeds its pool from `instance` too. `seed` is the run seed.
    pub fn generate(workload: Workload, instance: u64, seed: u64) -> Result<Self, String> {
        let n = workload.num_vertices();
        let ln_n = (n as f64).ln();
        let p = params::log_squared_n_over_n(n, 2.0);
        let q = match workload {
            Workload::Sbm8Ensemble => p / (2f64.powf(0.6) * ln_n),
            Workload::ServiceChurn | Workload::ShardedK2 => 0.1 / n as f64,
        };
        let params = PpmParams::new(n, BLOCKS, p, q).map_err(|e| e.to_string())?;
        let (graph, truth) = generate_ppm(&params, instance).map_err(|e| e.to_string())?;
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let (ensemble, assembly) = workload.policies();
        let config = CdrwConfig::builder()
            .seed(instance)
            .delta(delta)
            .ensemble_policy(ensemble)
            .assembly_policy(assembly)
            .build();
        Ok(Instance {
            workload,
            instance,
            seed,
            params,
            edges: graph.edges().collect(),
            truth,
            config,
        })
    }

    pub fn num_vertices(&self) -> usize {
        self.params.n
    }

    /// Builds the CSR graph from the edge list (the timed part of set-up).
    pub fn build(&self) -> Result<Graph, String> {
        GraphBuilder::from_edges(self.params.n, self.edges.iter().copied())
            .map_err(|e| format!("building the graph failed: {e}"))
    }

    /// The workload's configuration with other ensemble/assembly policies.
    pub fn config_with(&self, ensemble: EnsemblePolicy, assembly: AssemblyPolicy) -> CdrwConfig {
        CdrwConfig {
            ensemble,
            assembly,
            ..self.config
        }
    }

    /// A pseudo-random order of every vertex from the run seed, for query
    /// bursts.
    pub fn query_order(&self) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = (0..self.params.n).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(self.seed ^ 0x9E37_79B9));
        order
    }

    /// The churn stream of this instance.
    pub fn churn(&self) -> Churn {
        Churn {
            rng: SmallRng::seed_from_u64(self.instance ^ 0xC4C4_C4C4),
            half: (self.edges.len() / 200).max(1),
            block: self.params.block_size(),
        }
    }
}

/// A list of edges.
pub type Edges = Vec<(VertexId, VertexId)>;

/// Seeded churn: each cycle removes `m/200` random intra-block-0 edges and
/// adds `m/200` random absent intra-block-0 pairs, so the planted truth stays
/// valid and the dirty region stays inside one block.
pub struct Churn {
    rng: SmallRng,
    half: usize,
    block: usize,
}

impl Churn {
    /// The next cycle's `(removals, additions)` against `graph`.
    pub fn next_cycle(&mut self, graph: &Graph) -> (Edges, Edges) {
        let block = self.block;
        let mut removed: Edges = graph
            .edges()
            .filter(|&(u, v)| u < block && v < block)
            .collect();
        removed.shuffle(&mut self.rng);
        removed.truncate(self.half);
        let mut added: Edges = Vec::with_capacity(self.half);
        while added.len() < self.half {
            let u = self.rng.gen_range(0..block);
            let v = self.rng.gen_range(0..block);
            let pair = (u.min(v), u.max(v));
            if u == v || graph.has_edge(u, v) || added.contains(&pair) {
                continue;
            }
            added.push(pair);
        }
        (removed, added)
    }
}

/// Checks that `partition` assigns every one of the `n` vertices.
pub fn check_total(partition: &Partition, n: usize) -> Result<(), String> {
    let covered: usize = partition.community_sizes().iter().sum();
    if partition.num_vertices() == n && covered == n {
        Ok(())
    } else {
        Err(format!(
            "partition is not total: {covered} of {n} vertices assigned"
        ))
    }
}
