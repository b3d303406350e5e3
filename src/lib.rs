//! # cdrw-repro
//!
//! Umbrella crate for the reproduction of *Efficient Distributed Community
//! Detection in the Stochastic Block Model* (Fathi, Molla, Pandurangan,
//! ICDCS 2019).
//!
//! This crate re-exports the public API of every workspace crate so that the
//! examples and integration tests can use a single import root. Downstream
//! users can either depend on this umbrella crate or on the individual crates
//! (`cdrw-core`, `cdrw-graph`, ...).
//!
//! # Quickstart
//!
//! ```
//! use cdrw_repro::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small planted partition graph with 4 blocks.
//! let ppm = PpmParams::new(512, 4, 0.2, 0.005)?;
//! let (graph, truth) = generate_ppm(&ppm, 42)?;
//!
//! // Run CDRW with default configuration.
//! let config = CdrwConfig::builder().seed(7).build();
//! let result = Cdrw::new(config).detect_all(&graph)?;
//!
//! // Score the detection against the planted ground truth.
//! let score = f_score(result.partition(), &truth);
//! assert!(score.f_score > 0.5);
//! # Ok(())
//! # }
//! ```

pub use cdrw_baselines as baselines;
pub use cdrw_congest as congest;
pub use cdrw_core as core;
pub use cdrw_gen as gen;
pub use cdrw_graph as graph;
pub use cdrw_kmachine as kmachine;
pub use cdrw_metrics as metrics;
pub use cdrw_walk as walk;

/// Convenience prelude bringing the most commonly used items into scope.
pub mod prelude {
    pub use cdrw_baselines::{
        averaging_dynamics, label_propagation, spectral_partition, walktrap, AveragingConfig,
        LpaConfig, SpectralConfig, WalktrapConfig,
    };
    pub use cdrw_congest::{CongestCdrw, CongestConfig, CongestReport};
    pub use cdrw_core::{
        Cdrw, CdrwConfig, CdrwConfigBuilder, DeltaPolicy, DetectionResult, EnsemblePolicy,
    };
    pub use cdrw_gen::{generate_gnp, generate_ppm, generate_sbm, GnpParams, PpmParams, SbmParams};
    pub use cdrw_graph::{Graph, GraphBuilder, Partition, VertexId};
    pub use cdrw_kmachine::{KMachineConfig, KMachineEngine};
    pub use cdrw_metrics::{
        adjusted_rand_index, f_score, f_score_for_detections, f_score_for_seeds, nmi, FScoreReport,
    };
    pub use cdrw_walk::{
        LocalMixingConfig, LocalMixingOutcome, WalkDistribution, WalkEngine, WalkEvidence,
        WalkWorkspace,
    };
}
