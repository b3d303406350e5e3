//! # cdrw-core
//!
//! CDRW — *Community Detection by Random Walks* — the primary contribution of
//! *Efficient Distributed Community Detection in the Stochastic Block Model*
//! (Fathi, Molla, Pandurangan, ICDCS 2019), as a clean sequential library.
//!
//! The algorithm (Algorithm 1 of the paper) detects the community containing
//! a seed node `s` by evolving the probability distribution of a random walk
//! started at `s`, computing the largest *local mixing set* after every step,
//! and stopping as soon as the mixing-set size stops growing by more than a
//! factor `1 + δ` (with `δ = Φ_G`, the graph conductance). Detecting all
//! communities repeats this from fresh seeds drawn from the pool of vertices
//! not yet assigned to any community.
//!
//! This crate contains the algorithm itself, written once as the
//! [`Pipeline`] over a [`LaneExecutor`]. The distributed drivers in
//! `cdrw-congest` (CONGEST cost accounting) and `cdrw-kmachine` (sharded
//! execution) run the same pipeline on their own executors.
//!
//! # Quickstart
//!
//! ```
//! use cdrw_core::{Cdrw, CdrwConfig};
//! use cdrw_gen::{generate_ppm, PpmParams};
//! use cdrw_metrics::f_score;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = PpmParams::new(512, 4, 0.25, 0.002)?;
//! let (graph, truth) = generate_ppm(&params, 11)?;
//!
//! let config = CdrwConfig::builder().seed(1).build();
//! let result = Cdrw::new(config).detect_all(&graph)?;
//!
//! let report = f_score(result.partition(), &truth);
//! assert!(report.f_score > 0.8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod assembly;
mod config;
mod error;
pub mod growth;
mod parallel;
pub mod pipeline;
mod result;
pub mod service;

pub use algorithm::Cdrw;
pub use assembly::AssemblyReport;
pub use config::{AssemblyPolicy, CdrwConfig, CdrwConfigBuilder, DeltaPolicy, EnsemblePolicy};
pub use error::CdrwError;
pub use growth::GrowthTracker;
pub use pipeline::{shuffled_seed_pool, LaneExecutor, LocalLanes, Pipeline};
pub use result::{
    CommunityDetection, DetectionResult, DetectionTrace, EnsembleTrace, EnsembleWalkTrace,
    StepTrace,
};
pub use service::{CdrwService, RefreshKind, RefreshReport, ServiceStats};

// The mixing criterion travels inside `CdrwConfig`; re-export it so callers
// don't need a direct `cdrw_walk` dependency to select one.
pub use cdrw_walk::MixingCriterion;
