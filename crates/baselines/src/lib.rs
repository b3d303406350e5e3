//! # cdrw-baselines
//!
//! Baseline community-detection algorithms used as comparators in the CDRW
//! reproduction. Section II of the paper positions CDRW against two families
//! of prior distributed approaches — label propagation (Raghavan et al.;
//! analysed on dense PPM graphs by Kothapalli et al. \[27\]) and
//! averaging/linear dynamics (Becchetti et al. \[4\], Clementi et al. \[10\]) —
//! and against centralized random-walk methods (Walktrap \[42\]) and spectral
//! partitioning \[13, 29, 41\]. The `experiments -- baselines` table runs all of
//! them on the same PPM sweeps as Figure 3 so the regimes where CDRW wins
//! (sparse graphs, more than two communities) are visible.
//!
//! All baselines consume the same [`cdrw_graph::Graph`] and produce a
//! [`cdrw_graph::Partition`], so they are drop-in comparable with CDRW
//! through `cdrw-metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod averaging;
mod lpa;
mod spectral;
mod walktrap;

pub use averaging::{averaging_dynamics, AveragingConfig, AveragingOutcome};
pub use lpa::{label_propagation, LpaConfig, LpaOutcome};
pub use spectral::{spectral_partition, SpectralConfig};
pub use walktrap::{walktrap, WalktrapConfig};

use std::error::Error;
use std::fmt;

/// Errors produced by the baseline algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BaselineError {
    /// The input graph has no vertices.
    EmptyGraph,
    /// A configuration parameter was outside its valid domain.
    InvalidConfig {
        /// Name of the offending parameter.
        field: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// An error bubbled up from the graph substrate.
    Graph(cdrw_graph::GraphError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::EmptyGraph => {
                write!(
                    f,
                    "baseline algorithms require a graph with at least one vertex"
                )
            }
            BaselineError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration `{field}`: {reason}")
            }
            BaselineError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for BaselineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BaselineError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cdrw_graph::GraphError> for BaselineError {
    fn from(e: cdrw_graph::GraphError) -> Self {
        BaselineError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        assert!(BaselineError::EmptyGraph.to_string().contains("vertex"));
        let e = BaselineError::InvalidConfig {
            field: "max_iterations",
            reason: "must be positive".to_string(),
        };
        assert!(e.to_string().contains("max_iterations"));
        let e: BaselineError = cdrw_graph::GraphError::EmptyGraph.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<BaselineError>();
    }
}
