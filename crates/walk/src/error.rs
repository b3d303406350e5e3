//! Error type for the random-walk machinery.

use std::error::Error;
use std::fmt;

use cdrw_graph::GraphError;

/// Errors produced by distribution construction and mixing computations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WalkError {
    /// The graph has no edges, so the stationary distribution `d(v)/2m` is
    /// undefined.
    NoEdges,
    /// A distribution was requested over zero vertices.
    EmptyDistribution,
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the constraint that was violated.
        reason: String,
    },
    /// An error bubbled up from the graph substrate.
    Graph(GraphError),
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::NoEdges => {
                write!(
                    f,
                    "the stationary distribution is undefined on a graph with no edges"
                )
            }
            WalkError::EmptyDistribution => {
                write!(f, "a probability distribution needs at least one vertex")
            }
            WalkError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            WalkError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for WalkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WalkError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for WalkError {
    fn from(e: GraphError) -> Self {
        WalkError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(WalkError::NoEdges.to_string().contains("stationary"));
    }

    #[test]
    fn graph_error_conversion() {
        let e: WalkError = GraphError::EmptyGraph.into();
        assert!(matches!(e, WalkError::Graph(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<WalkError>();
    }
}
