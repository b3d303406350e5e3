//! # cdrw-graph
//!
//! Graph substrate for the reproduction of *Efficient Distributed Community
//! Detection in the Stochastic Block Model* (Fathi, Molla, Pandurangan,
//! ICDCS 2019).
//!
//! The paper works with simple, undirected, unweighted graphs: the planted
//! partition model graph `G(n, p, q)` and the Erdős–Rényi graph `G(n, p)`.
//! This crate provides the data structures and primitive graph computations
//! every other crate in the workspace builds on:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) representation of a
//!   simple undirected graph. All algorithmic crates consume this type.
//! * [`GraphBuilder`] — a mutable adjacency-set builder used by the random
//!   graph generators; deduplicates edges and rejects self-loops.
//! * [`DeltaGraph`] — a committed CSR plus a pending add/remove buffer for
//!   streaming edge churn; [`DeltaGraph::commit`] splices the changed rows
//!   into the CSR and reports the dirty vertices, the invalidation signal
//!   the incremental service layer (`cdrw_core::CdrwService`) keys its
//!   cache on.
//! * [`traversal`] — breadth-first search, BFS trees (as used by the source
//!   node of CDRW to aggregate values), connected components, balls `B_ℓ`
//!   (the radius-`ℓ` neighbourhoods appearing in Lemma 1), eccentricity and
//!   diameter estimation.
//! * [`properties`] — volume `µ(S)`, cut size `|E(S, V∖S)|`, set conductance
//!   `φ(S)`, degree statistics, and estimators for the graph conductance
//!   `Φ_G` which the paper uses as the stopping threshold `δ`.
//! * [`partition`] — [`Partition`]: an assignment of every vertex to a
//!   community, used both for planted ground truth and detected output.
//! * [`subcsr`] — [`SubCsr`]: a shard's slice of the CSR (owned rows with
//!   global neighbour identifiers and a boundary-vertex map), the storage
//!   unit of the k-machine execution engine.
//! * [`dot`] — Graphviz DOT export for small showcase graphs (Figure 1).
//! * [`io`] — plain-text edge-list and METIS readers for real datasets,
//!   with the optional edge-weight lane engaged when the input carries
//!   weights.
//!
//! Graphs may optionally carry per-edge weights (see [`Graph::is_weighted`]
//! and [`GraphBuilder::add_weighted_edge`]): the walk substrate generalises
//! to `P(u→v) = w(u,v)/w(u)`, and every weighted accessor degenerates to the
//! structural quantity on unweighted graphs so the unweighted pipeline is
//! bit-identical to the pre-weight behaviour.
//!
//! # Example
//!
//! ```
//! use cdrw_graph::{GraphBuilder, properties};
//!
//! # fn main() -> Result<(), cdrw_graph::GraphError> {
//! // A triangle plus a pendant vertex.
//! let mut builder = GraphBuilder::new(4);
//! builder.add_edge(0, 1)?;
//! builder.add_edge(1, 2)?;
//! builder.add_edge(2, 0)?;
//! builder.add_edge(2, 3)?;
//! let graph = builder.build();
//!
//! assert_eq!(graph.num_vertices(), 4);
//! assert_eq!(graph.num_edges(), 4);
//! assert_eq!(graph.degree(2), 3);
//!
//! // Conductance of the triangle {0, 1, 2}: one edge leaves, volume is 7.
//! let phi = properties::set_conductance(&graph, &[0, 1, 2]);
//! assert!((phi - 1.0 / 1.0f64.min(7.0)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod delta;
pub mod dot;
mod error;
pub mod io;
pub mod partition;
pub mod properties;
pub mod subcsr;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{Graph, Neighbors};
pub use delta::{CommitReport, DeltaGraph};
pub use error::GraphError;
pub use partition::Partition;
pub use subcsr::SubCsr;
pub use traversal::BfsTree;

/// Identifier of a vertex.
///
/// Vertices of a graph with `n` vertices are always the contiguous integers
/// `0..n`; all crates in the workspace rely on this convention (it is also how
/// the paper's CONGEST and k-machine analyses index nodes).
pub type VertexId = usize;
