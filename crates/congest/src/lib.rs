//! # cdrw-congest
//!
//! CONGEST-model simulation of CDRW with round and message accounting,
//! reproducing the complexity analysis of Section III (Theorems 5 and 6) of
//! *Efficient Distributed Community Detection in the Stochastic Block Model*
//! (ICDCS 2019).
//!
//! The CONGEST model: the graph *is* the network; nodes compute in
//! synchronous rounds and may send one `O(log n)`-bit message to each
//! neighbour per round. The cost of an algorithm is its number of rounds
//! (time complexity) and the total number of messages (message complexity).
//!
//! The runner ([`CongestCdrw`]) is the distributed CDRW driver. It runs
//! `cdrw-core`'s one `Pipeline` (so its result is *identical* to the
//! sequential algorithm's, traces included — an integration test asserts
//! this) on an executor that charges every operation the cost the CONGEST
//! execution would incur, by the formulas of [`primitives`]:
//!
//! | operation | rounds | messages |
//! |---|---|---|
//! | BFS tree of depth `D` | `D` | `Σ_{v∈tree} d(v)` |
//! | one walk step (flood `p_{ℓ−1}/d`) | 1 | `Σ_{u: p(u)>0} d(u)` |
//! | broadcast / convergecast on the tree | `D` | `#tree nodes − 1` |
//! | binary-search aggregation of the `|S|` smallest `x_u` | `O(D·log n)` | `O((#tree nodes)·log n)` |
//!
//! The crate's tests validate the flooding formula against a real
//! synchronous message-passing simulator (compiled for tests only), where
//! each vertex runs a node-program state machine: flooding BFS-tree
//! construction, broadcast and convergecast, with measured rounds and
//! messages asserted against the textbook analysis.
//!
//! The resulting round counts reproduce the `O(log⁴ n)` shape of Theorem 5
//! and the message counts the `Õ(n²(p + q(r−1))/r)` shape — the
//! `experiments -- congest` table sweeps `n` and prints both next to the
//! theoretical curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
#[cfg(test)]
mod network;
pub mod primitives;
mod runner;

pub use cost::CostAccount;
pub use runner::{CommunityCost, CongestCdrw, CongestConfig, CongestReport};
