//! # cdrw-gen
//!
//! Random graph generators for the reproduction of *Efficient Distributed
//! Community Detection in the Stochastic Block Model* (ICDCS 2019).
//!
//! The paper evaluates CDRW on two random graph families:
//!
//! * the Erdős–Rényi graph `G(n, p)` ([`generate_gnp`]) — used in Figure 2 to
//!   check that a single expander is detected as one community;
//! * the symmetric planted partition model `G(n, p, q)` ([`generate_ppm`]) —
//!   `r` equal-size blocks, intra-block edge probability `p`, inter-block
//!   probability `q` — used in Figures 1, 3 and 4.
//!
//! Both are cases of the general stochastic block model with an arbitrary
//! block-probability matrix ([`generate_sbm`]): `G(n, p)` is one block and
//! the PPM is the symmetric SBM. Every random generator draws its pairs
//! through the SBM's one block driver and geometric skip sampler. A
//! deterministic ring-of-cliques graph ([`special::ring_of_cliques`]) is also
//! provided for tests and ablations.
//!
//! Two heterogeneous families exercise the weighted CSR substrate: the
//! degree-corrected SBM ([`generate_dcsbm`]) with per-vertex propensities
//! `θ_v` targeting expected edge weights `θ_u·θ_v·B_{rs}` (the SBM of its
//! envelope rates, thinned per pair), and the weighted planted partition
//! model ([`generate_weighted_ppm`]) — PPM topology with constant
//! intra-/inter-block edge weights.
//!
//! All generators are fully deterministic given a `u64` seed, which is how
//! the experiment harness achieves reproducible figures.
//!
//! # Example
//!
//! ```
//! use cdrw_gen::{generate_ppm, PpmParams};
//!
//! # fn main() -> Result<(), cdrw_gen::GenError> {
//! let params = PpmParams::new(400, 4, 0.3, 0.01)?;
//! let (graph, truth) = generate_ppm(&params, 7)?;
//! assert_eq!(graph.num_vertices(), 400);
//! assert_eq!(truth.num_communities(), 4);
//! assert_eq!(truth.members(0).len(), 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcsbm;
mod error;
mod gnp;
pub mod params;
mod ppm;
mod sbm;
pub mod special;

pub use dcsbm::{generate_dcsbm, generate_weighted_ppm, DcsbmParams, WeightedPpmParams};
pub use error::GenError;
pub use gnp::{generate_gnp, GnpParams};
pub use params::{
    connectivity_threshold, log2_n_over_n, log_n_over_n, log_squared_n_over_n, ParamPoint,
};
pub use ppm::{generate_ppm, PpmParams};
pub use sbm::{generate_sbm, SbmParams};
