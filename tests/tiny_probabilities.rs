//! A positive probability too small for `1 − p` to differ from one must
//! select (almost surely) nothing, not every pair.
//!
//! The skip sampler jumps by `ln u / ln(1 − p)`; when `1 − p` rounds to one
//! that logarithm is zero and a naive skip selects every index. These cases
//! expect an edge count of about `C(100, 2)·1e-17`, i.e. zero, and the
//! smallest subnormal must not overflow the skip arithmetic.

use cdrw_repro::gen::{
    generate_dcsbm, generate_gnp, generate_ppm, DcsbmParams, GnpParams, PpmParams,
};
use cdrw_repro::graph::{properties, Graph, Partition};

fn cross_edges(graph: &Graph, truth: &Partition) -> usize {
    graph
        .edges()
        .filter(|&(u, v)| !truth.same_community(u, v))
        .count()
}

#[test]
fn tiny_probabilities_select_no_pairs() {
    for p in [1e-17, 1e-300, f64::from_bits(1)] {
        for seed in [1, 2, 3] {
            let graph = generate_gnp(&GnpParams::new(100, p).unwrap(), seed).unwrap();
            assert_eq!(graph.num_edges(), 0, "G(100, {p:e}), seed {seed}");

            let ppm = PpmParams::new(100, 2, 0.1, p).unwrap();
            let (graph, truth) = generate_ppm(&ppm, seed).unwrap();
            assert_eq!(cross_edges(&graph, &truth), 0, "PPM q = {p:e}, seed {seed}");
            assert!(properties::internal_edges(&graph, truth.members(0)) > 0);

            let dc = DcsbmParams::symmetric(100, 2, 0.1, p, 1.0, 1.0).unwrap();
            let (graph, truth) = generate_dcsbm(&dc, seed).unwrap();
            assert_eq!(
                cross_edges(&graph, &truth),
                0,
                "DC-SBM B_out = {p:e}, seed {seed}"
            );
            assert!(properties::internal_edges(&graph, truth.members(0)) > 0);
        }
    }
}
