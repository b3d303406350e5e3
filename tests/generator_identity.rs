//! Generator pin: every random-graph generator must keep producing the same
//! graph and the same truth partition for the same parameters and seed.
//!
//! The experiment tables, the benchmark inputs and every identity test
//! downstream start from these generators, so a change to how they consume
//! the RNG silently changes every figure. Each case is reduced to an FNV-1a
//! digest over each vertex's degree, sorted neighbour row, weight bits,
//! weighted-degree bits and truth-partition assignment, and compared against
//! the digests the generators produced when this pin was written.

use cdrw_repro::gen::{
    generate_dcsbm, generate_gnp, generate_ppm, generate_sbm, generate_weighted_ppm, params,
    DcsbmParams, GnpParams, PpmParams, SbmParams, WeightedPpmParams,
};
use cdrw_repro::graph::{Graph, Partition};

const SEEDS: [u64; 3] = [1, 7, 20190416];

/// FNV-1a over the little-endian bytes of a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(graph: &Graph, truth: Option<&Partition>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.write(graph.num_vertices() as u64);
    for v in graph.vertices() {
        h.write(graph.degree(v) as u64);
        for &u in graph.neighbor_slice(v) {
            h.write(u as u64);
        }
        for &w in graph.weight_slice(v).unwrap_or(&[]) {
            h.write(w.to_bits());
        }
        h.write(graph.weighted_degree(v).to_bits());
        if let Some(truth) = truth {
            h.write(truth.community_of(v).unwrap() as u64);
        }
    }
    h.0
}

/// The planted-partition shapes: the benchmark's `n = 8192, r = 8` cell at
/// both of its `q` values, `p = 1` inside the blocks, `q = 1` across them,
/// and a single block.
fn ppm_cases() -> Vec<(&'static str, PpmParams)> {
    let n = 8192;
    let p = params::log_squared_n_over_n(n, 2.0);
    let q = p / (2f64.powf(0.6) * (n as f64).ln());
    vec![
        ("bench-sbm8", PpmParams::new(n, 8, p, q).unwrap()),
        (
            "bench-churn",
            PpmParams::new(n, 8, p, 0.1 / n as f64).unwrap(),
        ),
        ("intra-one", PpmParams::new(60, 3, 1.0, 0.05).unwrap()),
        ("cross-one", PpmParams::new(60, 3, 0.1, 1.0).unwrap()),
        ("one-block", PpmParams::new(300, 1, 0.05, 0.9).unwrap()),
    ]
}

/// Unequal blocks, a one-vertex block, zero entries and `1.0` entries.
fn unequal_sbm() -> SbmParams {
    SbmParams::new(
        vec![1, 40, 70, 25],
        vec![
            vec![0.5, 1.0, 0.02, 0.0],
            vec![1.0, 0.3, 0.01, 0.05],
            vec![0.02, 0.01, 1.0, 0.0],
            vec![0.0, 0.05, 0.0, 0.2],
        ],
    )
    .unwrap()
}

fn digests(seed: u64) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, n, p) in [
        ("sparse", 600, 0.02),
        ("complete", 30, 1.0),
        ("single-vertex", 1, 0.7),
        ("empty", 50, 0.0),
    ] {
        let graph = generate_gnp(&GnpParams::new(n, p).unwrap(), seed).unwrap();
        out.push((format!("gnp/{name}"), digest(&graph, None)));
    }
    for (name, base) in ppm_cases() {
        let (graph, truth) = generate_ppm(&base, seed).unwrap();
        out.push((format!("ppm/{name}"), digest(&graph, Some(&truth))));
        let weighted = WeightedPpmParams::new(base, 2.5, 0.25).unwrap();
        let (graph, truth) = generate_weighted_ppm(&weighted, seed).unwrap();
        out.push((format!("weighted-ppm/{name}"), digest(&graph, Some(&truth))));
    }
    let (graph, truth) = generate_sbm(&unequal_sbm(), seed).unwrap();
    out.push(("sbm/unequal".to_string(), digest(&graph, Some(&truth))));
    for (name, params) in [
        (
            "light",
            DcsbmParams::symmetric(300, 3, 0.05, 0.005, 0.5, 1.5).unwrap(),
        ),
        (
            "heavy",
            DcsbmParams::symmetric(120, 2, 1.5, 0.02, 0.5, 2.0).unwrap(),
        ),
        ("from-sbm", DcsbmParams::from_sbm(&unequal_sbm())),
    ] {
        let (graph, truth) = generate_dcsbm(&params, seed).unwrap();
        out.push((format!("dcsbm/{name}"), digest(&graph, Some(&truth))));
    }
    out
}

/// `(case, [digest for each of SEEDS])`, recorded from the generators when
/// this pin was written.
#[rustfmt::skip]
const EXPECTED: &[(&str, [u64; 3])] = &[
    ("gnp/sparse", [0x4d8a22c3b4ec5a43, 0xf2e6a659664af5c6, 0x53bf2c7c68c12dfd]),
    ("gnp/complete", [0x67bc650bc4935b9a, 0x67bc650bc4935b9a, 0x67bc650bc4935b9a]),
    ("gnp/single-vertex", [0x5b2a969b42d238a4, 0x5b2a969b42d238a4, 0x5b2a969b42d238a4]),
    ("gnp/empty", [0x7e60d2751e987b77, 0x7e60d2751e987b77, 0x7e60d2751e987b77]),
    ("ppm/bench-sbm8", [0x804940c7135eff97, 0xde53b61f7869a2be, 0x67688de6bf1f14a7]),
    ("weighted-ppm/bench-sbm8", [0x730ba5e498f75744, 0xfa8595de87b9541c, 0x48614468d7e97a7a]),
    ("ppm/bench-churn", [0xff893ebd9960a7f3, 0x5fe619afc67a9f1a, 0x834144cd49330d35]),
    ("weighted-ppm/bench-churn", [0xcd742b834cee0cf0, 0x797adf92c891f414, 0x4b9f0cb9030a3857]),
    ("ppm/intra-one", [0x56ec2e2d7f725479, 0x9187c786f5d45bd4, 0x9107575ad8dddd23]),
    ("weighted-ppm/intra-one", [0x3190a486074aad75, 0xb10b24651552a53c, 0x9e64ae13ccbcb5a5]),
    ("ppm/cross-one", [0xdc30456eec2bf375, 0x9dbfc40d2db76fe4, 0xe13a29ac21e4f910]),
    ("weighted-ppm/cross-one", [0xe2ff2c5b7a1e1273, 0xdbd757307b6a9163, 0xc6a59ad5b13c1e56]),
    ("ppm/one-block", [0x616760775780cccd, 0xdca2f4b8569d877d, 0x516b100f718ba5f9]),
    ("weighted-ppm/one-block", [0x39b2f3b7aaeb8525, 0xb7fcac272949380b, 0x3ea7adf25b24a4d2]),
    ("sbm/unequal", [0xc893a355e448a46e, 0xd30ab4a680941ab1, 0x94c7d0a70a2e36e7]),
    ("dcsbm/light", [0x3aa6aab9af27d65f, 0xd26becd14b57fe78, 0xb57c6a05bb2a6db1]),
    ("dcsbm/heavy", [0x54296771db52884a, 0xad830eec2db3466a, 0x953dd68722388915]),
    ("dcsbm/from-sbm", [0xd57ae0e9ac22a463, 0x727728e1b00863c3, 0xefe7a9029bd40632]),
];

#[test]
fn generators_reproduce_their_pinned_graphs_and_partitions() {
    for (s, &seed) in SEEDS.iter().enumerate() {
        let got = digests(seed);
        assert_eq!(got.len(), EXPECTED.len());
        for ((name, digest), (expected_name, expected)) in got.iter().zip(EXPECTED) {
            assert_eq!(name, expected_name);
            assert_eq!(
                *digest, expected[s],
                "{name} with seed {seed} no longer reproduces its pinned graph"
            );
        }
    }
}
