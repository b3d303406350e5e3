//! Decision pin: the assembly, the ensemble follow-ups and the incremental
//! service must keep deciding what they decided when this pin was written.
//!
//! The walk, the sweep and the growth rule are rooted in the paper-literal
//! oracle by `driver_identity`; the layers above them are not, so a change
//! to how they prune, vote, rank follow-up seeds, contest a vertex or
//! retire a cached detection would otherwise pass tier-1 unseen. Each case
//! is reduced to FNV-1a digests, in the style of `generator_identity`:
//!
//! * the assembled partition and the `AssemblyReport` counts of
//!   `detect_all` under ensemble 5:2 + assembly 4:3 on small Figure 4a
//!   planted partitions, sparse and dense;
//! * every detection's member set and ensemble vote record (the quorum,
//!   each follow-up walk's seed, set size, margin and contribution, and
//!   the consensus size);
//! * a seeded `CdrwService` churn sequence: for each refresh, its kind, the
//!   retired, surviving, fresh and re-seeded counts, and the partition
//!   digest.
//!
//! A purposeful change to any of these decisions updates the pinned values
//! and says so in the change log.

use cdrw_repro::core::{Cdrw, CdrwConfig, CdrwService, DetectionResult, RefreshKind};
use cdrw_repro::gen::{generate_ppm, params, PpmParams};
use cdrw_repro::graph::{Graph, GraphBuilder, Partition, VertexId};

/// Instance and detector seed, as in the experiment tables.
const SEED: u64 = 20190416;

/// FNV-1a over the little-endian bytes of a stream of `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn partition_digest(partition: &Partition) -> u64 {
    let mut h = Fnv::new();
    h.write(partition.num_vertices() as u64);
    for v in 0..partition.num_vertices() {
        h.write(partition.community_of(v).map_or(u64::MAX, |c| c as u64));
    }
    h.0
}

fn detections_digest(result: &DetectionResult) -> u64 {
    let mut h = Fnv::new();
    for detection in result.detections() {
        h.write(detection.seed as u64);
        h.write(detection.members.len() as u64);
        for &v in &detection.members {
            h.write(v as u64);
        }
        let ensemble = detection.trace.ensemble.as_ref().expect("ensemble run");
        h.write(ensemble.quorum as u64);
        h.write(ensemble.consensus_size as u64);
        for walk in &ensemble.walks {
            h.write(walk.seed as u64);
            h.write(walk.set_size as u64);
            h.write(walk.margin.to_bits());
            h.write(walk.contributed as u64);
        }
    }
    h.0
}

/// `(case, partition digest, AssemblyReport counts, detections digest)`.
type OneShot = (&'static str, u64, [usize; 8], u64);

/// `detect_all` under ensemble 5:2 + assembly 4:3.
fn assembled(case: &'static str, graph: &Graph, delta: f64, seed: u64) -> OneShot {
    let config = CdrwConfig::builder()
        .seed(seed)
        .delta(delta)
        .ensemble(5, 2)
        .assembly(4, 3)
        .build();
    let result = Cdrw::new(config).detect_all(graph).unwrap();
    let a = result.assembly().expect("pooled assembly");
    let counts = [
        a.groups,
        a.merged_detections,
        a.reseeded_groups,
        a.reseed_walks,
        a.contested,
        a.absorbed,
        a.singletons,
        a.absorption_rounds,
    ];
    (
        case,
        partition_digest(result.partition()),
        counts,
        detections_digest(&result),
    )
}

/// A Figure 4a cell: `r` blocks of 256 at `p = 2·ln²n/n`, with the
/// `series`-th ratio of `params::figure4_series` (0 = `2^0.1·ln n`, the
/// sparsest; 3 = `2^0.6·(ln n)²`, the densest), as the tables run it.
fn fig4a(case: &'static str, r: usize, series: usize, seed: u64) -> OneShot {
    let n = 256 * r;
    let point = &params::figure4_series(n)[series];
    let ppm = PpmParams::new(n, r, point.p, point.q).unwrap();
    let (graph, _) = generate_ppm(&ppm, seed).unwrap();
    let delta = ppm.expected_block_conductance().clamp(0.01, 1.0);
    assembled(case, &graph, delta, seed)
}

/// Two 8-cliques and two hubs, each hub adjacent to all 16 clique
/// vertices. The graph is symmetric under swapping the cliques, so both
/// hubs are contested by two groups with exactly equal margins and votes:
/// the contest's tie-break decides them.
fn tied_hubs() -> Graph {
    let (clique, hubs) = ([0usize, 9], [8usize, 17]);
    let mut edges = Vec::new();
    for base in clique {
        for a in base..base + 8 {
            edges.extend((a + 1..base + 8).map(|b| (a, b)));
            edges.extend(hubs.iter().map(|&h| (a, h)));
        }
    }
    GraphBuilder::from_edges(18, edges).unwrap()
}

/// Deterministic splitmix64 stream for the churn schedule.
struct Mix(u64);

impl Mix {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// One refresh: `(kind, retired, surviving, fresh, reseeded groups,
/// partition digest)`.
type Refresh = (RefreshKind, usize, usize, usize, usize, u64);

/// A service with ε = 0.05 over a clear four-block cell, refreshed after
/// each churn cycle. Cycle `i` removes `sizes[i]` random edges inside
/// block 0 and adds as many absent pairs there, so the dirty region stays
/// in one block; the sizes step the dirty share of block 0's detection
/// across ε and 2ε, so the refreshes both keep and retire it.
fn service_churn(cycles: usize) -> Vec<Refresh> {
    let n = 1024;
    let p = params::log_squared_n_over_n(n, 2.0);
    let ppm = PpmParams::new(n, 4, p, 0.1 / n as f64).unwrap();
    let (graph, _) = generate_ppm(&ppm, SEED).unwrap();
    let config = CdrwConfig::builder()
        .seed(SEED)
        .delta(ppm.expected_block_conductance().clamp(0.01, 1.0))
        .assembly(4, 3)
        .build();
    let block = ppm.block_size();
    let sizes = [2usize, 3, 4, 5, 6, 7, 8, 10];
    let mut service = CdrwService::new(Cdrw::new(config), graph);
    service.set_staleness_tolerance(0.05);
    let mut mix = Mix(SEED);
    let mut out = Vec::with_capacity(cycles + 1);
    for cycle in 0..=cycles {
        if cycle > 0 {
            let graph = service.graph();
            let mut inside: Vec<(VertexId, VertexId)> = graph
                .edges()
                .filter(|&(u, v)| u < block && v < block)
                .collect();
            let churn = sizes[(cycle - 1) % sizes.len()];
            let mut removed = Vec::with_capacity(churn);
            while removed.len() < churn {
                removed.push(inside.swap_remove(mix.below(inside.len())));
            }
            let mut added: Vec<(VertexId, VertexId)> = Vec::with_capacity(churn);
            while added.len() < churn {
                let (u, v) = (mix.below(block), mix.below(block));
                let pair = (u.min(v), u.max(v));
                if u != v && !graph.has_edge(u, v) && !added.contains(&pair) {
                    added.push(pair);
                }
            }
            for (u, v) in removed {
                service.remove_edge(u, v).unwrap();
            }
            for (u, v) in added {
                service.add_edge(u, v).unwrap();
            }
        }
        let report = service.refresh().unwrap();
        out.push((
            report.kind,
            report.retired,
            report.surviving,
            report.fresh,
            report.reseeded_groups,
            partition_digest(service.partition().unwrap()),
        ));
    }
    out
}

/// Recorded when this pin was written.
#[rustfmt::skip]
const EXPECTED_ONE_SHOT: &[OneShot] = &[
    ("fig4a r=2 2^0.1·ln n", 0x332c_100f_66d7_37ce, [2, 0, 0, 0, 104, 0, 0, 0], 0xac85_bc9f_591a_6e07),
    ("fig4a r=4 2^0.1·ln n", 0xb354_2f0e_d239_ed39, [4, 2, 1, 4, 305, 2, 0, 1], 0x7fea_0990_fa74_d407),
    ("fig4a r=4 2^0.6·(ln n)²", 0xa8a6_cc0c_5ce4_41da, [4, 0, 0, 0, 205, 0, 0, 0], 0xcb31_e9f6_76d7_0f62),
    ("fig4a r=3 2^0.1·ln n, seed 2", 0x6bc5_b434_0539_0574, [2, 2, 1, 4, 107, 7, 0, 1], 0x64ba_a2c9_2bc8_f63a),
    ("tied hubs", 0x710f_4f96_6063_5357, [2, 0, 0, 0, 2, 0, 0, 0], 0x532e_ce76_c094_dd4c),
];

/// Recorded when this pin was written.
#[rustfmt::skip]
const EXPECTED_SERVICE: &[Refresh] = &[
    (RefreshKind::Full, 0, 0, 4, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 0, 4, 0, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 0, 4, 0, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 1, 3, 1, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 1, 3, 1, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 1, 3, 1, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 1, 3, 1, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 1, 3, 1, 0, 0x5972_42f3_386b_efbb),
    (RefreshKind::Incremental, 1, 3, 1, 0, 0x5972_42f3_386b_efbb),
];

#[test]
fn ensemble_and_assembly_decisions_reproduce_their_pins() {
    let got = [
        fig4a("fig4a r=2 2^0.1·ln n", 2, 0, SEED),
        fig4a("fig4a r=4 2^0.1·ln n", 4, 0, SEED),
        fig4a("fig4a r=4 2^0.6·(ln n)²", 4, 3, SEED),
        fig4a("fig4a r=3 2^0.1·ln n, seed 2", 3, 0, 2),
        assembled("tied hubs", &tied_hubs(), 0.1, SEED),
    ];
    for (case, partition, counts, detections) in &got {
        println!("    ({case:?}, {partition:#018x}, {counts:?}, {detections:#018x}),");
    }
    assert_eq!(got.as_slice(), EXPECTED_ONE_SHOT);
}

#[test]
fn service_refresh_decisions_reproduce_their_pins() {
    let got = service_churn(8);
    for (kind, retired, surviving, fresh, reseeded, partition) in &got {
        println!(
            "    (RefreshKind::{kind:?}, {retired}, {surviving}, {fresh}, {reseeded}, {partition:#018x}),"
        );
    }
    assert_eq!(got.as_slice(), EXPECTED_SERVICE);
}
