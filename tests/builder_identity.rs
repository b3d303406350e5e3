//! The `GraphBuilder` against a naive build, through the public API.
//!
//! Every entry point — `from_edges`, `from_weighted_edges`, and `new` plus
//! `add_edge`/`add_weighted_edge` plus `build` — must produce the CSR a
//! plain `BTreeMap` build of the same insertions describes: the same
//! offsets, sorted rows, weight lane and edge count, and weighted degrees
//! summed in row order, slot for slot and bit for bit. Duplicate and
//! reversed pairs collapse to one edge; duplicate weights sum in insertion
//! order. The inputs are fed both as sized iterators (whose lower size hint
//! the builder reserves) and as unsized ones (`filter`, `flat_map`), so the
//! sizing can change allocations only.

use std::collections::BTreeMap;

use cdrw_repro::graph::{Graph, GraphBuilder, VertexId};

const N: usize = 40;

/// Deterministic splitmix64 stream for the shuffled inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// `len` shuffled insertions on `N` vertices: no self-loops, about a third
/// of them repeats of an earlier pair (half of those reversed), and
/// weights whose sums depend on the order they are added in.
fn insertions(seed: u64, len: usize) -> Vec<(VertexId, VertexId, f64)> {
    let mut mix = Mix(seed);
    let mut out: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(len);
    while out.len() < len {
        let w = 0.1 * (1 + mix.below(7)) as f64;
        if !out.is_empty() && mix.below(3) == 0 {
            let (u, v, _) = out[mix.below(out.len())];
            out.push(if mix.below(2) == 0 {
                (v, u, w)
            } else {
                (u, v, w)
            });
            continue;
        }
        let (u, v) = (mix.below(N), mix.below(N));
        if u != v {
            out.push((u, v, w));
        }
    }
    // Fisher–Yates, so repeats land anywhere relative to their first copy.
    for i in (1..out.len()).rev() {
        out.swap(i, mix.below(i + 1));
    }
    out
}

/// Checks `graph` against the naive build of `edges`: one ordered map per
/// vertex, weights folded onto the pair in insertion order. A `None` weight
/// is a plain insertion (1.0 once the lane is engaged); the lane is engaged
/// when any insertion carries a weight.
fn assert_matches_naive(
    graph: &Graph,
    n: usize,
    edges: &[(VertexId, VertexId, Option<f64>)],
    case: &str,
) {
    let weighted = edges.iter().any(|e| e.2.is_some());
    let mut pairs: BTreeMap<(VertexId, VertexId), f64> = BTreeMap::new();
    for &(u, v, w) in edges {
        let weight = w.unwrap_or(1.0);
        pairs
            .entry((u.min(v), u.max(v)))
            .and_modify(|sum| *sum += weight)
            .or_insert(weight);
    }
    let mut rows: Vec<BTreeMap<VertexId, f64>> = vec![BTreeMap::new(); n];
    for (&(u, v), &w) in &pairs {
        rows[u].insert(v, w);
        rows[v].insert(u, w);
    }

    assert_eq!(graph.num_vertices(), n, "{case}");
    assert_eq!(graph.num_edges(), pairs.len(), "{case}");
    assert_eq!(graph.is_weighted(), weighted, "{case}");
    let (mut offset, mut expected_offset) = (0usize, 0usize);
    for (v, row) in rows.iter().enumerate() {
        assert_eq!(offset, expected_offset, "{case}: offset of row {v}");
        let neighbors: Vec<VertexId> = row.keys().copied().collect();
        assert_eq!(graph.neighbor_slice(v), neighbors, "{case}: row {v}");
        let expected_degree = if weighted {
            let lane: Vec<u64> = row.values().map(|w| w.to_bits()).collect();
            let got: Vec<u64> = graph
                .weight_slice(v)
                .expect("weighted lane")
                .iter()
                .map(|w| w.to_bits())
                .collect();
            assert_eq!(got, lane, "{case}: weights of row {v}");
            row.values().fold(0.0, |acc, w| acc + w)
        } else {
            assert!(graph.weight_slice(v).is_none(), "{case}: row {v}");
            row.len() as f64
        };
        assert_eq!(
            graph.weighted_degree(v).to_bits(),
            expected_degree.to_bits(),
            "{case}: weighted degree of {v}"
        );
        offset += graph.degree(v);
        expected_offset += row.len();
    }
    assert_eq!(offset, 2 * pairs.len(), "{case}: last offset");
}

#[test]
fn from_edges_matches_the_naive_build_sized_or_not() {
    for seed in [1u64, 2, 3, 20190416] {
        let input = insertions(seed, 300);
        let pairs: Vec<(VertexId, VertexId)> = input.iter().map(|&(u, v, _)| (u, v)).collect();
        let plain: Vec<_> = pairs.iter().map(|&(u, v)| (u, v, None)).collect();
        let case = |how: &str| format!("from_edges, seed {seed}, {how}");

        let sized = GraphBuilder::from_edges(N, pairs.iter().copied()).unwrap();
        assert_matches_naive(&sized, N, &plain, &case("slice"));
        let owned = GraphBuilder::from_edges(N, pairs.clone()).unwrap();
        assert_matches_naive(&owned, N, &plain, &case("vec"));
        let filtered = GraphBuilder::from_edges(N, pairs.iter().copied().filter(|_| true)).unwrap();
        assert_matches_naive(&filtered, N, &plain, &case("filter"));
        // Each pair expanded to itself and its reverse: the duplicates
        // collapse onto the same edges.
        let expanded =
            GraphBuilder::from_edges(N, pairs.iter().flat_map(|&(u, v)| [(u, v), (v, u)])).unwrap();
        assert_matches_naive(&expanded, N, &plain, &case("flat_map"));
        assert_eq!(sized, filtered, "{}", case("sized vs unsized"));
    }
}

#[test]
fn from_weighted_edges_sums_duplicates_in_insertion_order() {
    for seed in [4u64, 5, 6, 7340033] {
        let input = insertions(seed, 300);
        let weighted: Vec<_> = input.iter().map(|&(u, v, w)| (u, v, Some(w))).collect();
        let case = |how: &str| format!("from_weighted_edges, seed {seed}, {how}");

        let sized = GraphBuilder::from_weighted_edges(N, input.iter().copied()).unwrap();
        assert_matches_naive(&sized, N, &weighted, &case("slice"));
        let filtered =
            GraphBuilder::from_weighted_edges(N, input.iter().copied().filter(|_| true)).unwrap();
        assert_matches_naive(&filtered, N, &weighted, &case("filter"));
        let split = GraphBuilder::from_weighted_edges(
            N,
            input
                .iter()
                .flat_map(|&(u, v, w)| [(u, v, w / 2.0), (v, u, w / 2.0)]),
        )
        .unwrap();
        let halves: Vec<_> = input
            .iter()
            .flat_map(|&(u, v, w)| [(u, v, Some(w / 2.0)), (v, u, Some(w / 2.0))])
            .collect();
        assert_matches_naive(&split, N, &halves, &case("flat_map"));
        assert_eq!(sized, filtered, "{}", case("sized vs unsized"));
    }
    // The order is observable: (0.1 + 0.2) + 0.3 and 0.3 + 0.2 + 0.1 differ
    // in the last bit, and the first-inserted weight is summed first.
    let g = GraphBuilder::from_weighted_edges(3, [(0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3)]).unwrap();
    assert_eq!(g.edge_weight(0, 1), Some(0.1 + 0.2 + 0.3));
    assert_ne!(g.edge_weight(0, 1), Some(0.3 + 0.2 + 0.1));
    // No weighted edge, no weight lane.
    let empty = GraphBuilder::from_weighted_edges(5, std::iter::empty()).unwrap();
    assert_matches_naive(&empty, 5, &[], "from_weighted_edges, empty");
}

#[test]
fn incremental_insertions_match_the_naive_build() {
    for seed in [8u64, 9, 10] {
        let input = insertions(seed, 200);
        // Plain insertions first, then every third one weighted: the lane
        // engages midway and backfills the earlier plain edges with 1.0.
        let mixed: Vec<_> = input
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| (u, v, (i >= 50 && i % 3 == 0).then_some(w)))
            .collect();
        let mut builder = GraphBuilder::new(N);
        for &(u, v, w) in &mixed {
            match w {
                Some(w) => builder.add_weighted_edge(u, v, w).unwrap(),
                None => builder.add_edge(u, v).unwrap(),
            }
        }
        assert!(builder.is_weighted());
        assert_matches_naive(&builder.build(), N, &mixed, &format!("mixed, seed {seed}"));

        let plain: Vec<_> = input.iter().map(|&(u, v, _)| (u, v, None)).collect();
        let mut builder = GraphBuilder::new(N);
        for &(u, v, _) in &plain {
            builder.add_edge(u, v).unwrap();
        }
        let built = builder.build();
        assert_matches_naive(&built, N, &plain, &format!("plain, seed {seed}"));
        let pairs = input.iter().map(|&(u, v, _)| (u, v));
        assert_eq!(built, GraphBuilder::from_edges(N, pairs).unwrap());
    }
    assert_matches_naive(&GraphBuilder::new(0).build(), 0, &[], "empty");
}
