//! Algorithm 1 of the paper, written line by line on the dense oracles.
//!
//! The library runs Algorithm 1 once, as `cdrw_core::Pipeline`, over a
//! sparse walk engine, a prefix-scan sweep and a shared growth tracker.
//! This module runs it again with none of that: the dense step, the dense
//! strict sweep and the growth rule inline. The strict criterion, one walk
//! per detection and first-claim results are the paper's algorithm; every
//! place where the reproduction deviates from the pseudocode is marked
//! `Deviation N` with its number in `docs/PAPER_MAP.md`.

use cdrw_graph::{Graph, VertexId};

use crate::{dense_step, largest_mixing_set, Criterion};

/// One detection of [`reference_detect_all`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceDetection {
    /// The seed the walk started from.
    pub seed: VertexId,
    /// The detected community, sorted by id; always contains the seed.
    pub members: Vec<VertexId>,
    /// One `(walk length ℓ, mixing set size, sizes checked)` per step.
    pub steps: Vec<(usize, usize, usize)>,
    /// Whether the growth rule stopped the walk (else the walk-length cap
    /// did).
    pub stopped_by_growth_rule: bool,
}

/// Algorithm 1: detects the community of every seed in `seed_order` that
/// no earlier detection covered, with growth threshold `delta`.
///
/// # Panics
///
/// Panics on an edgeless graph or a seed out of range.
pub fn reference_detect_all(
    graph: &Graph,
    seed_order: &[VertexId],
    delta: f64,
) -> Vec<ReferenceDetection> {
    let n = graph.num_vertices();
    let ln_n = (n.max(2) as f64).ln();
    // The paper assumes communities of at least R = log n members: the
    // smallest candidate size. Deviation 3 is µ′(S) inside the sweep's
    // scores.
    let r = (ln_n.ceil() as usize).max(2);
    // Deviation 4: the growth rule is armed once the previous set has
    // reached 2R vertices.
    let stop_floor = (2.0 * r as f64).ceil() as usize;
    // The walk runs for O(log n) steps: the cap is ⌈3 ln n⌉, at least 2.
    let max_length = ((3.0 * ln_n).ceil() as usize).max(2);
    let mut covered = vec![false; n];
    let mut detections = Vec::new();
    // The outer loop: pick each seed from the pool of unassigned vertices.
    for &seed in seed_order {
        if covered[seed] {
            continue;
        }
        let detection = detect(graph, seed, delta, r, stop_floor, max_length);
        for &v in &detection.members {
            covered[v] = true;
        }
        covered[seed] = true;
        detections.push(detection);
    }
    detections
}

fn detect(
    graph: &Graph,
    seed: VertexId,
    delta: f64,
    r: usize,
    stop_floor: usize,
    max_length: usize,
) -> ReferenceDetection {
    let mut detection = ReferenceDetection {
        seed,
        members: vec![seed],
        steps: Vec::new(),
        stopped_by_growth_rule: false,
    };
    // Deviation 10: a zero-degree seed is its own community.
    if graph.degree(seed) == 0 {
        return detection;
    }
    // The walk starts as the point mass p_0 at the seed.
    let mut p = vec![0.0; graph.num_vertices()];
    p[seed] = 1.0;
    let mut previous: Option<Vec<VertexId>> = None;
    let mut current: Option<Vec<VertexId>> = None;
    for walk_length in 1..=max_length {
        // Lines 9–11: one round of flooding, p_ℓ = A·p_{ℓ−1}.
        p = dense_step(graph, 0.0, &p);
        // Lines 12–17: the largest candidate size R, (1+1/8e)R, … whose
        // |S| smallest scores sum below 1/2e. Deviation 5: score ties go
        // to the smaller id.
        let sweep = largest_mixing_set(graph, &p, r, Criterion::Strict);
        detection
            .steps
            .push((walk_length, sweep.size(), sweep.checks.len()));
        let Some(set) = sweep.set else {
            continue;
        };
        previous = current.replace(set);
        // Line 18: stop once |S_ℓ| < (1 + δ)|S_{ℓ−1}|; δ is given
        // (deviation 6) and the rule armed past the floor (deviation 4).
        if let (Some(prev), Some(cur)) = (&previous, &current) {
            if prev.len() >= stop_floor && (cur.len() as f64) < (1.0 + delta) * prev.len() as f64 {
                detection.stopped_by_growth_rule = true;
                break;
            }
        }
    }
    // The community is S_{ℓ−1}, the set before the rule fired. At the
    // walk-length cap it is the last set found, or the seed alone if the
    // walk never mixed.
    let mut members = if detection.stopped_by_growth_rule {
        previous.expect("the rule compared two sets")
    } else {
        current.unwrap_or_else(|| vec![seed])
    };
    // Deviation 10: the sweep pads sets with zero-degree vertices the walk
    // never reached; they are dropped, and the seed is always a member.
    members.retain(|&v| v == seed || graph.degree(v) > 0);
    if let Err(at) = members.binary_search(&seed) {
        members.insert(at, seed);
    }
    // The trace of the firing step records the returned community's size,
    // not the grown set the rule discarded.
    if detection.stopped_by_growth_rule {
        if let Some(last) = detection.steps.last_mut() {
            last.1 = members.len();
        }
    }
    detection.members = members;
    detection
}
