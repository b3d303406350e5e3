//! Batched multi-walk stepping: K independent walks, one CSR traversal.
//!
//! The ensemble and assembly layers of `cdrw-core` run several independent
//! walks per detection (follow-up walks re-seeded from a detection's
//! interior, cross-detection re-seed walks per merged evidence group). Run
//! one at a time, every walk re-traverses the same adjacency lists alone, so
//! the graph's CSR is streamed through the cache K times per logical step.
//! [`WalkBatch`] steps all K walks in lockstep instead: one pass over the
//! union of the lanes' supports reads each adjacency list once and pushes
//! probability for every lane that holds mass on the vertex — or, once the
//! supports are dense, one pass over the whole CSR pulls it.
//!
//! # Direction: push sparse frontiers, pull dense ones
//!
//! A push step costs `O(Σ_l vol(support_l))` scattered writes, which is what
//! makes a young walk cheap. The ensemble's follow-up walks spread over
//! most of the graph, though, and there a scatter is the most expensive way
//! to take the step. So each step picks a direction (direction-optimizing
//! traversal, Beamer et al., SC 2012): it **pulls** once the live lanes'
//! summed support volume reaches a quarter of the graph volume
//! (`Σ_l vol(support_l) · 4 ≥ 2m`) and **pushes** below that. The threshold
//! is an internal constant, not a knob.
//!
//! The pull runs the live lanes in chunks of at most 8:
//!
//! 1. *Prologue.* For each lane `l` of the chunk, walk its support once:
//!    set bit `l` of a per-vertex lane byte where `p ≠ 0`, and write
//!    `share = p · (1−α) / w(u)` into a lane-interleaved plane
//!    `shares[u·L + l]`.
//! 2. *Gather.* For every target `v`, walk its ascending CSR row, adding
//!    each neighbour's `L` shares into `L` accumulators (times `w` on a
//!    weighted graph) and OR-ing the neighbours' lane bytes into `touched`.
//!    The lazy self-term `p_l(v) · α` goes in at `v`'s ascending position; a
//!    degree-0 `v` keeps `p_l(v)`.
//! 3. *Output.* For every lane in `touched`, write `next_l[v]`, set the mask
//!    bit and append `v` to the support, which therefore comes out
//!    ascending: the pull skips the push's support sort.
//! 4. *Epilogue.* Zero the shares and lane bytes over the old supports.
//!
//! The share plane (8 B per vertex per lane of the widest chunk) and the
//! lane bytes (1 B per vertex) belong to the [`WalkBatch`] and are
//! allocated on its first pull.
//!
//! # Bit-identity
//!
//! Batching is purely a physical-machine optimisation — in either direction
//! each lane's distribution evolves **bit-identically** to a solo
//! [`crate::WalkEngine::step`].
//!
//! The push:
//!
//! * iterates the union of the sorted per-lane supports in ascending
//!   vertex order, so each lane's contributors are processed in exactly the
//!   order its solo step would process them (union vertices outside a lane's
//!   support carry `0.0` there and are skipped, just like the solo step skips
//!   underflowed support entries);
//! * runs the solo step's own per-source scatter for every lane holding mass
//!   on the vertex, so the per-vertex sums are performed in the same order
//!   with the same operands.
//!
//! The pull:
//!
//! * gives every `next_l[v]` the same `f64` operands as the push — the same
//!   share expression, multiplied by the same weight — in the same
//!   ascending-source order, the self-term included;
//! * adds `+0.0` for a neighbour with no mass in that lane, which is exact,
//!   and starts from `+0.0`, which the first operand replaces exactly;
//! * marks `v` touched in lane `l` iff some source of `v` has `p_l ≠ 0` —
//!   the push's first-touch rule, zero-mass underflow included;
//! * relies on weights being positive and finite (the builder enforces it)
//!   and on the CSR storing each edge's weight in both rows.
//!
//! Physically, each lane is struct-of-arrays: two contiguous `f64` mass
//! planes plus a one-bit-per-vertex membership mask (see the
//! [`crate::WalkEngine`] module docs for the per-vertex memory table). The
//! stepping loop hoists the active lanes into one compact scratch table up
//! front, so the hot per-vertex loops touch exactly the lanes that step —
//! no per-`(vertex, lane)` activity branch, and the lane state they read
//! (mass plane pointer, mask words) stays hot across vertices.
//!
//! A property test pins `step_batch` against per-lane solo steps bit for bit
//! (distributions *and* supports), and each lane against the dense step of
//! the dev-only `cdrw-reference` crate, on weighted and unweighted graphs,
//! with more lanes than one pull chunk, and with each step's direction
//! chosen or forced either way; `cdrw-core` pins the batched ensemble
//! against a sequential reference. Lanes can be deactivated mid-flight
//! ([`WalkBatch::set_active`]) — a walk whose growth rule fired stops paying
//! for steps while the rest of the batch walks on.
//!
//! # Examples
//!
//! ```
//! use cdrw_gen::special;
//! use cdrw_walk::{WalkBatch, WalkEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (graph, _truth) = special::ring_of_cliques(4, 32)?;
//! let engine = WalkEngine::new(&graph);
//! let mut batch = WalkBatch::for_graph(&graph);
//! batch.load_point_masses(&[3, 40, 70])?;
//! for _ in 0..4 {
//!     engine.step_batch(&mut batch);
//! }
//! // Each lane evolved exactly as a solo walk from its seed would have.
//! let mut solo = engine.workspace();
//! solo.load_point_mass(3)?;
//! for _ in 0..4 {
//!     engine.step(&mut solo);
//! }
//! assert_eq!(batch.lane(0).as_slice(), solo.as_slice());
//! # Ok(())
//! # }
//! ```

use cdrw_graph::{Graph, VertexId};

use crate::engine::scatter;
use crate::{WalkEngine, WalkError, WalkWorkspace};

/// A bank of reusable walk workspaces stepped in lockstep by
/// [`WalkEngine::step_batch`].
///
/// Like [`WalkWorkspace`], a batch is sized for one graph and allocated once
/// per driver: lanes are grown on demand ([`WalkBatch::ensure_lanes`]) and
/// re-seeded with [`WalkBatch::load_point_masses`] for every detection, so
/// the steady-state per-detection cost is the walks themselves.
#[derive(Debug, Clone)]
pub struct WalkBatch {
    /// One full [`WalkWorkspace`] per lane (each lane also owns its own sweep
    /// scratch, so [`WalkEngine::sweep`] runs per lane without interference).
    lanes: Vec<WalkWorkspace>,
    /// Which lanes the next [`WalkEngine::step_batch`] advances.
    active: Vec<bool>,
    /// Push scratch: sorted, deduplicated union of the active lanes'
    /// supports.
    union: Vec<VertexId>,
    /// Pull scratch: lane-interleaved outgoing shares, `shares[u·L + l]` for
    /// lane `l` of a chunk of `L` lanes. Empty until the first pull; all
    /// zero between steps.
    shares: Vec<f64>,
    /// Pull scratch: bit `l` of `lane_bits[u]` is set while lane `l` of the
    /// current chunk holds mass on `u`. Empty until the first pull; all zero
    /// between steps.
    lane_bits: Vec<u8>,
    /// Number of vertices every lane is sized for.
    len: usize,
}

impl WalkBatch {
    /// Creates an empty batch (no lanes yet) over `n` vertices.
    pub fn with_len(n: usize) -> Self {
        WalkBatch {
            lanes: Vec::new(),
            active: Vec::new(),
            union: Vec::new(),
            shares: Vec::new(),
            lane_bits: Vec::new(),
            len: n,
        }
    }

    /// Creates an empty batch sized for `graph`.
    pub fn for_graph(graph: &Graph) -> Self {
        Self::with_len(graph.num_vertices())
    }

    /// Number of vertices each lane covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of lanes currently allocated.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of lanes the next step will advance.
    pub fn active_lanes(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Grows the batch to at least `count` lanes (never shrinks — lane
    /// buffers are the reusable resource).
    pub fn ensure_lanes(&mut self, count: usize) {
        while self.lanes.len() < count {
            self.lanes.push(WalkWorkspace::with_len(self.len));
            self.active.push(false);
        }
    }

    /// The workspace of lane `index`.
    ///
    /// # Panics
    ///
    /// Panics if the lane does not exist.
    pub fn lane(&self, index: usize) -> &WalkWorkspace {
        &self.lanes[index]
    }

    /// Mutable access to lane `index` (e.g. to run [`WalkEngine::sweep`] on
    /// its current distribution).
    ///
    /// # Panics
    ///
    /// Panics if the lane does not exist.
    pub fn lane_mut(&mut self, index: usize) -> &mut WalkWorkspace {
        &mut self.lanes[index]
    }

    /// Whether lane `index` is advanced by the next step (`false` for
    /// out-of-range lanes).
    pub fn is_active(&self, index: usize) -> bool {
        self.active.get(index).copied().unwrap_or(false)
    }

    /// Activates or deactivates lane `index`. Deactivated lanes keep their
    /// state frozen — re-activating resumes from where they stopped.
    ///
    /// # Panics
    ///
    /// Panics if the lane does not exist.
    pub fn set_active(&mut self, index: usize, active: bool) {
        self.active[index] = active;
    }

    /// Re-seeds the first `seeds.len()` lanes with point masses and activates
    /// them; any further lanes are deactivated. Grows the batch as needed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WalkWorkspace::load_point_mass`]; lanes seeded
    /// before the failing one keep their new state.
    pub fn load_point_masses(&mut self, seeds: &[VertexId]) -> Result<(), WalkError> {
        self.ensure_lanes(seeds.len());
        for (index, &seed) in seeds.iter().enumerate() {
            self.lanes[index].load_point_mass(seed)?;
            self.active[index] = true;
        }
        for index in seeds.len()..self.lanes.len() {
            self.active[index] = false;
        }
        Ok(())
    }
}

/// The step pulls once the live lanes' summed support volume reaches
/// `1/PULL_VOLUME_FRACTION` of the graph volume `2m`. The choice is not
/// sensitive: fractions 2, 4 and 16 gave `sbm8-ensemble` detection times
/// within 8% of each other, 4 the fastest. A shard receiver
/// ([`crate::shard::ShareReceiver`]) applies the same fraction to its
/// absorbed volume against its owned volume.
pub(crate) const PULL_VOLUME_FRACTION: usize = 4;

/// Lanes per pull pass: one bit each in the per-vertex lane byte.
const PULL_CHUNK: usize = 8;

/// How one [`WalkEngine::step_batch`] moves mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepDirection {
    /// Scatter each support vertex's shares to its neighbours.
    Push,
    /// Gather every vertex's incoming shares from its neighbours.
    Pull,
}

impl WalkEngine<'_> {
    /// Applies one walk step to every active lane of the batch, reading each
    /// adjacency list once for all lanes (or once per 8 lanes when the step
    /// pulls).
    ///
    /// Each lane's resulting distribution and support are bit-identical to a
    /// solo [`WalkEngine::step`] on that lane (see the
    /// [module documentation](crate::batch)); inactive lanes are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the batch was sized for a different graph.
    pub fn step_batch(&self, batch: &mut WalkBatch) {
        let direction = self.batch_direction(batch);
        self.step_batch_in(batch, direction);
    }

    /// The direction the next [`WalkEngine::step_batch`] takes: pull once
    /// the active lanes' summed support volume reaches a fixed fraction of
    /// the graph volume, push below it.
    pub(crate) fn batch_direction(&self, batch: &WalkBatch) -> StepDirection {
        let graph = self.graph();
        self.assert_sized(batch);
        let volume: usize = batch
            .lanes
            .iter()
            .zip(&batch.active)
            .filter(|(_, &is_active)| is_active)
            .flat_map(|(ws, _)| ws.support.iter())
            .map(|&u| graph.degree(u))
            .sum();
        if volume > 0 && volume * PULL_VOLUME_FRACTION >= graph.total_volume() {
            StepDirection::Pull
        } else {
            StepDirection::Push
        }
    }

    fn assert_sized(&self, batch: &WalkBatch) {
        let n = self.graph().num_vertices();
        assert_eq!(
            batch.len(),
            n,
            "batch is over {} vertices but the graph has {n}",
            batch.len()
        );
    }

    /// [`WalkEngine::step_batch`] in a given direction; both directions give
    /// the same bits.
    pub(crate) fn step_batch_in(&self, batch: &mut WalkBatch, direction: StepDirection) {
        self.assert_sized(batch);
        let graph = self.graph();
        let laziness = self.laziness();
        let WalkBatch {
            lanes,
            active,
            union,
            shares,
            lane_bits,
            ..
        } = batch;

        // Hoist the active lanes into one compact scratch table: the hot
        // per-vertex loops below then iterate exactly the lanes that step,
        // with no activity branch per `(vertex, lane)` pair, and the
        // per-lane state they read stays hot across vertices.
        let mut live: Vec<&mut WalkWorkspace> = lanes
            .iter_mut()
            .zip(active.iter())
            .filter_map(|(ws, &is_active)| is_active.then_some(ws))
            .collect();

        for ws in live.iter_mut() {
            ws.begin_step();
        }

        match direction {
            StepDirection::Push => push(graph, laziness, &mut live, union),
            StepDirection::Pull => {
                let n = graph.num_vertices();
                // Allocated on the first pull; all zero between pulls.
                lane_bits.resize(n, 0);
                let width = live.len().min(PULL_CHUNK);
                if shares.len() < n * width {
                    shares.resize(n * width, 0.0);
                }
                for chunk in live.chunks_mut(PULL_CHUNK) {
                    match chunk.len() {
                        1 => pull::<1>(graph, laziness, chunk, shares, lane_bits),
                        2 => pull::<2>(graph, laziness, chunk, shares, lane_bits),
                        3 => pull::<3>(graph, laziness, chunk, shares, lane_bits),
                        4 => pull::<4>(graph, laziness, chunk, shares, lane_bits),
                        5 => pull::<5>(graph, laziness, chunk, shares, lane_bits),
                        6 => pull::<6>(graph, laziness, chunk, shares, lane_bits),
                        7 => pull::<7>(graph, laziness, chunk, shares, lane_bits),
                        _ => pull::<PULL_CHUNK>(graph, laziness, chunk, shares, lane_bits),
                    }
                }
            }
        }

        for ws in live.iter_mut() {
            ws.end_step(direction);
        }
    }
}

/// The push step: scatter every live lane's mass from the union of the
/// supports, in ascending vertex order.
fn push(graph: &Graph, laziness: f64, live: &mut [&mut WalkWorkspace], union: &mut Vec<VertexId>) {
    // The union of the active supports, ascending: every lane's own
    // support is a subsequence, so per-lane contributor order matches the
    // solo step exactly (`scatter` skips a lane with no mass on `u`).
    union.clear();
    for ws in live.iter() {
        union.extend_from_slice(&ws.support);
    }
    union.sort_unstable();
    union.dedup();

    for &u in union.iter() {
        for ws in live.iter_mut() {
            scatter(graph, laziness, u, ws);
        }
    }
}

/// The pull step for a chunk of `L ≤ 8` live lanes: publish each lane's
/// outgoing shares into the lane-interleaved plane, then gather every
/// vertex's incoming mass from its ascending CSR row.
fn pull<const L: usize>(
    graph: &Graph,
    laziness: f64,
    chunk: &mut [&mut WalkWorkspace],
    shares: &mut [f64],
    lane_bits: &mut [u8],
) {
    let n = graph.num_vertices();
    let move_fraction = 1.0 - laziness;
    let lanes: &mut [&mut WalkWorkspace; L] = chunk.try_into().expect("a chunk of L lanes");
    let (shares, _) = shares[..n * L].as_chunks_mut::<L>();

    // Prologue: the same share expression the push computes per source.
    for (l, ws) in lanes.iter().enumerate() {
        for &u in &ws.support {
            let p = ws.current[u];
            if p == 0.0 {
                continue;
            }
            lane_bits[u] |= 1 << l;
            if graph.degree(u) > 0 {
                shares[u][l] = p * move_fraction / graph.weighted_degree(u);
            }
        }
    }

    {
        // Per lane: the outgoing mass (read) and the step's outputs.
        let mut lane_io = lanes.each_mut().map(|ws| {
            let ws = &mut **ws;
            (
                &ws.current[..],
                &mut ws.next[..],
                &mut ws.mask,
                &mut ws.next_support,
            )
        });
        let plane = SharePlane {
            shares: &*shares,
            lane_bits: &*lane_bits,
        };
        for v in 0..n {
            let mut acc = [0.0f64; L];
            let mut touched = gather_row(
                &mut acc,
                v,
                graph.neighbor_slice(v),
                graph.weight_slice(v),
                laziness,
                |l| lane_io[l].0[v],
                plane,
            );
            while touched != 0 {
                let l = touched.trailing_zeros() as usize;
                touched &= touched - 1;
                let (_, next, mask, next_support) = &mut lane_io[l];
                next[v] = acc[l];
                mask.insert(v);
                next_support.push(v);
            }
        }
    }

    // Epilogue: return the share plane and the lane bits to all-zero.
    for (l, ws) in lanes.iter().enumerate() {
        for &u in &ws.support {
            shares[u][l] = 0.0;
            lane_bits[u] = 0;
        }
    }
}

/// The read side of a pull: lane-interleaved outgoing shares and per-source
/// lane bits, both indexed by global source vertex.
#[derive(Clone, Copy)]
pub(crate) struct SharePlane<'a, const L: usize> {
    /// `shares[u][l]`: the share `p_l(u) · (1−α) / w(u)` source `u` sends
    /// along each edge in lane `l` (`0.0` where it sends nothing).
    pub(crate) shares: &'a [[f64; L]],
    /// Bit `l` of `lane_bits[u]` is set iff `p_l(u) ≠ 0`.
    pub(crate) lane_bits: &'a [u8],
}

/// Gathers target `v`'s next mass into the `L` lane accumulators from its
/// ascending row: the shares of `neighbors` in row order (times the edge
/// weight on a weighted graph), with the lazy self-term `mass(l) · α` of
/// every lane holding mass on `v` added at `v`'s ascending position — where
/// the push adds it, between `v`'s smaller and larger neighbours. A
/// degree-0 `v` keeps `mass(l)`. Returns the lanes that touched `v`: those
/// with mass on `v` or on one of its neighbours.
#[inline(always)]
pub(crate) fn gather_row<const L: usize>(
    acc: &mut [f64; L],
    v: VertexId,
    neighbors: &[VertexId],
    weights: Option<&[f64]>,
    laziness: f64,
    mass: impl Fn(usize) -> f64,
    plane: SharePlane<'_, L>,
) -> u8 {
    let own = plane.lane_bits[v];
    if neighbors.is_empty() {
        // Nowhere to go: the mass stays.
        if own != 0 {
            for (l, sum) in acc.iter_mut().enumerate() {
                *sum = mass(l);
            }
        }
        return own;
    }
    let mut touched = 0u8;
    let split = if laziness > 0.0 {
        neighbors.partition_point(|&u| u < v)
    } else {
        neighbors.len()
    };
    gather(acc, &mut touched, neighbors, weights, plane, 0..split);
    if laziness > 0.0 && own != 0 {
        touched |= own;
        for (l, sum) in acc.iter_mut().enumerate() {
            *sum += mass(l) * laziness;
        }
    }
    gather(
        acc,
        &mut touched,
        neighbors,
        weights,
        plane,
        split..neighbors.len(),
    );
    touched
}

/// Adds the shares of `neighbors[range]`, in row order, into the `L` lane
/// accumulators (times the edge weight on weighted graphs) and ORs their
/// lane bits into `touched`.
#[inline(always)]
fn gather<const L: usize>(
    acc: &mut [f64; L],
    touched: &mut u8,
    neighbors: &[VertexId],
    weights: Option<&[f64]>,
    plane: SharePlane<'_, L>,
    range: std::ops::Range<usize>,
) {
    let SharePlane { shares, lane_bits } = plane;
    match weights {
        None => {
            for &u in &neighbors[range] {
                let share = &shares[u];
                for l in 0..L {
                    acc[l] += share[l];
                }
                *touched |= lane_bits[u];
            }
        }
        Some(weights) => {
            for (&u, &w) in neighbors[range.clone()].iter().zip(&weights[range]) {
                let share = &shares[u];
                for l in 0..L {
                    acc[l] += share[l] * w;
                }
                *touched |= lane_bits[u];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;
    use cdrw_reference::dense_step;

    #[test]
    fn batch_accessors_and_lane_growth() {
        let mut batch = WalkBatch::with_len(6);
        assert_eq!(batch.len(), 6);
        assert!(!batch.is_empty());
        assert!(WalkBatch::with_len(0).is_empty());
        assert_eq!(batch.lanes(), 0);
        assert_eq!(batch.active_lanes(), 0);
        assert!(!batch.is_active(0));
        batch.ensure_lanes(3);
        assert_eq!(batch.lanes(), 3);
        assert_eq!(batch.active_lanes(), 0);
        batch.ensure_lanes(1); // never shrinks
        assert_eq!(batch.lanes(), 3);
        batch.load_point_masses(&[1, 4]).unwrap();
        assert_eq!(batch.active_lanes(), 2);
        assert!(batch.is_active(0) && batch.is_active(1) && !batch.is_active(2));
        assert_eq!(batch.lane(1).support(), &[4]);
        batch.set_active(1, false);
        assert_eq!(batch.active_lanes(), 1);
        assert!(batch.load_point_masses(&[9]).is_err());
    }

    #[test]
    fn deactivated_lanes_are_frozen() {
        let g = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut batch = WalkBatch::for_graph(&g);
        batch.load_point_masses(&[0, 4]).unwrap();
        engine.step_batch(&mut batch);
        let frozen = batch.lane(1).as_slice().to_vec();
        batch.set_active(1, false);
        engine.step_batch(&mut batch);
        engine.step_batch(&mut batch);
        assert_eq!(batch.lane(1).as_slice(), frozen.as_slice());
        // Re-activating resumes the walk from the frozen state.
        batch.set_active(1, true);
        engine.step_batch(&mut batch);
        let mut solo = engine.workspace();
        solo.load_point_mass(4).unwrap();
        for _ in 0..2 {
            engine.step(&mut solo);
        }
        assert_eq!(batch.lane(1).as_slice(), solo.as_slice());
    }

    #[test]
    fn weighted_lanes_match_solo_weighted_walks() {
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [
            (0usize, 1usize, 0.5),
            (1, 2, 2.0),
            (2, 3, 1.5),
            (3, 4, 4.0),
            (4, 5, 0.25),
            (5, 0, 3.0),
            (1, 4, 1.0),
        ] {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        let g = b.build();
        let engine = WalkEngine::new(&g);
        let seeds = [0usize, 2, 5];
        let mut batch = WalkBatch::for_graph(&g);
        batch.load_point_masses(&seeds).unwrap();
        let mut solos: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let mut ws = engine.workspace();
                ws.load_point_mass(s).unwrap();
                ws
            })
            .collect();
        for _ in 0..6 {
            engine.step_batch(&mut batch);
            for (lane, solo) in solos.iter_mut().enumerate() {
                engine.step(solo);
                assert_eq!(batch.lane(lane).as_slice(), solo.as_slice());
                assert_eq!(batch.lane(lane).support(), solo.support());
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch is over")]
    fn mismatched_batch_panics() {
        let g = GraphBuilder::from_edges(4, [(0, 1)]).unwrap();
        let engine = WalkEngine::new(&g);
        let mut batch = WalkBatch::with_len(5);
        batch.load_point_masses(&[0]).unwrap();
        engine.step_batch(&mut batch);
    }

    #[test]
    fn overlapping_lanes_on_a_clique_match_solo_walks() {
        let (graph, _) = cdrw_gen::special::ring_of_cliques(3, 16).unwrap();
        let engine = WalkEngine::new(&graph);
        let seeds = [0usize, 1, 2, 20];
        let mut batch = WalkBatch::for_graph(&graph);
        batch.load_point_masses(&seeds).unwrap();
        let mut solos: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let mut ws = engine.workspace();
                ws.load_point_mass(s).unwrap();
                ws
            })
            .collect();
        for _ in 0..8 {
            engine.step_batch(&mut batch);
            for (lane, solo) in solos.iter_mut().enumerate() {
                engine.step(solo);
                assert_eq!(batch.lane(lane).as_slice(), solo.as_slice());
                assert_eq!(batch.lane(lane).support(), solo.support());
            }
        }
    }

    /// Steps `seeds` through a batch and through solo workspaces side by
    /// side, asserting every lane's distribution and support after each
    /// step, and that each step takes `expected` direction.
    fn assert_direction_matches_solo(
        engine: &WalkEngine<'_>,
        seeds: &[usize],
        steps: usize,
        expected: StepDirection,
    ) {
        let mut batch = WalkBatch::for_graph(engine.graph());
        batch.load_point_masses(seeds).unwrap();
        let mut solos: Vec<_> = seeds
            .iter()
            .map(|&s| {
                let mut ws = engine.workspace();
                ws.load_point_mass(s).unwrap();
                ws
            })
            .collect();
        for _ in 0..steps {
            assert_eq!(engine.batch_direction(&batch), expected);
            engine.step_batch(&mut batch);
            for (lane, solo) in solos.iter_mut().enumerate() {
                engine.step(solo);
                assert_eq!(batch.lane(lane).as_slice(), solo.as_slice());
                assert_eq!(batch.lane(lane).support(), solo.support());
            }
        }
    }

    #[test]
    fn sparse_frontiers_push() {
        // Two walks at the ends of a long path: their supports stay a few
        // vertices wide, far below a quarter of the graph volume.
        let edges: Vec<_> = (0..199usize).map(|u| (u, u + 1)).collect();
        let g = GraphBuilder::from_edges(200, edges).unwrap();
        let engine = WalkEngine::lazy(&g, 0.25);
        assert_direction_matches_solo(&engine, &[0, 199], 6, StepDirection::Push);
    }

    #[test]
    fn dense_frontiers_pull_in_chunks_of_eight() {
        // Eleven lanes on a ring of cliques: every step's summed support
        // volume exceeds a quarter of the graph volume, and the lanes run
        // through the pull as a chunk of 8 and a chunk of 3.
        let (graph, _) = cdrw_gen::special::ring_of_cliques(3, 8).unwrap();
        let engine = WalkEngine::new(&graph);
        let seeds = [0usize, 1, 2, 5, 8, 9, 13, 16, 20, 23, 23];
        assert_direction_matches_solo(&engine, &seeds, 6, StepDirection::Pull);
    }

    #[test]
    fn lazy_pull_keeps_an_isolated_vertex_and_inserts_the_self_term_in_order() {
        // Vertex 5 is isolated; vertex 2 sits mid-row of its neighbours, so
        // its lazy self-term lands between smaller and larger sources.
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [
            (0usize, 1usize, 0.5),
            (0, 2, 3.0),
            (1, 2, 2.0),
            (2, 3, 1.5),
            (2, 4, 0.75),
            (3, 4, 4.0),
        ] {
            b.add_weighted_edge(u, v, w).unwrap();
        }
        let g = b.build();
        let engine = WalkEngine::lazy(&g, 0.3);
        assert_direction_matches_solo(&engine, &[5, 2, 0, 4], 8, StepDirection::Pull);
    }

    proptest::proptest! {
        /// On arbitrary graphs (unweighted and weighted), lane counts
        /// (beyond one pull chunk of 8), seeds, laziness values and
        /// mid-flight deactivation patterns, every batched lane's
        /// distribution and support are bit-identical to a solo walk of the
        /// same length from the same seed — whether each step picks its own
        /// direction or is forced to push or to pull. The solo step shares
        /// the push's `scatter`, so each lane is also checked against the
        /// dense operator, which shares no stepping code with either.
        #[test]
        fn step_batch_is_bit_identical_to_solo_steps(
            edges in proptest::collection::vec((0usize..16, 0usize..16, 0.125f64..4.0), 1..90),
            seeds in proptest::collection::vec(0usize..16, 1..20),
            laziness in 0.0f64..1.0,
            steps in 1usize..8,
            frozen_after in 0usize..8,
            weighted in 0usize..2,
            forced in 0usize..3,
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v, _)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let g = if weighted == 1 {
                let mut b = GraphBuilder::new(16);
                for &(u, v, w) in &clean {
                    b.add_weighted_edge(u, v, w).unwrap();
                }
                b.build()
            } else {
                GraphBuilder::from_edges(16, clean.iter().map(|&(u, v, _)| (u, v))).unwrap()
            };
            let direction = [None, Some(StepDirection::Push), Some(StepDirection::Pull)][forced];
            let engine = WalkEngine::lazy(&g, laziness);
            let mut batch = WalkBatch::for_graph(&g);
            batch.load_point_masses(&seeds).unwrap();
            // Lane 0 freezes after `frozen_after` steps (if that is sooner
            // than the horizon), mimicking a walk whose growth rule fired.
            let mut lane0_steps = 0usize;
            for step in 0..steps {
                if step == frozen_after {
                    batch.set_active(0, false);
                }
                if batch.is_active(0) {
                    lane0_steps += 1;
                }
                match direction {
                    None => engine.step_batch(&mut batch),
                    Some(direction) => engine.step_batch_in(&mut batch, direction),
                }
            }
            for (lane, &seed) in seeds.iter().enumerate() {
                let walked = if lane == 0 { lane0_steps } else { steps };
                let mut solo = engine.workspace();
                solo.load_point_mass(seed).unwrap();
                let mut dense = solo.as_slice().to_vec();
                for _ in 0..walked {
                    engine.step(&mut solo);
                    dense = dense_step(&g, laziness, &dense);
                }
                prop_assert_eq!(
                    batch.lane(lane).as_slice(),
                    solo.as_slice(),
                    "lane {} diverged from its solo walk",
                    lane
                );
                prop_assert_eq!(batch.lane(lane).support(), solo.support());
                let bits = |values: &[f64]| values.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(batch.lane(lane).as_slice()),
                    bits(dense.as_slice()),
                    "lane {} diverged from the dense operator",
                    lane
                );
            }
        }
    }
}
