//! Global partition assembly via cross-detection evidence pooling.
//!
//! The pool loop of Algorithm 1 emits one detection per seed. Those
//! detections are *independent*: later walks run on the full graph, so
//! detections can overlap, conflict about a vertex, or — on degenerate
//! inputs — leave vertices unassigned. The paper's headline claim is full
//! community recovery, which needs a single consistent global partition; the
//! distributed SBM literature frames exactly this step as evidence
//! aggregation across local detections (Wu, Li & Zhu 2020's pseudo-likelihood
//! aggregation; Wanye et al. 2023's exact distributed block partitioning).
//!
//! [`assemble_run`] is that layer. It consumes the cross-epoch pooled view of
//! a [`WalkEvidence`] accumulator (one [`PooledClaim`] per detection per
//! vertex its walks voted for) and proceeds in three stages:
//!
//! 1. **Evidence grouping** (`evidence_groups`): detections whose member
//!    sets overlap by at least [`LINK_FRACTION`] of the smaller set are
//!    linked, and the connected components of the link graph become *evidence
//!    groups* — fragments of one underlying community. Near the connectivity
//!    threshold a single detection covers only a transient plateau of its
//!    block; the pool loop then re-seeds inside the same block and produces
//!    several heavily-overlapping fragments, which is precisely the signature
//!    the grouping keys on.
//! 2. **Cross-detection re-seeding**: for every group holding at least two
//!    detections, up to `reseed` follow-up walks are started from the
//!    group's highest-pooled-margin members (strided across the margin
//!    ranking, the cross-detection analogue of
//!    [`cdrw_walk::evidence::select_interior_seeds`]) with the growth-rule
//!    floor raised past the largest fragment, so they cannot stop on any
//!    fragment's plateau. Their quorum-filtered consensus joins the group's
//!    member union. This is the ROADMAP's "ensemble seeding across multiple
//!    base detections" — the accuracy lever for the hardest sparse
//!    Figure 4a cells.
//! 3. **Reconciliation**: every vertex claimed by exactly one group keeps it;
//!    contested vertices (claimed by several groups) go to the group with
//!    the largest pooled margin (ties by vote count, then by lowest group
//!    representative); unassigned vertices are absorbed round by round into
//!    the neighbouring community holding most of their neighbours (ties to
//!    the lowest group label; rounds are synchronous, so the result is
//!    deterministic and independent of vertex iteration order). Vertices no
//!    round can absorb — isolated vertices in particular — become singleton
//!    communities, keeping the partition total.
//!
//! The walks of stage 2 are executed through a callback by
//! [`crate::Pipeline::assemble`], on whichever executor runs the pipeline, so
//! every driver shares every decision bit for bit.

use cdrw_graph::{Graph, Partition, VertexId};
use cdrw_walk::evidence::{PooledClaim, WalkEvidence};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::CdrwError;

/// Fraction of the *smaller* member set two detections must share to be
/// linked into one evidence group by overlap alone. One half is a
/// conservative reading of "these walks explored the same region": a
/// fragment re-covered by a later, larger detection of the same block clears
/// it easily, while incidental inter-block leakage stays well below it.
pub const LINK_FRACTION: f64 = 0.5;

/// Fraction of a merged group's mean in-group degree a member must reach to
/// survive affinity pruning. Fragments of one block are wired to each other
/// at the intra-block rate, so genuine members sit near the mean; interlopers
/// that leaked in from another block connect at the far lower inter-block
/// rate and fall clearly below it. Pruned vertices are not lost — the
/// absorption stage re-assigns them to their highest-affinity neighbour
/// community.
pub const PRUNE_FRACTION: f64 = 0.75;

/// One cross-detection re-seed walk's vote: the community-scale member set
/// it votes with plus its mixing margin, or `None` when the walk abstained
/// (it mixed globally without passing a community-scale set).
pub type GroupVote = Option<(Vec<VertexId>, f64)>;

/// Statistics of one global assembly, carried by
/// [`crate::DetectionResult::assembly`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssemblyReport {
    /// Number of evidence groups (= communities of the assembled partition
    /// before singleton fallback).
    pub groups: usize,
    /// Detections that shared their group with at least one other detection.
    pub merged_detections: usize,
    /// Groups that ran cross-detection re-seed walks.
    pub reseeded_groups: usize,
    /// Total re-seed walks executed (abstaining walks included).
    pub reseed_walks: usize,
    /// Vertices claimed by more than one group, resolved by margin vote.
    pub contested: usize,
    /// Unassigned vertices absorbed into a neighbouring community.
    pub absorbed: usize,
    /// Vertices no absorption round could reach; kept as singletons.
    pub singletons: usize,
    /// Synchronous absorption rounds executed.
    pub absorption_rounds: usize,
}

/// Everything [`assemble_run`] produces for the driver.
#[derive(Debug, Clone)]
pub struct AssemblyOutcome {
    /// Refined member sets, one per input detection (every detection of a
    /// group carries the group's full consensus set).
    pub refined: Vec<Vec<VertexId>>,
    /// The assembled total partition.
    pub partition: Partition,
    /// Assembly statistics.
    pub report: AssemblyReport,
    /// Sum of degrees over the still-unassigned vertices at the start of
    /// each absorption round — the per-round message volume a CONGEST driver
    /// charges for the neighbourhood polls.
    pub absorption_volumes: Vec<u64>,
    /// The drained evidence pool — phase-1 claims followed by the re-seed
    /// walks' claims, in flush order. One-shot drivers discard this; the
    /// incremental service caches it so surviving groups' evidence can be
    /// re-pooled on the next refresh instead of re-walked.
    pub claims: Vec<PooledClaim>,
}

/// Links detections into evidence groups and returns the group
/// representative (the smallest detection index of the component) for every
/// detection. Groups are the connected components of the link relation, so
/// the result is independent of any processing order.
///
/// Two community-scale detections are linked when they share at least
/// `LINK_FRACTION · min(|members_i|, |members_j|)` vertices — one detection
/// re-covered a substantial part of the other, the signature of the pool
/// loop fragmenting a single block into several plateau-sized detections.
///
/// Detections beyond community scale (more than two thirds of the graph)
/// are kept out of the link graph entirely: a set that large overlaps
/// *every* fragment almost fully and would chain all groups into one — the
/// same reason a globally-mixed ensemble walk abstains from voting
/// (`cdrw_walk::evidence::community_scale_vote`). Two thirds rather than one
/// half because on a two-block instance a legitimate block detection is
/// `n/2` vertices plus leakage, which must stay linkable. Excluded
/// detections stay in their own singleton group.
fn evidence_groups(graph: &Graph, members: &[Vec<VertexId>]) -> Vec<usize> {
    let num_vertices = graph.num_vertices();
    let d = members.len();
    // Occupancy lists: which detections claim each vertex, ascending.
    let mut claimants: Vec<Vec<u32>> = vec![Vec::new(); num_vertices];
    for (index, set) in members.iter().enumerate() {
        if 3 * set.len() > 2 * num_vertices {
            continue;
        }
        for &v in set {
            if v < num_vertices {
                claimants[v].push(index as u32);
            }
        }
    }
    // Pairwise shared-vertex counts: every (vertex, claiming detection)
    // incidence is walked once, so the cost is O(Σ|members| · k) with k the
    // typical number of detections claiming a vertex — near-linear in
    // practice.
    let mut shared: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for list in &claimants {
        for (i, &a) in list.iter().enumerate() {
            for &b in &list[i + 1..] {
                *shared.entry((a, b)).or_insert(0) += 1;
            }
        }
    }

    let mut parent: Vec<usize> = (0..d).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (&(a, b), &count) in &shared {
        let smaller = members[a as usize].len().min(members[b as usize].len());
        if count > 0 && count as f64 >= LINK_FRACTION * smaller as f64 {
            let ra = find(&mut parent, a as usize);
            let rb = find(&mut parent, b as usize);
            if ra != rb {
                // Union by smaller root so the representative is always the
                // minimum index of the component.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi] = lo;
            }
        }
    }
    (0..d).map(|x| find(&mut parent, x)).collect()
}

/// Ranks `union_members` by pooled margin (descending; ties by vote count
/// descending, then vertex id ascending) and picks up to `count` distinct
/// seeds strided across the ranking — the cross-detection analogue of
/// [`cdrw_walk::evidence::select_interior_seeds`], reading confidence from
/// the pooled evidence instead of one walk's final distribution.
fn select_pooled_seeds(
    union_members: &[VertexId],
    weight: impl Fn(VertexId) -> (f64, u32),
    count: usize,
) -> Vec<VertexId> {
    let mut ranked: Vec<(f64, u32, VertexId)> = union_members
        .iter()
        .map(|&v| {
            let (margin, votes) = weight(v);
            (margin, votes, v)
        })
        .collect();
    ranked.sort_unstable_by(|&(ma, va, a), &(mb, vb, b)| {
        mb.partial_cmp(&ma)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(vb.cmp(&va))
            .then(a.cmp(&b))
    });
    if ranked.len() <= count {
        return ranked.into_iter().map(|(_, _, v)| v).collect();
    }
    (0..count)
        .map(|k| ranked[k * ranked.len() / count].2)
        .collect()
}

/// Folds claims into a per-`(vertex, group representative)` margin and vote
/// weight map, with detections mapped onto their groups.
fn fold_weights_into(
    weights: &mut BTreeMap<(VertexId, usize), (f64, u32)>,
    claims: &[PooledClaim],
    group_of: &[usize],
) {
    for claim in claims {
        // Re-seed claims are tagged with the group representative itself,
        // which is a valid detection index, so this lookup covers both.
        let rep = group_of
            .get(claim.detection as usize)
            .copied()
            .unwrap_or(claim.detection as usize);
        let entry = weights.entry((claim.vertex, rep)).or_insert((0.0, 0));
        entry.0 += claim.margin;
        entry.1 += claim.votes;
    }
}

/// Assembles one run's detections into a total partition.
///
/// `members` are the phase-1 member sets in run order, `evidence` holds the
/// pooled claims of every detection (and receives the re-seed walks' claims),
/// and `reseed_walks(seeds, stop_floor)` executes one merged group's
/// cross-detection follow-up walks — all of them at once, so the executor can
/// step them in lockstep — returning, per seed in order, the community-scale
/// set the walk votes with (or `None` to abstain). The pipeline
/// ([`crate::Pipeline::assemble`]) supplies the callback, so every executor
/// shares every decision.
///
/// The configured `quorum` is clamped at runtime to the walks a group
/// actually recorded (small seed pools and abstentions can leave fewer than
/// `reseed`), mirroring [`crate::EnsemblePolicy`]'s discipline; with no
/// recorded walks the group's consensus is simply its member union.
///
/// # Frozen detections
///
/// `frozen` flags the incremental service's carried-over detections.
/// A frozen detection is a cached survivor of a previous assembly: its
/// member set is already its group's consensus and its pooled claims were
/// re-injected into `evidence` by the caller. A group whose detections are
/// **all** frozen skips both the cross-detection re-seed walks and affinity
/// pruning — its refined set is exactly the cached union, so untouched
/// groups cost no walk work at all; the global reconciliation (contest
/// resolution, absorption, singleton fallback) still runs over every group,
/// keeping the partition total and deterministic. A group containing at
/// least one fresh (unfrozen) detection is in principle re-opened and
/// processed exactly as in the full run — fresh evidence near a cached group
/// invalidates its settled consensus.
///
/// `freeze_tolerance` relaxes that re-opening the same way the service's
/// staleness tolerance relaxes retirement: a *mixed* group (frozen and fresh
/// detections together) stays frozen when its fresh detections contribute at
/// most a `freeze_tolerance`-fraction of the group's volume outside the
/// frozen consensus. Without it, every stray-tail fragment the fresh region
/// emits links into some settled group and re-opens it, and the re-seed
/// walks — the dominant cost of assembly at scale — re-run for groups whose
/// consensus cannot meaningfully change. An ε-frozen group keeps exactly its
/// frozen consensus; the fresh fragments' unique vertices fall through to
/// contest resolution and absorption like any other unclaimed vertex.
///
/// `frozen` is indexed like `members`; an empty slice (or missing tail)
/// means nothing is frozen, and then `freeze_tolerance` has no effect.
///
/// # Errors
///
/// Propagates failures of `reseed_walks` and of evidence recording.
#[allow(clippy::too_many_arguments)]
pub fn assemble_run<W>(
    graph: &Graph,
    reseed: usize,
    quorum: usize,
    members: &[Vec<VertexId>],
    seeds: &[VertexId],
    frozen: &[bool],
    freeze_tolerance: f64,
    evidence: &mut WalkEvidence,
    mut reseed_walks: W,
) -> Result<AssemblyOutcome, CdrwError>
where
    W: FnMut(&[VertexId], usize) -> Result<Vec<GroupVote>, CdrwError>,
{
    let n = graph.num_vertices();
    let group_of = evidence_groups(graph, members);

    // Group representatives in ascending order; per-group member unions.
    let mut reps: Vec<usize> = group_of.clone();
    reps.sort_unstable();
    reps.dedup();
    let group_index: BTreeMap<usize, usize> =
        reps.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut unions: Vec<Vec<VertexId>> = vec![Vec::new(); reps.len()];
    for (detection, &rep) in group_of.iter().enumerate() {
        unions[group_index[&rep]].extend(members[detection].iter().copied());
    }
    for union in &mut unions {
        union.sort_unstable();
        union.dedup();
    }
    let mut group_sizes: Vec<usize> = vec![0; reps.len()];
    for &rep in &group_of {
        group_sizes[group_index[&rep]] += 1;
    }
    let merged_detections = group_of
        .iter()
        .filter(|&&rep| group_sizes[group_index[&rep]] > 1)
        .count();

    // A group is frozen when every one of its detections is frozen: its
    // union is already the consensus refined set from the cached assembly,
    // so re-seed walks and pruning would only redo settled work. A mixed
    // group is normally re-opened by its fresh detections; under a positive
    // `freeze_tolerance` it stays frozen — on its *frozen* consensus alone —
    // when the fresh detections reach at most an ε-fraction of the group's
    // volume beyond that consensus.
    let mut group_has_fresh = vec![false; reps.len()];
    let mut group_has_frozen = vec![false; reps.len()];
    for (detection, &rep) in group_of.iter().enumerate() {
        let g = group_index[&rep];
        if frozen.get(detection).copied().unwrap_or(false) {
            group_has_frozen[g] = true;
        } else {
            group_has_fresh[g] = true;
        }
    }
    let mut group_frozen: Vec<bool> = (0..reps.len())
        .map(|g| group_has_frozen[g] && !group_has_fresh[g])
        .collect();
    if freeze_tolerance > 0.0 {
        for (g, &rep) in reps.iter().enumerate() {
            if !(group_has_frozen[g] && group_has_fresh[g]) {
                continue;
            }
            let mut frozen_union: Vec<VertexId> = Vec::new();
            for (detection, &r) in group_of.iter().enumerate() {
                if r == rep && frozen.get(detection).copied().unwrap_or(false) {
                    frozen_union.extend(members[detection].iter().copied());
                }
            }
            frozen_union.sort_unstable();
            frozen_union.dedup();
            let union_volume: f64 = unions[g].iter().map(|&v| graph.weighted_degree(v)).sum();
            let fresh_outside: f64 = unions[g]
                .iter()
                .filter(|v| frozen_union.binary_search(v).is_err())
                .map(|&v| graph.weighted_degree(v))
                .sum();
            if union_volume > 0.0 && fresh_outside <= freeze_tolerance * union_volume {
                // The fresh fragments cannot meaningfully move this group's
                // consensus: keep the cached one and let their few unique
                // vertices fall through to contest resolution / absorption.
                group_frozen[g] = true;
                unions[g] = frozen_union;
            }
        }
    }

    // Phase-1 weights drive the re-seed ranking; the re-seed walks' own
    // claims are folded in on top afterwards, so no claim is folded twice.
    let phase1_claims = evidence.pooled_claims().len();
    let mut weights: BTreeMap<(VertexId, usize), (f64, u32)> = BTreeMap::new();
    fold_weights_into(&mut weights, evidence.pooled_claims(), &group_of);

    // Cross-detection re-seeding, one evidence epoch per eligible group. The
    // group's walks are handed to the driver together so it can run them in
    // lockstep; votes come back in seed order, so the recorded evidence is
    // identical to walking them one at a time.
    let mut refined_groups: Vec<Vec<VertexId>> = Vec::with_capacity(reps.len());
    let mut reseeded_groups = 0usize;
    let mut total_reseed_walks = 0usize;
    for (g, &rep) in reps.iter().enumerate() {
        let union = std::mem::take(&mut unions[g]);
        if reseed == 0 || group_sizes[g] < 2 || group_frozen[g] {
            refined_groups.push(union);
            continue;
        }
        let floor = group_of
            .iter()
            .enumerate()
            .filter(|&(_, r)| *r == rep)
            .map(|(detection, _)| members[detection].len())
            .max()
            .unwrap_or(0)
            + 1;
        let seeds = select_pooled_seeds(
            &union,
            |v| weights.get(&(v, rep)).copied().unwrap_or((0.0, 0)),
            reseed,
        );
        evidence.begin();
        let votes = reseed_walks(&seeds, floor)?;
        debug_assert_eq!(votes.len(), seeds.len(), "one vote slot per re-seed walk");
        total_reseed_walks += votes.len();
        for (set, margin) in votes.into_iter().flatten() {
            evidence.record_walk(&set, margin)?;
        }
        reseeded_groups += 1;
        let recorded = evidence.walks_recorded();
        let refined = if recorded == 0 {
            union
        } else {
            // The runtime clamp mirroring the builder validation: the quorum
            // can never exceed the walks actually recorded.
            evidence.consensus_with(quorum.min(recorded) as u32, &union)
        };
        evidence.pool_epoch(rep as u32);
        refined_groups.push(refined);
    }

    // Affinity pruning: a vertex of a merged group whose edges into the
    // group fall clearly below the group's typical in-group degree is an
    // interloper from another block; unclaim it and let the absorption stage
    // re-assign it by neighbour affinity. Detection seeds are never pruned.
    {
        let mut group_seeds: Vec<Vec<VertexId>> = vec![Vec::new(); reps.len()];
        for (detection, &rep) in group_of.iter().enumerate() {
            if let Some(&seed) = seeds.get(detection) {
                group_seeds[group_index[&rep]].push(seed);
            }
        }
        for (g, refined) in refined_groups.iter_mut().enumerate() {
            if group_sizes[g] < 2 || refined.len() < 3 || group_frozen[g] {
                continue;
            }
            // Weighted in-group degree; on an unweighted graph each in-group
            // edge contributes exactly 1.0, so this is the in-group edge
            // count bit for bit.
            let in_degree: Vec<f64> = refined
                .iter()
                .map(|&v| {
                    let row = graph.neighbor_slice(v);
                    match graph.weight_slice(v) {
                        None => row
                            .iter()
                            .filter(|u| refined.binary_search(u).is_ok())
                            .count() as f64,
                        Some(row_weights) => row
                            .iter()
                            .zip(row_weights)
                            .filter(|(u, _)| refined.binary_search(u).is_ok())
                            .fold(0.0, |acc, (_, &w)| acc + w),
                    }
                })
                .collect();
            let mean = in_degree.iter().fold(0.0, |acc, d| acc + d) / refined.len() as f64;
            let keep: Vec<VertexId> = refined
                .iter()
                .zip(&in_degree)
                .filter(|&(&v, &din)| din >= PRUNE_FRACTION * mean || group_seeds[g].contains(&v))
                .map(|(&v, _)| v)
                .collect();
            *refined = keep;
        }
    }

    // Fold the re-seed walks' claims on top of the phase-1 weights: the
    // full map decides contested vertices below. The pool is drained so a
    // reused accumulator starts the next run clean.
    let claims = evidence.take_pool();
    fold_weights_into(&mut weights, &claims[phase1_claims..], &group_of);

    // Membership marking with margin-weighted contest resolution.
    let mut assignment: Vec<usize> = vec![usize::MAX; n];
    let mut contested = 0usize;
    {
        let mut claimed_by: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (g, refined) in refined_groups.iter().enumerate() {
            for &v in refined {
                if v < n {
                    claimed_by[v].push(g);
                }
            }
        }
        for (v, groups) in claimed_by.iter().enumerate() {
            match groups.as_slice() {
                [] => {}
                [only] => assignment[v] = *only,
                _ => {
                    contested += 1;
                    let best = groups
                        .iter()
                        .map(|&g| {
                            let (margin, votes) =
                                weights.get(&(v, reps[g])).copied().unwrap_or((0.0, 0));
                            // Normalise by the community's size: a mixing
                            // margin spread over a near-global set is far
                            // weaker per-vertex evidence than the same margin
                            // concentrated on one block.
                            (margin / refined_groups[g].len().max(1) as f64, votes, g)
                        })
                        // Highest margin wins; ties by vote count, then by
                        // the lowest group (deterministic).
                        .reduce(|a, b| {
                            if b.0 > a.0 || (b.0 == a.0 && b.1 > a.1) {
                                b
                            } else {
                                a
                            }
                        })
                        .expect("at least two claimants");
                    assignment[v] = best.2;
                }
            }
        }
    }

    // Synchronous absorption of unassigned vertices.
    let mut absorbed = 0usize;
    let mut absorption_volumes: Vec<u64> = Vec::new();
    let mut unassigned: Vec<VertexId> = (0..n).filter(|&v| assignment[v] == usize::MAX).collect();
    loop {
        // Each unassigned vertex polls its neighbourhood; a vertex with no
        // assigned neighbour this round stays for the next one.
        let mut updates: Vec<(VertexId, usize)> = Vec::new();
        for &v in &unassigned {
            // Weighted neighbour vote: each assigned neighbour contributes
            // its edge weight (1.0 per edge unweighted, so the vote is the
            // neighbour count bit for bit).
            let mut counts: BTreeMap<usize, f64> = BTreeMap::new();
            let row = graph.neighbor_slice(v);
            match graph.weight_slice(v) {
                None => {
                    for &u in row {
                        if assignment[u] != usize::MAX {
                            *counts.entry(assignment[u]).or_insert(0.0) += 1.0;
                        }
                    }
                }
                Some(row_weights) => {
                    for (&u, &w) in row.iter().zip(row_weights) {
                        if assignment[u] != usize::MAX {
                            *counts.entry(assignment[u]).or_insert(0.0) += w;
                        }
                    }
                }
            }
            // Heaviest neighbourhood wins; ties go to the lowest group label
            // (BTreeMap iterates ascending, strict `>` keeps the first).
            let mut best: Option<(usize, f64)> = None;
            for (&g, &count) in &counts {
                if best.map(|(_, c)| count > c).unwrap_or(true) {
                    best = Some((g, count));
                }
            }
            if let Some((g, _)) = best {
                updates.push((v, g));
            }
        }
        if updates.is_empty() {
            break;
        }
        absorption_volumes.push(
            unassigned
                .iter()
                .map(|&v| graph.degree(v) as u64)
                .sum::<u64>(),
        );
        for &(v, g) in &updates {
            assignment[v] = g;
        }
        absorbed += updates.len();
        unassigned.retain(|&v| assignment[v] == usize::MAX);
        if unassigned.is_empty() {
            break;
        }
    }
    let singletons = unassigned.len();

    // Total labelling: groups keep their index, leftovers get fresh labels.
    let mut next_fresh = refined_groups.len();
    for slot in assignment.iter_mut() {
        if *slot == usize::MAX {
            *slot = next_fresh;
            next_fresh += 1;
        }
    }
    let partition =
        Partition::from_assignment(assignment).expect("assembly assignment is total and non-empty");

    let refined = group_of
        .iter()
        .map(|&rep| refined_groups[group_index[&rep]].clone())
        .collect();
    let report = AssemblyReport {
        groups: refined_groups.len(),
        merged_detections,
        reseeded_groups,
        reseed_walks: total_reseed_walks,
        contested,
        absorbed,
        singletons,
        absorption_rounds: absorption_volumes.len(),
    };
    Ok(AssemblyOutcome {
        refined,
        partition,
        report,
        absorption_volumes,
        claims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrw_graph::GraphBuilder;

    fn seeds_of(members: &[Vec<VertexId>]) -> Vec<VertexId> {
        members.iter().map(|set| set[0]).collect()
    }

    fn no_walks(seeds: &[VertexId], _floor: usize) -> Result<Vec<GroupVote>, CdrwError> {
        Ok(vec![None; seeds.len()])
    }

    fn evidence_for(n: usize, members: &[Vec<VertexId>]) -> WalkEvidence {
        let mut evidence = WalkEvidence::with_len(n);
        for (index, set) in members.iter().enumerate() {
            evidence.begin();
            evidence.record_walk(set, 0.1).unwrap();
            evidence.pool_epoch(index as u32);
        }
        evidence
    }

    /// An edgeless-but-valid sparse graph so the overlap rule is exercised
    /// without density links (every internal density is 0).
    fn sparse_graph(n: usize) -> Graph {
        GraphBuilder::from_edges(n, [(n - 2, n - 1)]).unwrap()
    }

    #[test]
    fn heavily_overlapping_detections_group_together() {
        let members = vec![
            vec![0, 1, 2, 3],
            vec![2, 3, 4, 5], // shares 2 of 4 with the first — linked
            vec![8, 9],       // disjoint — own group
        ];
        let groups = evidence_groups(&sparse_graph(12), &members);
        assert_eq!(groups, vec![0, 0, 2]);
    }

    #[test]
    fn light_overlap_stays_separate() {
        let members = vec![vec![0, 1, 2, 3, 4, 5, 6, 7], vec![7, 8, 9, 10, 11, 12]];
        // Shared: one vertex of a 6-member set — below LINK_FRACTION.
        let groups = evidence_groups(&sparse_graph(16), &members);
        assert_eq!(groups, vec![0, 1]);
    }

    #[test]
    fn singleton_claimed_by_a_later_detection_joins_its_group() {
        let members = vec![vec![3], vec![2, 3, 4, 5]];
        let groups = evidence_groups(&sparse_graph(8), &members);
        assert_eq!(groups, vec![0, 0]);
    }

    #[test]
    fn whole_graph_detections_never_link() {
        // A complete graph: one detection covers everything (beyond
        // community scale), another a small fragment. Without the
        // community-scale guard the giant set would chain every group.
        let mut edges = Vec::new();
        for u in 0..8 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        let g = GraphBuilder::from_edges(8, edges).unwrap();
        let members = vec![(0..8).collect::<Vec<_>>(), vec![0, 1, 2]];
        let groups = evidence_groups(&g, &members);
        assert_eq!(groups, vec![0, 1]);
    }

    #[test]
    fn reconcile_only_unions_groups_and_totalises_the_partition() {
        // Path 0-1-2-3-4-5 plus an isolated vertex 6.
        let g = GraphBuilder::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let members = vec![vec![0, 1, 2], vec![1, 2, 3], vec![5]];
        let mut evidence = evidence_for(7, &members);
        let outcome = assemble_run(
            &g,
            0,
            0,
            &members,
            &seeds_of(&members),
            &[],
            0.0,
            &mut evidence,
            no_walks,
        )
        .unwrap();
        // Detections 0 and 1 merge; both carry the pruned union: the path
        // endpoint 3 has one in-group edge against a mean of 1.5 and is
        // pruned back out (it is no detection's seed), to be re-absorbed by
        // neighbour affinity below.
        assert_eq!(outcome.refined[0], vec![0, 1, 2]);
        assert_eq!(outcome.refined[1], vec![0, 1, 2]);
        assert_eq!(outcome.refined[2], vec![5]);
        assert_eq!(outcome.report.groups, 2);
        assert_eq!(outcome.report.merged_detections, 2);
        assert_eq!(outcome.report.reseed_walks, 0);
        // Vertices 3 and 4 are absorbed in one synchronous round (3 sees
        // group 0 through vertex 2, 4 sees group 1 through vertex 5); the
        // isolated vertex 6 stays a singleton.
        assert_eq!(outcome.report.absorbed, 2);
        assert_eq!(outcome.report.absorption_rounds, 1);
        assert_eq!(outcome.report.singletons, 1);
        let p = &outcome.partition;
        assert_eq!(p.num_vertices(), 7);
        assert_eq!(p.community_sizes().iter().sum::<usize>(), 7);
        assert_eq!(p.community_of(3), p.community_of(0));
        assert_eq!(p.community_of(4), p.community_of(5));
        assert_ne!(p.community_of(6), p.community_of(5));
        assert_ne!(p.community_of(6), p.community_of(0));
    }

    #[test]
    fn contested_vertices_follow_the_larger_pooled_margin() {
        let g =
            GraphBuilder::from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (3, 4)]).unwrap();
        // Vertex 3 belongs to both (disjoint enough not to group: shares 1 of
        // 4). Detection 1 votes for it with a larger margin.
        let members = vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6]];
        let mut evidence = WalkEvidence::with_len(8);
        evidence.begin();
        evidence.record_walk(&members[0], 0.05).unwrap();
        evidence.pool_epoch(0);
        evidence.begin();
        evidence.record_walk(&members[1], 0.2).unwrap();
        evidence.pool_epoch(1);
        let outcome = assemble_run(
            &g,
            0,
            0,
            &members,
            &seeds_of(&members),
            &[],
            0.0,
            &mut evidence,
            no_walks,
        )
        .unwrap();
        assert_eq!(outcome.report.groups, 2);
        assert_eq!(outcome.report.contested, 1);
        assert_eq!(
            outcome.partition.community_of(3),
            outcome.partition.community_of(4),
            "vertex 3 must follow the higher-margin claim"
        );
        // Refined sets still carry the overlap (they are per-detection
        // answers); only the partition is disjoint.
        assert!(outcome.refined[0].contains(&3));
        assert!(outcome.refined[1].contains(&3));
    }

    #[test]
    fn margin_ties_resolve_to_votes_then_lowest_group() {
        let g =
            GraphBuilder::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]).unwrap();
        // Equal-size communities (so the size normalisation divides both
        // margins by 4) with identical pooled margins on the contested
        // vertex 3 (shared 1 of 4 — no link), but detection 1 voted twice.
        let members = vec![vec![0, 1, 2, 3], vec![3, 4, 5, 6]];
        let mut evidence = WalkEvidence::with_len(7);
        evidence.begin();
        evidence.record_walk(&members[0], 0.1).unwrap();
        evidence.pool_epoch(0);
        evidence.begin();
        evidence.record_walk(&[3, 4, 5], 0.05).unwrap();
        evidence.record_walk(&[3, 5, 6], 0.05).unwrap();
        evidence.pool_epoch(1);
        let outcome = assemble_run(
            &g,
            0,
            0,
            &members,
            &seeds_of(&members),
            &[],
            0.0,
            &mut evidence,
            no_walks,
        )
        .unwrap();
        assert_eq!(outcome.report.contested, 1);
        assert_eq!(
            outcome.partition.community_of(3),
            outcome.partition.community_of(4),
            "equal normalised margins: more votes win"
        );
    }

    #[test]
    fn reseed_walks_extend_the_group_consensus_with_quorum_clamping() {
        let g = GraphBuilder::from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
            ],
        )
        .unwrap();
        let members = vec![vec![0, 1, 2, 3], vec![2, 3, 4, 5]];
        let mut evidence = evidence_for(10, &members);
        let mut floors = Vec::new();
        // Two of the requested three walks abstain: the recorded count is 1,
        // so the configured quorum of 2 must clamp down to 1 and the voted
        // vertices 6 and 7 still join the consensus.
        let outcome = assemble_run(
            &g,
            3,
            2,
            &members,
            &seeds_of(&members),
            &[],
            0.0,
            &mut evidence,
            |seeds, floor| {
                assert!(seeds.iter().all(|&seed| seed < 10));
                floors.extend(seeds.iter().map(|_| floor));
                let mut votes: Vec<GroupVote> = vec![None; seeds.len()];
                votes[0] = Some((vec![2, 3, 6, 7], 0.3));
                Ok(votes)
            },
        )
        .unwrap();
        assert_eq!(outcome.report.reseeded_groups, 1);
        assert_eq!(outcome.report.reseed_walks, 3);
        // The floor is raised past the largest fragment (4 members → 5). The
        // path endpoint 7 of the extended consensus is pruned back out (one
        // in-group edge against a mean of 1.75) and re-absorbed below.
        assert!(floors.iter().all(|&f| f == 5));
        assert_eq!(outcome.refined[0], vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(outcome.refined[0], outcome.refined[1]);
        let p = &outcome.partition;
        assert_eq!(p.community_of(6), p.community_of(0));
        assert_eq!(p.community_of(7), p.community_of(0));
        assert_eq!(p.community_sizes().iter().sum::<usize>(), 10);
    }

    #[test]
    fn no_detections_means_all_singletons() {
        let g = GraphBuilder::from_edges(3, [(0, 1)]).unwrap();
        let mut evidence = WalkEvidence::with_len(3);
        let outcome = assemble_run(&g, 2, 1, &[], &[], &[], 0.0, &mut evidence, no_walks).unwrap();
        assert_eq!(outcome.report.groups, 0);
        assert_eq!(outcome.report.singletons, 3);
        assert_eq!(outcome.partition.num_communities(), 3);
    }

    #[test]
    fn absorption_propagates_over_multiple_rounds() {
        // Path 0-1-2-3-4; only vertex 0 is detected, the rest are absorbed
        // one hop per round.
        let g = GraphBuilder::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let members = vec![vec![0]];
        let mut evidence = evidence_for(5, &members);
        let outcome = assemble_run(
            &g,
            0,
            0,
            &members,
            &seeds_of(&members),
            &[],
            0.0,
            &mut evidence,
            no_walks,
        )
        .unwrap();
        assert_eq!(outcome.report.absorbed, 4);
        assert_eq!(outcome.report.absorption_rounds, 4);
        assert_eq!(outcome.absorption_volumes.len(), 4);
        // Round volumes shrink as vertices are absorbed: degrees of the
        // still-unassigned vertices are 2+2+2+1, then 2+2+1, 2+1, 1.
        assert_eq!(outcome.absorption_volumes, vec![7, 5, 3, 1]);
        assert_eq!(outcome.partition.num_communities(), 1);
    }
}
