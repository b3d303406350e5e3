//! Streaming service layer: a long-lived detector over a changing graph.
//!
//! [`CdrwService`] owns a [`DeltaGraph`] (committed CSR plus pending edge
//! churn), the last [`DetectionResult`], and the evidence-pool claims that
//! produced it. Queries ([`CdrwService::community_of`],
//! [`CdrwService::partition`]) answer from the cached assembly without any
//! walk work; [`CdrwService::refresh`] folds pending churn into the CSR and
//! re-detects **incrementally**:
//!
//! 1. Every commit reports its dirty vertices — the endpoints of edges that
//!    were added, removed or re-weighted. A cached detection is structurally
//!    affected by the churn iff its member set intersects the accumulated
//!    dirty set: the cut, volume and internal topology of a vertex set
//!    depend only on edges with an endpoint inside the set, so detections
//!    disjoint from the dirty set are bit-for-bit unaffected. An optional
//!    staleness tolerance `ε` ([`CdrwService::set_staleness_tolerance`])
//!    additionally keeps detections whose dirty members carry at most an
//!    `ε`-fraction of the set's volume — real member sets drag along a thin
//!    tail of boundary vertices from neighbouring communities, and without a
//!    tolerance those strays make *every* detection stale under localized
//!    churn.
//! 2. Stale detections are retired together with their pooled claims
//!    ([`cdrw_walk::WalkEvidence::retire_groups`]); surviving detections
//!    keep their refined member sets and their claims are re-pooled under
//!    their new indices — no walk is re-run for them.
//! 3. The uncovered region (vertices of no surviving detection) is re-seeded
//!    by the one-shot driver's own pool loop ([`crate::Pipeline::seed_pool`],
//!    started from the survivors' coverage), and the global assembly runs
//!    with the survivors *frozen* ([`crate::assembly::assemble_run`]):
//!    frozen groups skip re-seed walks and pruning, fresh detections are
//!    reconciled against them, and the result is a new total partition. The
//!    staleness tolerance `ε` doubles as the assembly's freeze tolerance: a
//!    settled group approached by an ε-negligible fresh fragment keeps its
//!    cached consensus instead of re-running its (expensive) re-seed walks.
//!
//! [`CdrwService::refresh_full`] is the reference path: it re-runs the
//! complete one-shot pipeline ([`Cdrw::detect_all`] internally) on the
//! committed graph. A refresh on a service that has never detected before
//! takes the full path too, so a *single-commit* service refresh is
//! bit-identical to [`Cdrw::detect_all`] on the same graph — the one-shot
//! API is exactly the degenerate case of the service (property-pinned in
//! this module's tests).
//!
//! The growth threshold `δ` is resolved on every full refresh and **reused**
//! by incremental refreshes: under the bounded churn the incremental path is
//! designed for (about 1% of edges), a sweep- or conductance-derived
//! threshold drifts negligibly, and re-estimating it would rewalk the whole
//! graph — defeating the point of the incremental path. Call
//! [`CdrwService::refresh_full`] to re-anchor `δ` after heavy churn.
//!
//! ## Degrading gracefully
//!
//! A refresh that fails — a poisoned commit, an invalid configuration, a
//! detection error — never poisons the cache: the previous partition stays
//! installed and every query keeps answering from it, with
//! [`ServiceStats::degraded`] raised so operators can tell stale-but-served
//! from up-to-date. Repeated failures back off: after the `f`-th consecutive
//! failure the next `2^(f-1)` (capped at 8) [`CdrwService::refresh`] calls
//! decline to re-attempt and return [`RefreshKind::Degraded`] immediately —
//! a hot query loop keeps being served from the cache instead of paying a
//! doomed detection per call. [`CdrwService::refresh_full`] bypasses the
//! backoff (the operator's explicit retry), and any successful refresh —
//! including a clean no-op — clears the flag and the failure streak.
//! [`CdrwService::discard_pending`] drops a poisoned journal so the next
//! attempt can succeed.

use cdrw_graph::{CommitReport, DeltaGraph, Graph, GraphError, Partition, VertexId};
use cdrw_walk::evidence::PooledClaim;

use crate::pipeline::Pipeline;
use crate::result::{CommunityDetection, DetectionResult};
use crate::{Cdrw, CdrwError};

/// How a [`CdrwService::refresh`] satisfied its contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// The complete one-shot pipeline ran on the committed graph: the first
    /// refresh, or an explicit [`CdrwService::refresh_full`]. An incremental
    /// refresh that finds every cached detection stale still reports
    /// [`RefreshKind::Incremental`], with no survivors.
    Full,
    /// Cached detections disjoint from the dirty set were kept (members,
    /// claims and all); only the dirty region was re-walked.
    Incremental,
    /// Nothing was pending and nothing was dirty: the cached result is
    /// current and no walk ran.
    Clean,
    /// A previous refresh failed and the failure backoff declined to
    /// re-attempt: the (stale) cached partition keeps being served. See the
    /// [module docs](self) on degrading gracefully.
    Degraded,
}

/// What one [`CdrwService::refresh`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshReport {
    /// Which path the refresh took.
    pub kind: RefreshKind,
    /// Dirty vertices accumulated since the previous refresh (endpoints of
    /// changed edges over all commits in between).
    pub dirty_vertices: usize,
    /// Cached detections invalidated because their members intersected the
    /// dirty set (0 on the full path).
    pub retired: usize,
    /// Cached detections carried over without re-walking (0 on the full
    /// path).
    pub surviving: usize,
    /// Detections produced by new walks this refresh.
    pub fresh: usize,
    /// Evidence groups that ran cross-detection re-seed walks during
    /// assembly — on the incremental path only groups containing fresh
    /// evidence, never frozen survivors.
    pub reseeded_groups: usize,
}

/// Cache and churn counters of a [`CdrwService`], for monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Vertices of the committed graph.
    pub num_vertices: usize,
    /// Edges of the committed graph.
    pub num_edges: usize,
    /// Edge operations buffered but not yet committed.
    pub pending_ops: usize,
    /// Dirty vertices accumulated by commits since the last refresh.
    pub dirty_vertices: usize,
    /// Whether queries are answered from a partition that predates committed
    /// or pending churn (`true` until the next refresh), or no detection has
    /// run yet.
    pub stale: bool,
    /// Whether the last refresh attempt failed and queries are being served
    /// from the previous (possibly stale) partition. Cleared by the next
    /// successful refresh.
    pub degraded: bool,
    /// Refresh attempts that have failed since the last success; drives the
    /// failure backoff (see the [module docs](self)).
    pub consecutive_failures: u32,
    /// Detections in the cached result (`None` before the first refresh).
    pub detections: Option<usize>,
    /// Total refreshes served, including clean no-ops.
    pub refreshes: usize,
    /// Refreshes that took the full path.
    pub full_refreshes: usize,
    /// Refreshes that took the incremental path.
    pub incremental_refreshes: usize,
}

struct CachedDetection {
    result: DetectionResult,
    /// The drained evidence pool behind `result` (empty under
    /// [`AssemblyPolicy::Raw`]), in flush order, indexed by detection.
    claims: Vec<PooledClaim>,
    /// The growth threshold the result was detected with; reused by
    /// incremental refreshes (see the module docs).
    delta: f64,
}

/// A long-lived community-detection service over a changing graph.
///
/// See the [module documentation](self) for the refresh semantics.
///
/// # Examples
///
/// ```
/// use cdrw_core::{Cdrw, CdrwConfig, CdrwService};
/// use cdrw_gen::{generate_ppm, PpmParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (graph, _) = generate_ppm(&PpmParams::new(256, 2, 0.25, 0.002)?, 17)?;
/// let cdrw = Cdrw::new(CdrwConfig::builder().seed(4).delta(0.05).build());
///
/// let mut service = CdrwService::new(cdrw, graph);
/// service.refresh()?; // first refresh: full detection
/// let home = service.community_of(0).expect("partition is total");
///
/// // Stream some churn, then bring the partition up to date.
/// service.remove_edge(0, 1)?;
/// service.add_edge(0, 2)?;
/// let report = service.refresh()?;
/// assert!(report.retired + report.surviving > 0);
/// assert!(service.community_of(0).is_some());
/// # let _ = home;
/// # Ok(())
/// # }
/// ```
pub struct CdrwService {
    cdrw: Cdrw,
    graph: DeltaGraph,
    cached: Option<CachedDetection>,
    /// Dirty mask accumulated over commits since the last refresh.
    dirty: Vec<bool>,
    dirty_count: usize,
    staleness_tolerance: f64,
    refreshes: usize,
    full_refreshes: usize,
    incremental_refreshes: usize,
    /// Refresh attempts failed since the last success.
    consecutive_failures: u32,
    /// `refresh()` calls left to decline before the next re-attempt.
    backoff_skips: u32,
}

impl CdrwService {
    /// Creates a service over `graph` with the given detector configuration.
    ///
    /// No detection runs until the first [`CdrwService::refresh`].
    pub fn new(cdrw: Cdrw, graph: Graph) -> Self {
        let n = graph.num_vertices();
        CdrwService {
            cdrw,
            graph: DeltaGraph::new(graph),
            cached: None,
            dirty: vec![false; n],
            dirty_count: 0,
            staleness_tolerance: 0.0,
            refreshes: 0,
            full_refreshes: 0,
            incremental_refreshes: 0,
            consecutive_failures: 0,
            backoff_skips: 0,
        }
    }

    /// The committed graph queries and detections run against.
    pub fn graph(&self) -> &Graph {
        self.graph.graph()
    }

    /// The detector configuration in use.
    pub fn detector(&self) -> &Cdrw {
        &self.cdrw
    }

    /// The staleness tolerance `ε` of the incremental refresh (0 by
    /// default — exact invalidation).
    pub fn staleness_tolerance(&self) -> f64 {
        self.staleness_tolerance
    }

    /// Sets the staleness tolerance `ε` of the incremental refresh.
    ///
    /// With `ε = 0` (the default) a cached detection is retired as soon as a
    /// single member is dirty — exact, but pessimistic on real detections,
    /// whose member sets carry a thin tail of boundary vertices from
    /// neighbouring communities: localized churn then touches *every*
    /// detection through one or two such strays and the incremental path
    /// degenerates to a full re-detection.
    ///
    /// With `ε > 0` a detection is retired only when its dirty members carry
    /// more than an `ε`-fraction of the set's (weighted) volume. The cut,
    /// volume and mixing profile of the set then move by at most that
    /// fraction, so perturbations below the growth tolerance `δ` the
    /// detection was stopped with cannot meaningfully flip its acceptance —
    /// `ε` on the order of `δ` keeps the partition within the same tolerance
    /// the detector itself works at, trading bit-exactness of survivors for
    /// locality of the refresh. The same `ε` is handed to the assembly as
    /// its freeze tolerance: an evidence group whose fresh fragments stay
    /// under an `ε`-fraction of its volume keeps its settled consensus and
    /// skips its re-seed walks (see
    /// [`crate::assembly::assemble_run`]). Negative values are
    /// clamped to 0.
    pub fn set_staleness_tolerance(&mut self, epsilon: f64) {
        self.staleness_tolerance = epsilon.max(0.0);
    }

    /// Buffers an unweighted edge addition (see [`DeltaGraph::add_edge`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaGraph::add_edge`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.graph.add_edge(u, v)
    }

    /// Buffers a weighted edge addition (see
    /// [`DeltaGraph::add_weighted_edge`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaGraph::add_weighted_edge`].
    pub fn add_weighted_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: f64,
    ) -> Result<(), GraphError> {
        self.graph.add_weighted_edge(u, v, weight)
    }

    /// Buffers an edge removal (see [`DeltaGraph::remove_edge`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaGraph::remove_edge`].
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.graph.remove_edge(u, v)
    }

    /// Discards buffered-but-uncommitted edge operations — the escape hatch
    /// for a poisoned journal that keeps failing to commit (see the
    /// [module docs](self) on degrading gracefully).
    pub fn discard_pending(&mut self) {
        self.graph.discard_pending();
    }

    /// Folds pending operations into the committed CSR and accumulates the
    /// reported dirty vertices towards the next refresh. Queries keep
    /// answering from the cached (now stale) partition until then. Called
    /// implicitly by the refresh methods; call it directly to batch several
    /// commits between refreshes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaGraph::commit`].
    pub fn commit(&mut self) -> Result<CommitReport, GraphError> {
        let report = self.graph.commit()?;
        for &v in &report.dirty {
            if !self.dirty[v] {
                self.dirty[v] = true;
                self.dirty_count += 1;
            }
        }
        Ok(report)
    }

    /// The community label of `v` in the cached partition, or `None` before
    /// the first refresh (or for an out-of-range vertex). Answers from the
    /// cache — no walk work; the label may be stale if churn was committed
    /// or buffered since the last refresh (see [`ServiceStats::stale`]).
    pub fn community_of(&self, v: VertexId) -> Option<usize> {
        self.cached.as_ref()?.result.partition().community_of(v)
    }

    /// The cached total partition, or `None` before the first refresh.
    pub fn partition(&self) -> Option<&Partition> {
        self.cached.as_ref().map(|c| c.result.partition())
    }

    /// The cached detection result, or `None` before the first refresh.
    pub fn result(&self) -> Option<&DetectionResult> {
        self.cached.as_ref().map(|c| &c.result)
    }

    /// Cache and churn counters, including the staleness of the answers
    /// [`CdrwService::community_of`] currently serves.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            num_vertices: self.graph.num_vertices(),
            num_edges: self.graph.graph().num_edges(),
            pending_ops: self.graph.pending_ops(),
            dirty_vertices: self.dirty_count,
            stale: self.cached.is_none() || self.dirty_count > 0 || self.graph.pending_ops() > 0,
            degraded: self.consecutive_failures > 0,
            consecutive_failures: self.consecutive_failures,
            detections: self.cached.as_ref().map(|c| c.result.num_communities()),
            refreshes: self.refreshes,
            full_refreshes: self.full_refreshes,
            incremental_refreshes: self.incremental_refreshes,
        }
    }

    /// Commits pending churn and brings the cached partition up to date,
    /// preferring the incremental path: detections whose members are
    /// disjoint from the accumulated dirty set are carried over without any
    /// walk work, only the dirty region is re-walked, and the assembly runs
    /// with the survivors frozen. Falls back to the full path on the first
    /// refresh; returns immediately when nothing changed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaGraph::commit`] and [`Cdrw::detect_all`].
    /// A failure leaves the previous partition installed and servable
    /// ([`ServiceStats::degraded`] is raised), and arms the failure backoff:
    /// follow-up calls may decline to re-attempt and return
    /// [`RefreshKind::Degraded`] instead (see the [module docs](self)).
    pub fn refresh(&mut self) -> Result<RefreshReport, CdrwError> {
        if self.backoff_skips > 0 && self.cached.is_some() {
            self.backoff_skips -= 1;
            self.refreshes += 1;
            return Ok(RefreshReport {
                kind: RefreshKind::Degraded,
                dirty_vertices: self.dirty_count,
                retired: 0,
                surviving: self
                    .cached
                    .as_ref()
                    .map_or(0, |c| c.result.num_communities()),
                fresh: 0,
                reseeded_groups: 0,
            });
        }
        let outcome = self.try_refresh();
        self.settle(outcome)
    }

    fn try_refresh(&mut self) -> Result<RefreshReport, CdrwError> {
        self.commit()?;
        if self.cached.is_none() {
            return self.run_full();
        }
        if self.dirty_count == 0 {
            self.refreshes += 1;
            return Ok(RefreshReport {
                kind: RefreshKind::Clean,
                dirty_vertices: 0,
                retired: 0,
                surviving: self
                    .cached
                    .as_ref()
                    .map_or(0, |c| c.result.num_communities()),
                fresh: 0,
                reseeded_groups: 0,
            });
        }
        self.run_incremental()
    }

    /// Books a refresh attempt's outcome into the degradation state: any
    /// success clears the failure streak, a failure extends it and arms the
    /// exponential backoff (1, 2, 4, then 8 declined calls).
    fn settle(
        &mut self,
        outcome: Result<RefreshReport, CdrwError>,
    ) -> Result<RefreshReport, CdrwError> {
        match &outcome {
            Ok(_) => {
                self.consecutive_failures = 0;
                self.backoff_skips = 0;
            }
            Err(_) => {
                self.consecutive_failures += 1;
                self.backoff_skips = 1u32 << (self.consecutive_failures - 1).min(3);
            }
        }
        outcome
    }

    /// Commits pending churn and re-runs the complete one-shot detection
    /// pipeline on the committed graph — the reference path the incremental
    /// refresh is measured against. Also re-resolves the growth threshold
    /// `δ`. Bypasses the failure backoff: this is the operator's explicit
    /// retry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeltaGraph::commit`] and [`Cdrw::detect_all`].
    pub fn refresh_full(&mut self) -> Result<RefreshReport, CdrwError> {
        let outcome = match self.commit() {
            Ok(_) => self.run_full(),
            Err(e) => Err(e.into()),
        };
        self.settle(outcome)
    }

    fn run_full(&mut self) -> Result<RefreshReport, CdrwError> {
        let pipeline = Pipeline::new(self.cdrw.config(), self.graph.graph())?;
        let (result, claims) = pipeline.detect_all(&mut pipeline.local_lanes())?;
        let delta = pipeline.delta();
        let report = RefreshReport {
            kind: RefreshKind::Full,
            dirty_vertices: self.dirty_count,
            retired: 0,
            surviving: 0,
            fresh: result.num_communities(),
            reseeded_groups: result.assembly().map_or(0, |a| a.reseeded_groups),
        };
        self.install(result, claims, delta);
        self.full_refreshes += 1;
        Ok(report)
    }

    fn run_incremental(&mut self) -> Result<RefreshReport, CdrwError> {
        // Borrow — never remove — the cached result: every fallible step
        // below must leave it installed and servable on the error path.
        let cached = self
            .cached
            .as_ref()
            .expect("incremental refresh requires a cached result");
        let graph = self.graph.graph();
        let pipeline = Pipeline::with_delta(self.cdrw.config(), graph, cached.delta)?;
        let n = graph.num_vertices();
        let pooling = self.cdrw.config().assembly.is_pooled();

        // 1. Split the cached detections on the dirty set. With a zero
        // tolerance a detection is stale iff it contains an endpoint of a
        // changed edge; with `ε > 0` it is stale iff its dirty members carry
        // more than an ε-fraction of its volume (see
        // [`CdrwService::set_staleness_tolerance`]). Everything else is
        // structurally untouched (or ε-perturbed at most) by the churn.
        let epsilon = self.staleness_tolerance;
        let old = cached.result.detections();
        let mut remap: Vec<u32> = vec![u32::MAX; old.len()];
        let mut stale: Vec<u32> = Vec::new();
        let mut detections: Vec<CommunityDetection> = Vec::new();
        for (index, detection) in old.iter().enumerate() {
            let mut volume = 0.0;
            let mut dirty_volume = 0.0;
            let mut dirty_members = 0usize;
            for &v in &detection.members {
                let degree = graph.weighted_degree(v);
                volume += degree;
                if self.dirty[v] {
                    dirty_volume += degree;
                    dirty_members += 1;
                }
            }
            let is_stale = if epsilon <= 0.0 {
                dirty_members > 0
            } else {
                // A zero-volume (fully disconnected) dirty set is always
                // stale: the churn is what disconnected it.
                dirty_members > 0 && (volume <= 0.0 || dirty_volume > epsilon * volume)
            };
            if is_stale {
                stale.push(index as u32);
            } else {
                remap[index] = detections.len() as u32;
                detections.push(detection.clone());
            }
        }
        let surviving = detections.len();
        let retired = stale.len();

        // 2. Re-pool the survivors' claims under their new indices; the
        // retired groups' claims die with them. No walk has run yet.
        let mut evidence = pipeline.evidence();
        if pooling {
            evidence.extend_pool(&cached.claims);
            evidence.retire_groups(&stale);
            let remapped: Vec<PooledClaim> = evidence
                .take_pool()
                .into_iter()
                .map(|mut claim| {
                    claim.detection = remap[claim.detection as usize];
                    claim
                })
                .collect();
            evidence.extend_pool(&remapped);
        }

        // 3. Re-walk the uncovered region through the same shuffled seed
        // pool as the one-shot driver, skipping vertices a survivor covers.
        // Coverage is ownership by the cached *partition*, not bare set
        // membership: affinity pruning and absorption leave a thin rim of
        // every community outside its detection's member set, and walking
        // those rim vertices would re-detect (and re-open) fully intact
        // communities. A vertex whose cached community survived — identified
        // by the communities of the surviving detections' seeds — is served
        // by the carried-over assembly and needs no walk.
        let mut covered = vec![false; n];
        for detection in &detections {
            for &v in &detection.members {
                covered[v] = true;
            }
        }
        {
            let partition = cached.result.partition();
            let mut surviving_communities = vec![false; partition.num_communities()];
            for detection in &detections[..surviving] {
                if let Some(c) = partition.community_of(detection.seed) {
                    surviving_communities[c] = true;
                }
            }
            for (v, slot) in covered.iter_mut().enumerate() {
                if !*slot {
                    if let Some(c) = partition.community_of(v) {
                        *slot = surviving_communities[c];
                    }
                }
            }
        }
        let mut lanes = pipeline.local_lanes();
        pipeline.seed_pool(&mut lanes, &mut evidence, &mut covered, &mut detections)?;
        let fresh = detections.len() - surviving;

        // 4. Reconcile: survivors enter the assembly frozen — their refined
        // sets and claims stand, no re-seed walks, no pruning — while fresh
        // detections are assembled exactly as in the full run.
        let mut frozen = vec![true; surviving];
        frozen.resize(detections.len(), false);
        let (result, claims) =
            pipeline.assemble(&mut lanes, &mut evidence, detections, &frozen, epsilon)?;
        let delta = pipeline.delta();
        let report = RefreshReport {
            kind: RefreshKind::Incremental,
            dirty_vertices: self.dirty_count,
            retired,
            surviving,
            fresh,
            reseeded_groups: result.assembly().map_or(0, |a| a.reseeded_groups),
        };
        self.install(result, claims, delta);
        self.incremental_refreshes += 1;
        Ok(report)
    }

    fn install(&mut self, result: DetectionResult, claims: Vec<PooledClaim>, delta: f64) {
        self.cached = Some(CachedDetection {
            result,
            claims,
            delta,
        });
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.dirty_count = 0;
        self.refreshes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AssemblyPolicy, CdrwConfig};
    use cdrw_gen::{generate_ppm, PpmParams};

    fn ppm(n: usize, blocks: usize, seed: u64) -> Graph {
        let params = PpmParams::new(n, blocks, 0.25, 0.01).unwrap();
        generate_ppm(&params, seed).unwrap().0
    }

    fn pooled_cdrw(seed: u64) -> Cdrw {
        Cdrw::new(
            CdrwConfig::builder()
                .seed(seed)
                .delta(0.05)
                .assembly_policy(AssemblyPolicy::Pooled {
                    reseed: 4,
                    quorum: 2,
                })
                .build(),
        )
    }

    #[test]
    fn first_refresh_matches_detect_all_bit_for_bit() {
        let graph = ppm(512, 4, 11);
        let cdrw = pooled_cdrw(7);
        let reference = cdrw.detect_all(&graph).unwrap();

        let mut service = CdrwService::new(cdrw, graph);
        let report = service.refresh().unwrap();
        assert_eq!(report.kind, RefreshKind::Full);
        assert_eq!(service.result(), Some(&reference));
    }

    #[test]
    fn single_commit_service_matches_detect_all_bit_for_bit() {
        // Build the edge stream through the service, commit once, refresh:
        // the result must equal detect_all on the directly committed graph.
        let graph = ppm(512, 4, 23);
        let cdrw = pooled_cdrw(5);

        let mut service = CdrwService::new(cdrw.clone(), graph.clone());
        service.remove_edge(0, 1).unwrap();
        service.add_edge(0, 2).unwrap();
        service.refresh().unwrap();

        let mut delta = DeltaGraph::new(graph);
        delta.remove_edge(0, 1).unwrap();
        delta.add_edge(0, 2).unwrap();
        delta.commit().unwrap();
        let reference = cdrw.detect_all(delta.graph()).unwrap();
        assert_eq!(service.result(), Some(&reference));
    }

    #[test]
    fn clean_refresh_is_a_no_op() {
        let graph = ppm(256, 2, 3);
        let mut service = CdrwService::new(pooled_cdrw(9), graph);
        service.refresh().unwrap();
        let before = service.result().cloned();
        let report = service.refresh().unwrap();
        assert_eq!(report.kind, RefreshKind::Clean);
        assert_eq!(service.result().cloned(), before);
    }

    #[test]
    fn incremental_refresh_keeps_untouched_detections() {
        let graph = ppm(1024, 4, 41);
        let mut service = CdrwService::new(pooled_cdrw(13), graph);
        service.refresh().unwrap();
        let before = service.result().unwrap().clone();

        // Churn inside the community of vertex 0 only: drop one real
        // in-community edge.
        let home: Vec<VertexId> = before
            .detections()
            .iter()
            .find(|d| d.contains(0))
            .unwrap()
            .members
            .clone();
        let (u, v) = home
            .iter()
            .flat_map(|&u| home.iter().map(move |&v| (u, v)))
            .find(|&(u, v)| u < v && service.graph().has_edge(u, v))
            .expect("a detected community contains at least one internal edge");
        service.remove_edge(u, v).unwrap();
        let report = service.refresh().unwrap();
        assert_eq!(report.kind, RefreshKind::Incremental);
        assert!(report.retired >= 1, "the churned community must retire");
        assert!(
            report.surviving >= 1,
            "communities away from the churn must survive"
        );

        // Survivors are carried over member-for-member.
        let after = service.result().unwrap();
        for old in before.detections() {
            if old.members.iter().all(|&v| !home.contains(&v)) {
                assert!(
                    after
                        .detections()
                        .iter()
                        .any(|new| new.members == old.members),
                    "untouched detection (seed {}) must survive unchanged",
                    old.seed
                );
            }
        }
        let stats = service.stats();
        assert_eq!(stats.incremental_refreshes, 1);
        assert!(!stats.stale);
    }

    #[test]
    fn staleness_tolerance_keeps_epsilon_perturbed_detections() {
        // Same churn as `incremental_refresh_keeps_untouched_detections`,
        // but with ε = 5%: one removed edge perturbs well under 5% of the
        // home community's volume, so *nothing* retires and no walk runs.
        let graph = ppm(1024, 4, 41);
        let mut service = CdrwService::new(pooled_cdrw(13), graph);
        service.set_staleness_tolerance(0.05);
        assert_eq!(service.staleness_tolerance(), 0.05);
        service.refresh().unwrap();
        let communities = service.result().unwrap().num_communities();

        let home: Vec<VertexId> = service
            .result()
            .unwrap()
            .detections()
            .iter()
            .find(|d| d.contains(0))
            .unwrap()
            .members
            .clone();
        let (u, v) = home
            .iter()
            .flat_map(|&u| home.iter().map(move |&v| (u, v)))
            .find(|&(u, v)| u < v && service.graph().has_edge(u, v))
            .expect("a detected community contains at least one internal edge");
        service.remove_edge(u, v).unwrap();
        let report = service.refresh().unwrap();
        assert_eq!(report.kind, RefreshKind::Incremental);
        assert_eq!(
            report.retired, 0,
            "one edge is an ε-negligible perturbation"
        );
        assert_eq!(report.surviving, communities);
        assert_eq!(report.fresh, 0);
        assert_eq!(service.partition().unwrap().num_vertices(), 1024);
        assert!(!service.stats().stale);
    }

    #[test]
    fn incremental_refresh_under_raw_policy() {
        let graph = ppm(512, 4, 19);
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(3)
                .delta(0.05)
                .assembly_policy(AssemblyPolicy::Raw)
                .build(),
        );
        let mut service = CdrwService::new(cdrw, graph);
        service.refresh().unwrap();
        service.remove_edge(0, 2).unwrap();
        service.add_edge(1, 3).unwrap();
        let report = service.refresh().unwrap();
        assert_eq!(report.kind, RefreshKind::Incremental);
        let partition = service.partition().unwrap();
        assert_eq!(partition.num_vertices(), 512);
    }

    #[test]
    fn retiring_every_detection_is_still_an_incremental_refresh() {
        let graph = ppm(512, 4, 29);
        let n = graph.num_vertices();
        let mut service = CdrwService::new(pooled_cdrw(17), graph);
        service.refresh().unwrap();
        let before = service.result().unwrap().detections().len();

        // Dirty every cached detection: drop one edge at a member of each.
        let mut doomed: Vec<(VertexId, VertexId)> = service
            .result()
            .unwrap()
            .detections()
            .iter()
            .map(|d| {
                let u = d.members[0];
                let v = service.graph().neighbor_slice(u)[0];
                (u.min(v), u.max(v))
            })
            .collect();
        doomed.sort_unstable();
        doomed.dedup();
        for (u, v) in doomed {
            service.remove_edge(u, v).unwrap();
        }
        let report = service.refresh().unwrap();
        assert_eq!(report.kind, RefreshKind::Incremental);
        assert_eq!(report.surviving, 0);
        assert_eq!(report.retired, before);
        assert_eq!(service.stats().full_refreshes, 1);
        // A `Partition` assigns every vertex it covers: this one is total.
        assert_eq!(service.partition().unwrap().num_vertices(), n);
    }

    proptest::proptest! {
        /// The one-shot pin: on arbitrary graphs under arbitrary buffered
        /// churn, a single-commit service refresh is bit-identical to
        /// `Cdrw::detect_all` on the directly committed graph, and
        /// `detect_parallel` sees the exact same CSR through the service as
        /// through a from-scratch build. Both assembly policies are covered.
        #[test]
        fn single_commit_refresh_is_pinned_to_the_one_shot_api(
            edges in proptest::collection::vec((0usize..16, 0usize..16), 8..60),
            ops in proptest::collection::vec((0usize..2, (0usize..16, 0usize..16)), 0..12),
            seed in 0u64..128,
            pooled in proptest::arbitrary::any::<bool>(),
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = cdrw_graph::GraphBuilder::from_edges(16, clean).unwrap();
            let assembly = if pooled {
                AssemblyPolicy::Pooled { reseed: 3, quorum: 2 }
            } else {
                AssemblyPolicy::Raw
            };
            let cdrw = Cdrw::new(
                CdrwConfig::builder().seed(seed).delta(0.2).assembly_policy(assembly).build(),
            );

            let mut service = CdrwService::new(cdrw.clone(), graph.clone());
            let mut reference = DeltaGraph::new(graph);
            for &(kind, (u, v)) in &ops {
                if u == v {
                    continue;
                }
                if kind == 0 {
                    service.add_edge(u, v).unwrap();
                    reference.add_edge(u, v).unwrap();
                } else {
                    service.remove_edge(u, v).unwrap();
                    reference.remove_edge(u, v).unwrap();
                }
            }
            reference.commit().unwrap();
            prop_assume!(reference.graph().num_edges() > 0);

            service.refresh().unwrap();
            let expected = cdrw.detect_all(reference.graph()).unwrap();
            prop_assert_eq!(service.result(), Some(&expected));

            let via_service = cdrw.detect_parallel_with_workers(service.graph(), 3, 2).unwrap();
            let direct = cdrw.detect_parallel_with_workers(reference.graph(), 3, 2).unwrap();
            prop_assert_eq!(via_service, direct);
        }
    }

    /// A weighted PPM-like graph: the weight lane must be engaged for
    /// `add_weighted_edge` (and its poisoned-commit failure mode) to apply.
    fn weighted_graph() -> Graph {
        let base = ppm(256, 2, 29);
        let mut builder = cdrw_graph::GraphBuilder::new(base.num_vertices());
        for (u, v) in base.edges() {
            builder.add_weighted_edge(u, v, 1.0).unwrap();
        }
        builder.build()
    }

    #[test]
    fn failed_refresh_serves_the_previous_partition_degraded() {
        let mut service = CdrwService::new(pooled_cdrw(3), weighted_graph());
        service.refresh().unwrap();
        let before = service.result().unwrap().clone();
        assert!(!service.stats().degraded);

        // Poison the journal: stacking two f64::MAX weights folds to +inf in
        // the pending buffer, which the commit-time builder rejects.
        service.add_weighted_edge(0, 1, f64::MAX).unwrap();
        service.add_weighted_edge(0, 1, f64::MAX).unwrap();
        let err = service.refresh().unwrap_err();
        assert!(matches!(err, CdrwError::Graph(_)), "got {err:?}");

        // The failure is visible, but the previous partition still serves.
        let stats = service.stats();
        assert!(stats.degraded);
        assert_eq!(stats.consecutive_failures, 1);
        assert_eq!(service.result(), Some(&before));
        assert!(service.community_of(0).is_some());

        // The journal survived the failed commit (nothing was half-applied).
        assert!(service.stats().pending_ops > 0);

        // First follow-up call is declined by the backoff — no re-attempt,
        // no error, the degraded cache answers.
        let report = service.refresh().unwrap();
        assert_eq!(report.kind, RefreshKind::Degraded);
        assert_eq!(service.result(), Some(&before));

        // The next call re-attempts, fails again, and doubles the backoff.
        assert!(service.refresh().is_err());
        assert_eq!(service.stats().consecutive_failures, 2);
        assert_eq!(service.refresh().unwrap().kind, RefreshKind::Degraded);
        assert_eq!(service.refresh().unwrap().kind, RefreshKind::Degraded);

        // Drop the poison; the explicit full refresh bypasses the backoff,
        // succeeds, and clears the degradation.
        service.discard_pending();
        let report = service.refresh_full().unwrap();
        assert_eq!(report.kind, RefreshKind::Full);
        let stats = service.stats();
        assert!(!stats.degraded);
        assert_eq!(stats.consecutive_failures, 0);
        assert!(!stats.stale);
    }

    #[test]
    fn refresh_full_failure_also_degrades_without_poisoning() {
        let mut service = CdrwService::new(pooled_cdrw(11), weighted_graph());
        service.refresh().unwrap();
        let before = service.result().unwrap().clone();

        service.add_weighted_edge(2, 3, f64::MAX).unwrap();
        service.add_weighted_edge(2, 3, f64::MAX).unwrap();
        assert!(service.refresh_full().is_err());
        assert!(service.stats().degraded);
        assert_eq!(service.result(), Some(&before));

        // refresh_full keeps re-attempting (no backoff): still failing.
        assert!(service.refresh_full().is_err());
        assert_eq!(service.stats().consecutive_failures, 2);

        // A successful *incremental* path also clears the degradation: drop
        // the poison, stream a benign weighted change, refresh.
        service.discard_pending();
        let (u, v) = {
            let g = service.graph();
            let mut found = None;
            'outer: for u in 0..g.num_vertices() {
                for v in (u + 1)..g.num_vertices() {
                    if g.has_edge(u, v) {
                        found = Some((u, v));
                        break 'outer;
                    }
                }
            }
            found.expect("graph has edges")
        };
        service.add_weighted_edge(u, v, 0.5).unwrap();
        // Burn the remaining backoff skips, then the real attempt runs.
        let mut last = service.refresh().unwrap();
        while last.kind == RefreshKind::Degraded {
            last = service.refresh().unwrap();
        }
        assert!(matches!(
            last.kind,
            RefreshKind::Incremental | RefreshKind::Full
        ));
        let stats = service.stats();
        assert!(!stats.degraded);
        assert_eq!(stats.consecutive_failures, 0);
        assert!(service.community_of(0).is_some());
    }

    #[test]
    fn queries_before_first_refresh_are_none_and_stats_track_staleness() {
        let graph = ppm(256, 2, 5);
        let mut service = CdrwService::new(pooled_cdrw(1), graph);
        assert_eq!(service.community_of(0), None);
        assert!(service.partition().is_none());
        assert!(service.stats().stale);

        service.refresh().unwrap();
        assert!(service.community_of(0).is_some());
        assert!(!service.stats().stale);

        let far = (1..256)
            .find(|&v| !service.graph().has_edge(0, v))
            .expect("vertex 0 is not adjacent to everything");
        service.add_edge(0, far).unwrap();
        assert!(service.stats().stale, "pending churn marks the cache stale");
        service.commit().unwrap();
        assert!(service.stats().stale, "dirty vertices mark the cache stale");
        service.refresh().unwrap();
        assert!(!service.stats().stale);
    }
}
