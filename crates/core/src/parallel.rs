//! Parallel community detection (the extension sketched in Section V).
//!
//! The paper's conclusion notes that CDRW "can also be extended to find
//! communities even faster (by finding communities in parallel), assuming we
//! know an (estimate) of r". This module implements that extension for the
//! sequential library: `r` seed nodes are drawn up front and the per-seed
//! detections run concurrently on a bounded pool of scoped OS threads (the
//! graph is shared read-only). Concurrency is capped at
//! [`std::thread::available_parallelism`] — workers claim seeds from a
//! shared atomic-cursor queue rather than spawning one thread per seed — and
//! every worker runs the shared [`crate::Pipeline`]'s per-seed detection on
//! one reusable [`crate::LocalLanes`] bank for all the seeds it processes.
//! Overlaps are resolved exactly like the sequential pool loop (first claim
//! wins, in seed order).
//!
//! # Scheduling: work stealing over static stripes
//!
//! Seeds used to be striped statically (worker `w` took seeds `w`,
//! `w + workers`, …). Per-seed detection cost is heavily skewed — a seed in
//! a large or badly-mixing block walks far longer than one whose growth rule
//! fires early — so a stripe that happened to collect the expensive seeds
//! kept every other worker idle at the barrier. Workers now claim small
//! contiguous index chunks from a shared [`AtomicUsize`] cursor (chunks of
//! roughly `seeds / (8 · workers)`, clamped into `[1, 32]`, so claims stay
//! rare while the tail stays balanced); a worker that drew cheap seeds
//! simply claims again. Determinism is untouched: *which* worker
//! computes a detection is scheduling-dependent, but each detection depends
//! only on its seed, and results are written into per-seed slots merged in
//! seed order afterwards — the worker-count-invariance property test pins
//! exactly this.

use std::sync::atomic::{AtomicUsize, Ordering};

use cdrw_graph::{Graph, VertexId};
use cdrw_walk::evidence::{PooledClaim, WalkEvidence};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::pipeline::Pipeline;
use crate::result::{CommunityDetection, DetectionResult};
use crate::{Cdrw, CdrwError};

impl Cdrw {
    /// Detects communities from `num_seeds` seeds in parallel.
    ///
    /// `num_seeds` plays the role of the estimate of `r`; passing the exact
    /// number of planted blocks reproduces the sequential result up to seed
    /// selection. Vertices claimed by no parallel detection are assigned by
    /// the same fallback as the sequential algorithm (each becomes a
    /// singleton community), so the resulting partition is always total.
    ///
    /// At most `min(available_parallelism, num_seeds)` worker threads run at
    /// any time, regardless of `num_seeds`; each worker reuses one lane bank
    /// for all the seeds assigned to it.
    ///
    /// Under [`crate::AssemblyPolicy::Pooled`], each worker pools its
    /// detections' evidence locally; the claims are merged in seed order and
    /// the assembly phase runs once, sequentially, so the result is
    /// independent of the worker count (a property test pins this).
    ///
    /// # Errors
    ///
    /// * [`CdrwError::InvalidConfig`] when `num_seeds == 0` (and all
    ///   conditions of [`Cdrw::detect_community`]).
    pub fn detect_parallel(
        &self,
        graph: &Graph,
        num_seeds: usize,
    ) -> Result<DetectionResult, CdrwError> {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.detect_parallel_with_workers(graph, num_seeds, workers)
    }

    /// [`Cdrw::detect_parallel`] with an explicit worker-thread cap (at least
    /// one worker is always used). The detections and the assembled result
    /// are identical for every `workers` value; exposing the knob lets tests
    /// pin that invariance and lets embedders bound the thread pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cdrw::detect_parallel`].
    pub fn detect_parallel_with_workers(
        &self,
        graph: &Graph,
        num_seeds: usize,
        workers: usize,
    ) -> Result<DetectionResult, CdrwError> {
        if num_seeds == 0 {
            return Err(CdrwError::InvalidConfig {
                field: "num_seeds",
                reason: "parallel detection needs at least one seed".to_string(),
            });
        }
        let pipeline = Pipeline::new(self.config(), graph)?;

        // Draw distinct seeds uniformly at random, like the pool loop does.
        let mut rng = SmallRng::seed_from_u64(self.config().seed);
        let seeds = draw_distinct_seeds(
            &mut rng,
            graph.num_vertices(),
            num_seeds.min(graph.num_vertices()),
        );

        let workers = workers.min(seeds.len()).max(1);
        let pooling = self.config().assembly.is_pooled();

        type Slot = (Result<CommunityDetection, CdrwError>, Vec<PooledClaim>);
        let mut slots: Vec<Option<Slot>> = (0..seeds.len()).map(|_| None).collect();
        // The shared work-stealing queue: workers claim contiguous index
        // chunks with one `fetch_add` per claim. Chunks of ≈ seeds/(8·w)
        // keep claim traffic rare (≈ 8 claims per worker) while leaving the
        // tail fine-grained enough that one slow seed cannot strand a large
        // remainder behind a single worker.
        let cursor = AtomicUsize::new(0);
        let chunk = (seeds.len() / (workers * 8)).clamp(1, 32);
        // One worker's lanes survive the scope so the pooled assembly below
        // can reuse them instead of allocating a third full-size bank.
        let mut recycled_lanes = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let pipeline = &pipeline;
                let seeds = &seeds;
                let cursor = &cursor;
                handles.push(scope.spawn(move || {
                    // Each worker owns one lane bank and one evidence
                    // accumulator, reused for every seed it claims.
                    let mut lanes = pipeline.local_lanes();
                    let mut evidence = pipeline.evidence();
                    let mut produced = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= seeds.len() {
                            break;
                        }
                        let end = (start + chunk).min(seeds.len());
                        for (index, &seed) in seeds.iter().enumerate().take(end).skip(start) {
                            let result = pipeline.detect_community(&mut lanes, &mut evidence, seed);
                            // Drain the worker-local pool per detection so
                            // the claims can be merged in seed order on the
                            // main thread, independent of the scheduling.
                            let claims = if pooling && result.is_ok() {
                                evidence.pool_epoch(index as u32);
                                evidence.take_pool()
                            } else {
                                Vec::new()
                            };
                            produced.push((index, (result, claims)));
                        }
                    }
                    (produced, lanes)
                }));
            }
            for handle in handles {
                let (produced, lanes) = handle.join().expect("detection threads do not panic");
                for (index, slot) in produced {
                    slots[index] = Some(slot);
                }
                recycled_lanes.get_or_insert(lanes);
            }
        });

        let mut detections = Vec::with_capacity(slots.len());
        let mut evidence = WalkEvidence::for_graph_if(pooling, graph);
        for slot in slots {
            let (result, claims) = slot.expect("every slot is filled");
            detections.push(result?);
            evidence.extend_pool(&claims);
        }
        let mut lanes = recycled_lanes.unwrap_or_else(|| pipeline.local_lanes());
        let (result, _) = pipeline.assemble(&mut lanes, &mut evidence, detections, &[], 0.0)?;
        Ok(result)
    }
}

/// Draws `k` distinct vertices uniformly at random from `0..n` with a
/// partial Fisher–Yates over a sparse displacement map.
///
/// The previous implementation materialised all `n` vertex ids and ran a
/// full shuffle just to keep the first `k` — an `O(n)` allocation plus
/// `n − 1` RNG draws per parallel call, which is pure overhead at
/// `n = 2²⁰` when `k` is a few dozen. This runs the first `k` iterations of
/// the front-to-back Fisher–Yates and keeps only the displaced positions in
/// a hash map: `O(k)` time, `O(k)` space, `k` RNG draws, and exactly the
/// uniform distribution over ordered `k`-subsets the full shuffle gave
/// (each draw picks position `i`'s value uniformly from the not-yet-drawn
/// remainder). The concrete seed *sequence* for a given RNG seed differs
/// from the full-shuffle implementation — per-seed detections are
/// unaffected, only which seeds a run draws.
///
/// # Panics
///
/// Panics if `k > n` (callers clamp).
fn draw_distinct_seeds<R: Rng>(rng: &mut R, n: usize, k: usize) -> Vec<VertexId> {
    assert!(k <= n, "cannot draw {k} distinct seeds from {n} vertices");
    // displaced[p] is the value currently at position p, for the O(k)
    // positions that no longer hold their own index.
    let mut displaced: std::collections::HashMap<usize, VertexId> =
        std::collections::HashMap::with_capacity(2 * k);
    let mut seeds = Vec::with_capacity(k);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        let value_j = displaced.get(&j).copied().unwrap_or(j);
        // Position j inherits position i's value. Position i is never
        // sampled again (future draws are over i+1..n), so its own entry
        // need not be updated.
        let value_i = displaced.get(&i).copied().unwrap_or(i);
        displaced.insert(j, value_i);
        seeds.push(value_j);
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdrwConfig, MixingCriterion};
    use cdrw_gen::{generate_ppm, special, PpmParams};
    use cdrw_metrics::f_score;

    #[test]
    fn partial_fisher_yates_draws_distinct_in_range_seeds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for (n, k) in [(1usize, 1usize), (10, 10), (100, 7), (1 << 16, 48)] {
            let seeds = draw_distinct_seeds(&mut rng, n, k);
            assert_eq!(seeds.len(), k);
            assert!(seeds.iter().all(|&s| s < n), "n = {n}");
            let mut sorted = seeds.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicate seeds at n = {n}, k = {k}");
        }
        // k == n is a full permutation.
        let all = draw_distinct_seeds(&mut rng, 50, 50);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(all, sorted, "a 50-draw being the identity is negligible");
        // Deterministic per RNG state.
        let a = draw_distinct_seeds(&mut SmallRng::seed_from_u64(7), 1000, 20);
        let b = draw_distinct_seeds(&mut SmallRng::seed_from_u64(7), 1000, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn partial_fisher_yates_is_roughly_uniform() {
        // Each vertex should be drawn with probability k/n; over many trials
        // the per-vertex hit counts concentrate. 2000 trials of 4-of-16
        // gives an expected 500 hits per vertex; a 5σ band is ±~100.
        let n = 16;
        let k = 4;
        let trials = 2000;
        let mut rng = SmallRng::seed_from_u64(99);
        let mut hits = vec![0usize; n];
        for _ in 0..trials {
            for s in draw_distinct_seeds(&mut rng, n, k) {
                hits[s] += 1;
            }
        }
        let expected = trials * k / n;
        for (v, &h) in hits.iter().enumerate() {
            assert!(
                h.abs_diff(expected) < 110,
                "vertex {v} drawn {h} times, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn zero_seeds_is_rejected() {
        let (g, _) = special::complete(8).unwrap();
        let cdrw = Cdrw::with_defaults();
        assert!(matches!(
            cdrw.detect_parallel(&g, 0),
            Err(CdrwError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn degenerate_graphs_are_rejected() {
        let cdrw = Cdrw::with_defaults();
        assert!(cdrw
            .detect_parallel(&cdrw_graph::Graph::empty(0), 2)
            .is_err());
        assert!(cdrw
            .detect_parallel(&cdrw_graph::Graph::empty(5), 2)
            .is_err());
    }

    #[test]
    fn parallel_detection_recovers_ppm_blocks() {
        let params = PpmParams::new(512, 4, 0.3, 0.003).unwrap();
        let (graph, truth) = generate_ppm(&params, 19).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        // Pinned to the strict criterion: this test's partition-F floor was
        // calibrated for it, and the first-claim residue that oversampling
        // leaves behind depends on the criterion's exact set sizes.
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(11)
                .delta(delta)
                .criterion(MixingCriterion::Strict)
                .build(),
        );
        // Oversample seeds: 2r seeds still resolve into roughly r communities
        // after first-claim de-duplication.
        let result = cdrw.detect_parallel(&graph, 8).unwrap();
        let report = f_score(result.partition(), &truth);
        assert!(
            report.f_score > 0.7,
            "parallel F-score {} too low",
            report.f_score
        );
        assert_eq!(result.detections().len(), 8);
    }

    #[test]
    fn parallel_detections_are_accurate_under_the_default_criterion() {
        // The default (renormalised) criterion produces tight per-seed
        // detections; score the raw detections against each seed's true
        // block — the paper's own metric — rather than the first-claim
        // partition, which shreds duplicate detections of the same block.
        let params = PpmParams::new(512, 4, 0.3, 0.003).unwrap();
        let (graph, truth) = generate_ppm(&params, 19).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(11).delta(delta).build());
        let result = cdrw.detect_parallel(&graph, 8).unwrap();
        let report = cdrw_metrics::f_score_for_detections(
            result
                .detections()
                .iter()
                .map(|d| (d.members.as_slice(), d.seed)),
            &truth,
        );
        assert!(
            report.f_score > 0.85,
            "per-seed parallel F-score {} too low",
            report.f_score
        );
    }

    #[test]
    fn parallel_ensemble_detections_match_the_sequential_per_seed_results() {
        // The ensemble path runs through the same per-seed code in both
        // drivers; each parallel ensemble detection (votes, consensus and
        // trace included) must equal its sequential counterpart.
        let params = PpmParams::new(256, 4, 0.2, 0.01).unwrap();
        let (graph, _) = generate_ppm(&params, 31).unwrap();
        let delta = 0.1;
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(13)
                .delta(delta)
                .ensemble(4, 2)
                .build(),
        );
        let parallel = cdrw.detect_parallel(&graph, 6).unwrap();
        for detection in parallel.detections() {
            let sequential = cdrw.detect_community(&graph, detection.seed).unwrap();
            assert_eq!(&sequential, detection, "seed {} diverged", detection.seed);
            assert!(detection.trace.ensemble.is_some());
        }
    }

    #[test]
    fn more_seeds_than_vertices_is_clamped() {
        let (g, _) = special::ring_of_cliques(2, 8).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(2).delta(0.2).build());
        let result = cdrw.detect_parallel(&g, 100).unwrap();
        assert_eq!(result.detections().len(), 16);
        assert_eq!(result.partition().num_vertices(), 16);
    }

    #[test]
    fn many_more_seeds_than_cores_stays_bounded_and_deterministic() {
        // 64 seeds on a 16-vertex graph exercises the striped worker pool
        // (before the cap this spawned 64 OS threads at once). The result
        // must not depend on how many workers the host machine offers.
        let (g, _) = special::ring_of_cliques(2, 8).unwrap();
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(5).delta(0.2).build());
        let a = cdrw.detect_parallel(&g, 64).unwrap();
        let b = cdrw.detect_parallel(&g, 64).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.detections().len(), 16);
    }

    #[test]
    fn pooled_parallel_assembly_merges_duplicate_detections() {
        // Oversampled parallel seeds land several detections in each block;
        // the pooled assembly merges them instead of letting first-claim
        // shred the duplicates.
        let params = PpmParams::new(256, 2, 0.25, 0.002).unwrap();
        let (graph, truth) = generate_ppm(&params, 23).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let cdrw = Cdrw::new(
            CdrwConfig::builder()
                .seed(3)
                .delta(delta)
                .assembly(2, 1)
                .build(),
        );
        let result = cdrw.detect_parallel(&graph, 6).unwrap();
        let report = result.assembly().expect("assembly report");
        assert!(
            report.merged_detections >= 2,
            "oversampled seeds must merge: {report:?}"
        );
        assert_eq!(result.partition().num_vertices(), 256);
        let f = cdrw_metrics::f_score_weighted(result.partition(), &truth).f_score;
        assert!(f > 0.8, "weighted partition F {f}");
    }

    proptest::proptest! {
        /// The parallel driver's result — detections, assembled partition
        /// and report — is identical for every worker count, with and
        /// without the pooled assembly and the batched multi-walk ensemble.
        #[test]
        fn detect_parallel_is_invariant_across_worker_counts(
            edges in proptest::collection::vec((0usize..16, 0usize..16), 3..60),
            seed in 0u64..128,
            num_seeds in 1usize..9,
            pooled in 0usize..2,
            ensemble in 0usize..2,
        ) {
            use proptest::{prop_assert_eq, prop_assume};

            let clean: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
            prop_assume!(!clean.is_empty());
            let graph = cdrw_graph::GraphBuilder::from_edges(16, clean).unwrap();
            let assembly = if pooled == 1 {
                crate::AssemblyPolicy::Pooled { reseed: 2, quorum: 1 }
            } else {
                crate::AssemblyPolicy::Raw
            };
            let ensemble = if ensemble == 1 {
                crate::EnsemblePolicy::Ensemble { walks: 3, quorum: 2 }
            } else {
                crate::EnsemblePolicy::Single
            };
            let cdrw = Cdrw::new(
                CdrwConfig::builder()
                    .seed(seed)
                    .delta(0.2)
                    .assembly_policy(assembly)
                    .ensemble_policy(ensemble)
                    .build(),
            );
            let single = cdrw.detect_parallel_with_workers(&graph, num_seeds, 1).unwrap();
            for workers in [2usize, 3, 7] {
                let other = cdrw.detect_parallel_with_workers(&graph, num_seeds, workers).unwrap();
                prop_assert_eq!(&single, &other, "workers = {} diverged", workers);
            }
            // The partition is always total.
            prop_assert_eq!(
                single.partition().community_sizes().iter().sum::<usize>(),
                graph.num_vertices()
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_partition_quality() {
        let params = PpmParams::new(256, 2, 0.25, 0.002).unwrap();
        let (graph, truth) = generate_ppm(&params, 23).unwrap();
        let delta = params.expected_block_conductance().clamp(0.01, 1.0);
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(3).delta(delta).build());
        let sequential = cdrw.detect_all(&graph).unwrap();
        let parallel = cdrw.detect_parallel(&graph, 2).unwrap();
        let f_seq = f_score(sequential.partition(), &truth).f_score;
        let f_par = f_score(parallel.partition(), &truth).f_score;
        assert!((f_seq - f_par).abs() < 0.25, "seq = {f_seq}, par = {f_par}");
    }

    #[test]
    fn parallel_detections_match_the_sequential_per_seed_results() {
        // Per-seed detections are computed by the same engine code path, so
        // each parallel detection must equal its sequential counterpart.
        let params = PpmParams::new(256, 2, 0.25, 0.002).unwrap();
        let (graph, _) = generate_ppm(&params, 29).unwrap();
        let delta = 0.1;
        let cdrw = Cdrw::new(CdrwConfig::builder().seed(7).delta(delta).build());
        let parallel = cdrw.detect_parallel(&graph, 6).unwrap();
        for detection in parallel.detections() {
            let sequential = cdrw.detect_community(&graph, detection.seed).unwrap();
            assert_eq!(&sequential, detection);
        }
    }
}
