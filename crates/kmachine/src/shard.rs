//! The shard worker: one machine of the k-machine execution.
//!
//! A [`ShardWorker`] owns a [`SubCsr`] slice of the graph, the
//! [`ShareReceiver`] (reverse index) built from it, and, per walk lane, a
//! [`WalkWorkspace`] holding the restriction of that lane's distribution to
//! the owned vertices. Both the slice and the index are built on the shard's
//! own thread. It runs a blocking message loop driven entirely by the
//! coordinator's commands (see [`crate::transport`] for the protocol); all
//! *decisions* — sweeps, growth tracking, ensemble votes, assembly — live on
//! the coordinator, which is the engine's documented deviation from the
//! paper's fully decentralised CONGEST machinery (PAPER_MAP deviation; the
//! coordination costs remain modelled by `cdrw-congest`).
//!
//! ## Surviving a lossy transport
//!
//! The worker tracks the last executed command sequence number and treats
//! every arriving command against it:
//!
//! * `seq == last + 1` — execute it (the normal case).
//! * `seq ≤ last` — a duplicate (a coordinator retry, or a chaos-delayed
//!   copy): for the last completed `Step`, re-send its cached outgoing share
//!   buckets and its cached `StepDone` reply; never re-execute. The cache
//!   holds the very `Arc`s that were sent, so a re-send copies no payload,
//!   and it holds no run for the shard itself — that one never touches the
//!   wire and is dropped once absorbed. One round is all it keeps: the
//!   coordinator issues nothing new before every shard has replied to the
//!   round, so no shard ever asks for an older one. A duplicate
//!   `LoadLanes` is ignored outright — re-running it would reset live walk
//!   state.
//! * `seq > last + 1` — a gap: reply [`Message::Nack`] naming the first
//!   missing sequence number so the coordinator re-sends its command log.
//!
//! Inter-shard `Shares` are keyed by `(seq, from)`: buckets for a future
//! round are buffered, duplicates for an already-counted sender are
//! discarded, and stale rounds are dropped. The worker keeps no recovery
//! state of its own: a replacement for a crashed worker is rebuilt
//! ([`ShardWorker::new`]) from the coordinator's gathered view of every
//! lane, which holds exactly what the shard held before the round in flight,
//! and the restore is bit-exact because a workspace's support order
//! survives the snapshot/restore round-trip (see
//! [`WalkWorkspace::snapshot_sparse`]). A worker that hears nothing for its
//! patience window (which the engine sets from the fault plan) assumes the
//! run is gone and exits rather than blocking forever on a lost `Halt`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdrw_graph::{SubCsr, VertexId};
use cdrw_walk::shard::{emit_shares, Share, ShareReceiver};
use cdrw_walk::WalkWorkspace;

use crate::transport::{
    LaneShares, LaneState, Message, Peer, ShareBuckets, Transport, TransportError,
};

/// One completed round's cached artefacts, for duplicate-triggered re-sends.
#[derive(Debug)]
struct RoundCache {
    seq: u64,
    /// The buckets sent to each peer, indexed by destination shard (`None`
    /// in the shard's own slot).
    outgoing: Vec<Option<ShareBuckets>>,
    /// The `StepDone` lanes reply.
    reply: Arc<Vec<LaneState>>,
    /// The `StepDone` heaviest-link entry count.
    max_link_entries: u64,
}

/// One worker shard of the execution engine.
#[derive(Debug)]
pub struct ShardWorker {
    id: usize,
    k: usize,
    n: usize,
    sub: SubCsr,
    /// The reverse index of `sub`'s rows, which expands received shares.
    receiver: ShareReceiver,
    laziness: f64,
    /// Give up and exit when no message arrives for this long — the lost-
    /// `Halt` watchdog. Generous: the coordinator legitimately goes quiet
    /// between rounds while it sweeps and assembles.
    patience: Duration,
    /// Last executed command sequence number.
    seq: u64,
    /// Per-lane shard-local walk state; grown on demand by `LoadLanes`.
    lanes: Vec<WalkWorkspace>,
    /// Per-destination share buckets (`k` of them) the emission fills.
    buckets: Vec<Vec<Share>>,
    /// The last completed round.
    cache: Option<RoundCache>,
}

impl ShardWorker {
    /// Builds the worker for shard `id` of `k`, owning `sub`, and its
    /// reverse index, with `seq` commands already executed and every lane
    /// restored bit-exactly from `view`: per lane, the owned slice of the
    /// coordinator's gathered support, `(vertex, mass)` ascending by vertex
    /// (`seq == 0` with an empty view is a cold start). After a crash the
    /// coordinator re-broadcasts round `seq + 1`, whose share buckets the
    /// peers re-send, after which the replacement is indistinguishable from
    /// a worker that never died.
    pub fn new(
        id: usize,
        k: usize,
        sub: SubCsr,
        laziness: f64,
        patience: Duration,
        seq: u64,
        view: &[Vec<(VertexId, f64)>],
    ) -> Self {
        let n = sub.num_global_vertices();
        let lanes = view
            .iter()
            .map(|owned| {
                let mut ws = WalkWorkspace::with_len(n);
                ws.load_sparse(owned)
                    .expect("gathered support is strictly ascending and in range");
                ws
            })
            .collect();
        ShardWorker {
            id,
            k,
            n,
            receiver: ShareReceiver::new(&sub),
            sub,
            laziness,
            patience,
            seq,
            lanes,
            buckets: (0..k).map(|_| Vec::new()).collect(),
            cache: None,
        }
    }

    /// Runs the blocking message loop until [`Message::Halt`], a patience
    /// timeout, or transport disconnection.
    pub fn run<T: Transport>(mut self, transport: &mut T) {
        // Share buckets that raced ahead of this shard's own `Step` command
        // (a peer received its command first), keyed by (seq, sender).
        let mut early: BTreeMap<(u64, usize), ShareBuckets> = BTreeMap::new();
        loop {
            // Silence for the whole patience window means the run is gone
            // (orphaned); a disconnection means the same. Don't block forever.
            let Ok(message) = transport.recv_deadline(self.patience) else {
                return;
            };
            match message {
                Message::LoadLanes { seq, seeds } => {
                    if seq == self.seq + 1 {
                        self.load_lanes(&seeds);
                        self.seq = seq;
                    } else if seq > self.seq + 1 {
                        self.nack(transport);
                    }
                    // A stale duplicate is ignored: re-running a load would
                    // reset live walk state.
                }
                Message::Step { seq, lanes } => {
                    if seq == self.seq + 1 {
                        if !self.step_round(seq, &lanes, transport, &mut early) {
                            return;
                        }
                        self.seq = seq;
                    } else if seq > self.seq + 1 {
                        self.nack(transport);
                    } else {
                        // Coordinator retry of a round we completed: its
                        // `StepDone` (or a peer's shares) went missing.
                        self.resend_round(seq, transport);
                    }
                }
                Message::Shares { seq, from, lanes } => {
                    if seq > self.seq {
                        early.entry((seq, from)).or_insert(lanes);
                    }
                }
                Message::Halt => return,
                // Stray traffic (chaos-delayed replies addressed elsewhere
                // on a real network would not even arrive here): ignore.
                Message::StepDone { .. } | Message::Nack { .. } | Message::Busy { .. } => {}
            }
            early.retain(|&(seq, _), _| seq > self.seq);
        }
    }

    fn nack<T: Transport>(&self, transport: &mut T) {
        transport.send(
            Peer::Coordinator,
            Message::Nack {
                shard: self.id,
                expected: self.seq + 1,
            },
        );
    }

    /// Sends round `seq`'s buckets to every peer, sharing each bucket's
    /// allocation with the caller's copy.
    fn send_buckets<T: Transport>(
        &self,
        seq: u64,
        outgoing: &[Option<ShareBuckets>],
        transport: &mut T,
    ) {
        for (m, bucket) in outgoing.iter().enumerate() {
            if let Some(bucket) = bucket {
                transport.send(
                    Peer::Shard(m),
                    Message::Shares {
                        seq,
                        from: self.id,
                        lanes: Arc::clone(bucket),
                    },
                );
            }
        }
    }

    /// Re-sends the last completed round's cached artefacts, if `seq` names
    /// it: the outgoing share buckets to every peer and the `StepDone` to the
    /// coordinator. Any older round is ignored — the coordinator only ever
    /// retries the round in flight.
    fn resend_round<T: Transport>(&self, seq: u64, transport: &mut T) {
        let Some(entry) = self.cache.as_ref().filter(|c| c.seq == seq) else {
            return;
        };
        self.send_buckets(seq, &entry.outgoing, transport);
        transport.send(
            Peer::Coordinator,
            Message::StepDone {
                seq,
                shard: self.id,
                lanes: Arc::clone(&entry.reply),
                max_link_entries: entry.max_link_entries,
            },
        );
    }

    fn ensure_lane(&mut self, lane: u32) {
        while self.lanes.len() <= lane as usize {
            self.lanes.push(WalkWorkspace::with_len(self.n));
        }
    }

    fn load_lanes(&mut self, seeds: &[(u32, VertexId)]) {
        for &(lane, seed) in seeds {
            self.ensure_lane(lane);
            let ws = &mut self.lanes[lane as usize];
            if self.sub.local_of(seed).is_some() {
                ws.load_point_mass(seed)
                    .expect("seed validated by the coordinator");
            } else {
                ws.load_sparse(&[]).expect("workspace is non-empty");
            }
        }
    }

    /// One physical walk round: emit, exchange, absorb, report. Returns
    /// `false` when the round was abandoned (halt, disconnection, or
    /// patience exhausted mid-barrier) and the worker should exit.
    fn step_round<T: Transport>(
        &mut self,
        seq: u64,
        lanes: &[u32],
        transport: &mut T,
        early: &mut BTreeMap<(u64, usize), ShareBuckets>,
    ) -> bool {
        // Emit every lane's shares into the own run and the bucket of every
        // peer homing a neighbour of the source. Emission runs in ascending
        // source order, so every run is ascending by source — the
        // precondition of the receivers' merge.
        let mut outgoing: Vec<Vec<LaneShares>> = (0..self.k)
            .map(|_| Vec::with_capacity(lanes.len()))
            .collect();
        let mut reports: Vec<LaneState> = Vec::with_capacity(lanes.len());
        // Per stepped lane, the own run: every share the emission produced,
        // whatever its peers.
        let mut own: Vec<Vec<Share>> = Vec::with_capacity(lanes.len());
        for &lane in lanes {
            self.ensure_lane(lane);
            let mut run = Vec::new();
            let buckets = &mut self.buckets;
            let wire_entries = emit_shares(
                &self.sub,
                self.laziness,
                &self.lanes[lane as usize],
                |share, peers| {
                    run.push(share);
                    for &m in peers {
                        buckets[m].push(share);
                    }
                },
            );
            own.push(run);
            for (m, bucket) in self.buckets.iter_mut().enumerate() {
                outgoing[m].push(LaneShares {
                    lane,
                    shares: std::mem::take(bucket),
                });
            }
            reports.push(LaneState {
                lane,
                messages: 0,
                wire_entries,
                support: Vec::new(),
            });
        }

        // The heaviest outgoing link: the most entries any one peer gets
        // this round, over all stepped lanes.
        let max_link_entries = outgoing
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != self.id)
            .map(|(_, bucket)| bucket.iter().map(|ls| ls.shares.len() as u64).sum::<u64>())
            .max()
            .unwrap_or(0);

        // Share every peer's bucket (sent always, even when empty — the
        // barrier counts k − 1 senders) with the round cache, which serves
        // duplicate-triggered re-sends from the same allocations. The own slot stays empty: the own run never touches
        // the wire.
        let outgoing: Vec<Option<ShareBuckets>> = outgoing
            .into_iter()
            .enumerate()
            .map(|(m, bucket)| (m != self.id).then(|| Arc::new(bucket)))
            .collect();
        self.send_buckets(seq, &outgoing, transport);
        let mut incoming: Vec<ShareBuckets> = Vec::with_capacity(self.k - 1);
        let mut have = vec![false; self.k];
        have[self.id] = true;
        for (from, seen) in have.iter_mut().enumerate() {
            if let Some(bucket) = early.remove(&(seq, from)) {
                if !*seen {
                    *seen = true;
                    incoming.push(bucket);
                }
            }
        }

        // Barrier: wait for every peer's bucket for this round, absorbing
        // duplicates/stale traffic and serving retries so a faulty transport
        // cannot wedge two shards against each other.
        let mut waited = Instant::now();
        while incoming.len() + 1 < self.k {
            match transport.recv_deadline(Duration::from_millis(20)) {
                Ok(Message::Shares {
                    seq: s,
                    from,
                    lanes,
                }) => {
                    waited = Instant::now();
                    if s == seq && !have[from] {
                        have[from] = true;
                        incoming.push(lanes);
                    } else if s > seq {
                        early.entry((s, from)).or_insert(lanes);
                    }
                }
                // Coordinator retry of the round we are inside (the only
                // round it can be retrying): a peer may be missing our
                // buckets — re-send them — and tell the coordinator we are
                // alive-but-blocked so it recovers the silent peer, not us.
                Ok(Message::Step { seq: s, .. }) if s == seq => {
                    waited = Instant::now();
                    self.send_buckets(seq, &outgoing, transport);
                    transport.send(
                        Peer::Coordinator,
                        Message::Busy {
                            seq,
                            shard: self.id,
                        },
                    );
                }
                Ok(Message::Halt) => return false,
                Ok(_) => {}
                Err(TransportError::Timeout) => {
                    if waited.elapsed() >= self.patience {
                        return false;
                    }
                }
                Err(TransportError::Disconnected) => return false,
            }
        }

        // Absorb per lane: expand our own run and every peer's run of this
        // lane, in arrival order, over the owned rows.
        let mut remote: Vec<&[Share]> = Vec::with_capacity(self.k - 1);
        for (report, own) in reports.iter_mut().zip(&own) {
            let lane = report.lane;
            remote.clear();
            remote.extend(
                incoming
                    .iter()
                    .filter_map(|sender| sender.iter().find(|ls| ls.lane == lane))
                    .map(|ls| ls.shares.as_slice()),
            );
            let ws = &mut self.lanes[lane as usize];
            report.messages = self
                .receiver
                .absorb(&self.sub, self.laziness, ws, own, &remote);
            report.support = ws.snapshot_sparse();
        }
        let reply = Arc::new(reports);
        transport.send(
            Peer::Coordinator,
            Message::StepDone {
                seq,
                shard: self.id,
                lanes: Arc::clone(&reply),
                max_link_entries,
            },
        );
        self.cache = Some(RoundCache {
            seq,
            outgoing,
            reply,
            max_link_entries,
        });
        true
    }
}
