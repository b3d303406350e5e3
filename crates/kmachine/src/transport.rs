//! Message transport between the coordinator and the worker shards.
//!
//! The execution engine's protocol is deliberately small — a handful of
//! message kinds, strictly round-synchronous — so the [`Transport`] trait can
//! stay a small mailbox: `send` to a peer, `recv_deadline` from anyone, so no
//! endpoint ever waits without a deadline. The in-process implementation
//! ([`MpscTransport`], built by [`mpsc_mesh`]) runs every shard on its own
//! thread over [`std::sync::mpsc`] channels; a socket implementation would
//! serialise [`Message`] and keep the same call sites (all payloads are plain
//! `usize`/`u32`/`u64`/`f64` data).
//!
//! ## Protocol
//!
//! One detection pipeline run is a sequence of *commands* from the
//! coordinator, each processed by every shard in order. Every command
//! carries a dense global sequence number `seq` (1, 2, 3, …) so that a
//! lossy or reordering transport is survivable: a shard executes exactly
//! the commands `last + 1`, treats a replayed `seq ≤ last` as a duplicate
//! (re-sending its cached replies instead of re-executing), and answers a
//! gap (`seq > last + 1`) with [`Message::Nack`] so the coordinator can
//! re-send the missing prefix from its command log.
//!
//! * [`Message::LoadLanes`] — reset the listed walk lanes; the shard homing
//!   a lane's seed loads the point mass. No direct reply; a gap is caught by
//!   the `Nack` rule when the next `Step` arrives.
//! * [`Message::Step`] — one physical walk round for the listed lanes: every
//!   shard computes one share per owned source with mass
//!   ([`cdrw_walk::shard::emit_shares`]) and sends each peer, in one
//!   [`Message::Shares`], the shares of the sources with a neighbour homed
//!   there — one entry per (source, peer), never one per edge. It then
//!   expands the `k − 1` buckets it receives, plus its own run (which never
//!   touches the wire), over its own rows
//!   ([`cdrw_walk::shard::ShareReceiver::absorb`]), counting the edge
//!   contributions it applies, and replies [`Message::StepDone`] with those
//!   counts, its owned slice of every stepped lane's support, and the entry
//!   count of its heaviest outgoing link.
//! * [`Message::Halt`] — shut the shard down.
//!
//! On a fault-free transport rounds are globally synchronous — the
//! coordinator collects every `StepDone` before issuing the next command —
//! so at most one `Shares` per (sender, receiver) pair is in flight and the
//! sequence numbers are pure bookkeeping. Under faults (see the
//! [`chaos`](crate::chaos) module) they are what makes retries idempotent:
//! duplicates are absorbed by the `(seq, from)` keys, never double-counted.
//! The same synchrony is what lets a crash be repaired without a message of
//! its own: every shard has run every command up to the last gathered round,
//! so a replacement is rebuilt from the coordinator's gathered view and only
//! the round in flight is replayed (see the [`engine`](crate::engine)
//! module).
//!
//! ## Shared payloads
//!
//! The bulk payloads — a `Shares` message's buckets ([`ShareBuckets`]) and a
//! `StepDone`'s lane reports — travel behind an [`Arc`]. A shard builds each
//! peer's bucket once and keeps the same `Arc` in its round cache, so the
//! first send, a retry's re-send and a chaos duplicate all share one
//! allocation; the receiver only reads it. A shard never
//! caches its own run: it never touches the wire, is read in place by the
//! absorb, and is dropped with the round. A socket transport
//! would serialise the pointee, so the wire format is unaffected.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use cdrw_graph::VertexId;
use cdrw_walk::shard::Share;

/// Why a receive did not produce a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// Every sender for this endpoint hung up: the peer (or the whole run)
    /// is gone and no message can ever arrive again.
    Disconnected,
    /// No message arrived within the deadline. The peer may be slow, the
    /// message may have been lost — retrying is the caller's decision.
    Timeout,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => f.write_str("transport disconnected"),
            TransportError::Timeout => f.write_str("transport receive timed out"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A walk lane's shares addressed to one receiving shard, for one round.
#[derive(Debug, Clone)]
pub struct LaneShares {
    /// The walk lane the shares belong to.
    pub lane: u32,
    /// One share per sending source with a neighbour homed on the receiver,
    /// ascending by source.
    pub shares: Vec<Share>,
}

/// One sender's per-lane share buckets for one receiver and round,
/// ascending by lane, shared between the message and the sender's re-send
/// cache.
pub type ShareBuckets = Arc<Vec<LaneShares>>;

/// A shard's post-step report for one walk lane.
#[derive(Debug, Clone)]
pub struct LaneState {
    /// The walk lane.
    pub lane: u32,
    /// Edge contributions this shard applied to its owned vertices for the
    /// lane this round (its share of the CONGEST flood cost).
    pub messages: u64,
    /// Share entries this shard sent to remote peers for the lane this
    /// round.
    pub wire_entries: u64,
    /// The shard-owned slice of the lane's support after the step:
    /// `(vertex, mass)`, ascending by vertex, zero-mass entries included.
    pub support: Vec<(VertexId, f64)>,
}

/// A protocol message.
#[derive(Debug, Clone)]
pub enum Message {
    /// Coordinator → shard: reset the listed lanes to fresh point-mass walks.
    LoadLanes {
        /// Global command sequence number.
        seq: u64,
        /// `(lane, seed)` pairs; every shard resets the lane, the seed's
        /// home shard loads the mass.
        seeds: Vec<(u32, VertexId)>,
    },
    /// Coordinator → shard: run one walk round for the listed lanes.
    Step {
        /// Global command sequence number.
        seq: u64,
        /// Active lanes, ascending.
        lanes: Vec<u32>,
    },
    /// Shard → shard: one round's shares for the receiving shard.
    Shares {
        /// The command sequence number of the `Step` these shares belong to.
        seq: u64,
        /// The sending shard.
        from: usize,
        /// Per-lane share buckets, ascending by lane.
        lanes: ShareBuckets,
    },
    /// Shard → coordinator: the step round is complete on this shard.
    StepDone {
        /// The command sequence number of the completed `Step`.
        seq: u64,
        /// The reporting shard.
        shard: usize,
        /// Per-lane message counts and owned support slices, ascending by
        /// lane; shared with the shard's re-send cache.
        lanes: Arc<Vec<LaneState>>,
        /// The most share entries this shard sent any one peer this round,
        /// summed over the stepped lanes: its heaviest outgoing link.
        max_link_entries: u64,
    },
    /// Shard → shard-coordinator liveness signal: the shard is alive and
    /// inside the exchange barrier of round `seq` (sent when a coordinator
    /// retry reaches a shard already working on that round). Distinguishes a
    /// *blocked* shard — waiting on a dead peer's shares — from a dead one,
    /// so the coordinator recovers only the truly silent shard.
    Busy {
        /// The round the shard is working on.
        seq: u64,
        /// The reporting shard.
        shard: usize,
    },
    /// Shard → coordinator: a command arrived out of order (`seq` jumped
    /// past `expected`); re-send the command log from `expected` onwards.
    Nack {
        /// The complaining shard.
        shard: usize,
        /// The lowest sequence number the shard has not yet executed.
        expected: u64,
    },
    /// Coordinator → shard: shut down.
    Halt,
}

/// A message peer: the coordinator or a worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// The coordinator process.
    Coordinator,
    /// Worker shard `i`.
    Shard(usize),
}

/// A shard's mailbox: send to any peer, deadline-bounded receive from all of
/// them.
///
/// In-process today ([`MpscTransport`]); the engine only ever talks through
/// this trait, so a socket transport slots in without touching the shard or
/// coordinator logic. The chaos wrapper ([`crate::chaos::ChaosTransport`])
/// also implements it, injecting seeded faults around any inner transport.
pub trait Transport: Send {
    /// Sends `message` to `to`. Must not block on the receiver.
    fn send(&mut self, to: Peer, message: Message);
    /// Receives the next message addressed to this endpoint, waiting at most
    /// `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when the deadline expires first,
    /// [`TransportError::Disconnected`] when no message can ever arrive.
    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, TransportError>;
}

/// The mesh's routing table: one outgoing channel per shard. Shared (behind
/// a lock) so a crashed shard's slot can be swapped for a replacement's
/// fresh inbox without rebuilding every peer's transport.
type ShardRoutes = Arc<RwLock<Vec<Sender<Message>>>>;

/// The in-process [`Transport`]: unbounded [`std::sync::mpsc`] channels, one
/// inbox per shard, shard-to-shard routes resolved through the shared
/// routing table at send time.
#[derive(Debug)]
pub struct MpscTransport {
    to_coordinator: Sender<Message>,
    routes: ShardRoutes,
    inbox: Receiver<Message>,
}

impl Transport for MpscTransport {
    fn send(&mut self, to: Peer, message: Message) {
        // A disconnected receiver means the run is being torn down (e.g. a
        // panic elsewhere) or the peer crashed; dropping the message is the
        // right response — the retry protocol recovers.
        match to {
            Peer::Coordinator => {
                let _ = self.to_coordinator.send(message);
            }
            Peer::Shard(i) => {
                let routes = self.routes.read().expect("routing table poisoned");
                let _ = routes[i].send(message);
            }
        }
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })
    }
}

/// The coordinator's end of an in-process mesh.
#[derive(Debug)]
pub struct CoordinatorLinks {
    routes: ShardRoutes,
    inbox: Receiver<Message>,
    num_shards: usize,
}

impl CoordinatorLinks {
    /// Sends `message` to shard `i`.
    pub fn send(&self, i: usize, message: Message) {
        let routes = self.routes.read().expect("routing table poisoned");
        let _ = routes[i].send(message);
    }

    /// Broadcasts clones of `message` to every shard.
    pub fn broadcast(&self, message: &Message) {
        let routes = self.routes.read().expect("routing table poisoned");
        for sender in routes.iter() {
            let _ = sender.send(message.clone());
        }
    }

    /// Receives the next shard reply, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when the deadline expires first,
    /// [`TransportError::Disconnected`] when every shard endpoint and the
    /// reconnector are gone.
    pub fn recv_deadline(&self, timeout: Duration) -> Result<Message, TransportError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => TransportError::Disconnected,
        })
    }

    /// Number of shards on the mesh.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }
}

/// A handle that can mint a replacement [`MpscTransport`] for a crashed
/// shard: a fresh inbox is created and the shared routing table's slot is
/// swapped, so from that moment every peer's sends to the shard reach the
/// replacement. The old shard's inbox goes quiet and its worker exits by
/// patience timeout.
///
/// Holding a reconnector keeps the coordinator inbox's channel alive, so a
/// coordinator sees silence, not disconnection, when every shard is gone.
#[derive(Debug, Clone)]
pub struct ShardReconnector {
    routes: ShardRoutes,
    to_coordinator: Sender<Message>,
}

impl ShardReconnector {
    /// Replaces shard `i`'s route with a fresh inbox and returns the
    /// transport wired to it.
    pub fn reconnect(&self, i: usize) -> MpscTransport {
        let (tx, rx) = channel();
        {
            let mut routes = self.routes.write().expect("routing table poisoned");
            routes[i] = tx;
        }
        MpscTransport {
            to_coordinator: self.to_coordinator.clone(),
            routes: Arc::clone(&self.routes),
            inbox: rx,
        }
    }
}

/// Builds a fully connected in-process mesh: the coordinator's links, one
/// [`MpscTransport`] per shard, and a [`ShardReconnector`] able to re-wire
/// crashed shards.
pub fn mpsc_mesh(k: usize) -> (CoordinatorLinks, Vec<MpscTransport>, ShardReconnector) {
    let (to_coordinator, coordinator_inbox) = channel();
    let mut route_senders = Vec::with_capacity(k);
    let mut inboxes = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = channel();
        route_senders.push(tx);
        inboxes.push(rx);
    }
    let routes: ShardRoutes = Arc::new(RwLock::new(route_senders));
    let transports = inboxes
        .into_iter()
        .map(|inbox| MpscTransport {
            to_coordinator: to_coordinator.clone(),
            routes: Arc::clone(&routes),
            inbox,
        })
        .collect();
    let reconnector = ShardReconnector {
        routes: Arc::clone(&routes),
        to_coordinator,
    };
    (
        CoordinatorLinks {
            routes,
            inbox: coordinator_inbox,
            num_shards: k,
        },
        transports,
        reconnector,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wait no healthy in-process delivery comes near.
    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn mesh_routes_between_all_peers() {
        let (links, mut transports, _) = mpsc_mesh(2);
        assert_eq!(links.num_shards(), 2);
        // Coordinator → shard 0.
        links.send(0, Message::Halt);
        assert!(matches!(
            transports[0].recv_deadline(WAIT),
            Ok(Message::Halt)
        ));
        // Shard 0 → shard 1.
        transports[0].send(
            Peer::Shard(1),
            Message::Shares {
                seq: 1,
                from: 0,
                lanes: Arc::default(),
            },
        );
        assert!(matches!(
            transports[1].recv_deadline(WAIT),
            Ok(Message::Shares {
                seq: 1,
                from: 0,
                ..
            })
        ));
        // Shard 1 → coordinator.
        transports[1].send(
            Peer::Coordinator,
            Message::StepDone {
                seq: 1,
                shard: 1,
                lanes: Arc::default(),
                max_link_entries: 0,
            },
        );
        assert!(matches!(
            links.recv_deadline(WAIT),
            Ok(Message::StepDone {
                seq: 1,
                shard: 1,
                ..
            })
        ));
        // Broadcast reaches both shards.
        links.broadcast(&Message::Step {
            seq: 2,
            lanes: vec![0],
        });
        for t in &mut transports {
            assert!(matches!(
                t.recv_deadline(WAIT),
                Ok(Message::Step { seq: 2, .. })
            ));
        }
    }

    #[test]
    fn coordinator_recv_reports_disconnect_as_a_typed_error() {
        let (links, transports, reconnector) = mpsc_mesh(2);
        // Every shard transport gone (their `to_coordinator` clones dropped),
        // and the reconnector too, which holds the coordinator's channel
        // open: the coordinator must observe a typed error, not panic or hang.
        drop(transports);
        drop(reconnector);
        assert!(matches!(
            links.recv_deadline(WAIT),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn recv_deadline_times_out_when_no_message_arrives() {
        let (links, mut transports, _) = mpsc_mesh(1);
        assert!(matches!(
            links.recv_deadline(Duration::from_millis(1)),
            Err(TransportError::Timeout)
        ));
        assert!(matches!(
            transports[0].recv_deadline(Duration::from_millis(1)),
            Err(TransportError::Timeout)
        ));
    }

    #[test]
    fn reconnect_reroutes_sends_to_the_replacement_inbox() {
        let (links, mut transports, reconnector) = mpsc_mesh(2);
        // Swap shard 1 for a replacement; the old inbox goes quiet.
        let mut replacement = reconnector.reconnect(1);
        links.send(1, Message::Halt);
        transports[0].send(
            Peer::Shard(1),
            Message::Shares {
                seq: 3,
                from: 0,
                lanes: Arc::default(),
            },
        );
        assert!(matches!(replacement.recv_deadline(WAIT), Ok(Message::Halt)));
        assert!(matches!(
            replacement.recv_deadline(WAIT),
            Ok(Message::Shares { seq: 3, .. })
        ));
        // The old inbox's last sender (the routing-table slot) was dropped by
        // the swap: the orphaned worker observes disconnection and exits.
        assert!(matches!(
            transports[1].recv_deadline(Duration::from_millis(1)),
            Err(TransportError::Disconnected)
        ));
        // The replacement still reaches the coordinator.
        replacement.send(
            Peer::Coordinator,
            Message::Nack {
                shard: 1,
                expected: 2,
            },
        );
        assert!(matches!(
            links.recv_deadline(WAIT),
            Ok(Message::Nack {
                shard: 1,
                expected: 2
            })
        ));
    }
}
