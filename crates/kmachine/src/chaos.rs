//! Seeded fault injection for the sharded runtime.
//!
//! `ChaosTransport` wraps any shard `Transport` and makes it misbehave
//! according to a [`FaultPlan`]: messages are dropped, delayed (delivered
//! out of order a few transport operations later), duplicated, and a shard
//! can be crashed outright when a chosen command sequence number reaches it.
//! The resilient coordinator (`KMachineEngine::run_chaos`) must still
//! produce a detection bit-identical to the fault-free run — the PR 7
//! conformance suite is the oracle.
//!
//! ## Determinism
//!
//! The fate of every message is a pure function of the plan seed and the
//! message's *identity* — its kind, sequence number, sender, receiver, and
//! how many times this endpoint has already sent/received that exact
//! message (so a retry of a dropped message gets a fresh roll instead of
//! being dropped forever). No wall clock and no shared RNG stream is
//! involved, so the injected fault pattern is replayable from the plan
//! alone, independent of thread scheduling. `Halt` is exempt: shutdown is
//! control-plane traffic, and faulting it would only slow teardown (the
//! shard-side patience timeout covers a lost `Halt` on a real lossy
//! transport).
//!
//! Crashes fire exactly once: the consumed state lives in the shared
//! `ChaosHarness`, so a replacement shard wrapped from the same harness
//! does not instantly re-crash while replaying the same sequence numbers.
//! The per-identity attempt counters are shared the same way — per shard
//! slot, across instances — so a replacement continues its predecessor's
//! attempt sequence instead of replaying its exact fate rolls (which would
//! turn one unlucky-but-recoverable loss streak into a deterministic
//! permanent failure of every successive replacement).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::transport::{Message, Peer, Transport, TransportError};

/// Crash instruction: kill one shard when a coordinator command with
/// `seq >= at_seq` reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrash {
    /// The shard to crash.
    pub shard: usize,
    /// The command sequence number that triggers the crash.
    pub at_seq: u64,
}

/// A deterministic, replayable fault schedule for one sharded run.
///
/// Rates are probabilities in `[0, 1)` applied independently per message
/// per direction; `drop_rate + delay_rate + duplicate_rate` must stay
/// `< 1.0` (the remainder is clean delivery). The zero plan
/// ([`FaultPlan::fault_free`]) short-circuits to the inner transport, which
/// is what the perf-smoke overhead bar measures.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault pattern.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_rate: f64,
    /// Probability a message is delayed (re-delivered out of order after
    /// [`FaultPlan::delay_ops`] further transport operations).
    pub delay_rate: f64,
    /// Probability a message is delivered twice.
    pub duplicate_rate: f64,
    /// How many transport operations a delayed message waits before
    /// delivery.
    pub delay_ops: u32,
    /// Shard crash instructions; each fires at most once.
    pub crashes: Vec<ShardCrash>,
}

impl FaultPlan {
    /// The no-fault plan: every message delivered exactly once, in order.
    pub fn fault_free() -> Self {
        FaultPlan {
            seed: 0,
            drop_rate: 0.0,
            delay_rate: 0.0,
            duplicate_rate: 0.0,
            delay_ops: 3,
            crashes: Vec::new(),
        }
    }

    /// A clean plan carrying only a seed, ready for the builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::fault_free()
        }
    }

    /// Sets the drop probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the delay probability and the delay length in transport ops.
    pub fn with_delay(mut self, rate: f64, ops: u32) -> Self {
        self.delay_rate = rate;
        self.delay_ops = ops;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Adds a shard crash at the given command sequence number.
    pub fn with_crash(mut self, shard: usize, at_seq: u64) -> Self {
        self.crashes.push(ShardCrash { shard, at_seq });
        self
    }

    /// Whether this plan injects no faults at all.
    pub fn is_fault_free(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.crashes.is_empty()
    }

    /// Validates the plan's rates.
    ///
    /// # Errors
    ///
    /// A message naming the offending field when a rate is out of `[0, 1)`,
    /// the rates sum to ≥ 1, or a delay is configured with zero length.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("delay_rate", self.delay_rate),
            ("duplicate_rate", self.duplicate_rate),
        ] {
            if !(0.0..1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1), got {rate}"));
            }
        }
        let total = self.drop_rate + self.delay_rate + self.duplicate_rate;
        if total >= 1.0 {
            return Err(format!(
                "drop + delay + duplicate rates must sum below 1, got {total}"
            ));
        }
        if self.delay_rate > 0.0 && self.delay_ops == 0 {
            return Err("delay_ops must be ≥ 1 when delay_rate > 0".to_string());
        }
        Ok(())
    }
}

/// Shared chaos state for one run: the plan plus the once-only crash
/// bookkeeping. One harness wraps every shard transport of the run —
/// including replacements spawned by recovery, which must share the
/// consumed-crash state.
#[derive(Debug)]
pub(crate) struct ChaosHarness {
    plan: FaultPlan,
    fired: Arc<Mutex<Vec<bool>>>,
    attempts: Arc<Mutex<HashMap<(usize, u64), u32>>>,
}

impl ChaosHarness {
    /// Builds the harness for a validated plan.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = Arc::new(Mutex::new(vec![false; plan.crashes.len()]));
        ChaosHarness {
            plan,
            fired,
            attempts: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Wraps shard `shard`'s transport in the fault injector.
    pub fn wrap<T: Transport>(&self, shard: usize, inner: T) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            shard,
            plan: self.plan.clone(),
            fired: Arc::clone(&self.fired),
            inert: self.plan.is_fault_free(),
            crashed: false,
            attempts: Arc::clone(&self.attempts),
            delayed_out: Vec::new(),
            delayed_in: Vec::new(),
        }
    }
}

/// What the plan decides for one (message, attempt) pair.
enum Fate {
    Deliver,
    Drop,
    Delay,
    Duplicate,
}

/// A [`Transport`] wrapper injecting the harness's faults on both the send
/// and the receive side of one shard, so every link the shard touches
/// (coordinator → shard, shard → shard, shard → coordinator) is lossy.
#[derive(Debug)]
pub(crate) struct ChaosTransport<T: Transport> {
    inner: T,
    shard: usize,
    plan: FaultPlan,
    fired: Arc<Mutex<Vec<bool>>>,
    inert: bool,
    crashed: bool,
    /// Per-identity send/receive counters so retries re-roll their fate,
    /// shared through the harness so a recovery replacement continues its
    /// predecessor's attempt sequence instead of replaying its fate rolls.
    attempts: Arc<Mutex<HashMap<(usize, u64), u32>>>,
    /// Delayed outgoing messages: `(ops_remaining, to, message)`.
    delayed_out: Vec<(u32, Peer, Message)>,
    /// Delayed incoming messages: `(ops_remaining, message)`.
    delayed_in: Vec<(u32, Message)>,
}

const DIR_OUT: u64 = 0x632B_E5B8_58E7_1A2D;
const DIR_IN: u64 = 0x9D2C_46F1_0E38_C54B;

/// SplitMix64 finaliser: the avalanche everything here keys fates from.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash input.
fn unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The faultable identity of a message on a link, or `None` for exempt
/// control-plane traffic (`Halt`).
fn identity(message: &Message, endpoint: Peer) -> Option<u64> {
    let (tag, a, b): (u64, u64, u64) = match message {
        Message::LoadLanes { seq, .. } => (1, *seq, 0),
        Message::Step { seq, .. } => (2, *seq, 0),
        Message::Shares { seq, from, .. } => (3, *seq, *from as u64),
        Message::StepDone { seq, shard, .. } => (4, *seq, *shard as u64),
        Message::Nack { shard, expected } => (5, *expected, *shard as u64),
        Message::Busy { seq, shard } => (8, *seq, *shard as u64),
        Message::Halt => return None,
    };
    let end = match endpoint {
        Peer::Coordinator => u64::MAX,
        Peer::Shard(i) => i as u64,
    };
    Some(splitmix64(
        tag ^ splitmix64(a ^ splitmix64(b ^ splitmix64(end))),
    ))
}

impl<T: Transport> ChaosTransport<T> {
    /// Rolls the fate for one (direction, identity) pair, advancing the
    /// attempt counter so the next try of the same message re-rolls.
    fn fate(&mut self, direction: u64, id: u64) -> Fate {
        let mut attempts = self.attempts.lock().expect("chaos state poisoned");
        let attempt = attempts.entry((self.shard, id ^ direction)).or_insert(0);
        let roll = unit(
            self.plan.seed
                ^ splitmix64(self.shard as u64 ^ direction)
                ^ id
                ^ splitmix64(u64::from(*attempt)),
        );
        *attempt += 1;
        if roll < self.plan.drop_rate {
            Fate::Drop
        } else if roll < self.plan.drop_rate + self.plan.delay_rate {
            Fate::Delay
        } else if roll < self.plan.drop_rate + self.plan.delay_rate + self.plan.duplicate_rate {
            Fate::Duplicate
        } else {
            Fate::Deliver
        }
    }

    /// Advances the delay clocks by one transport operation; due outgoing
    /// messages are sent, a due incoming message (if any) is returned for
    /// delivery.
    fn tick_delays(&mut self) -> Option<Message> {
        let mut i = 0;
        while i < self.delayed_out.len() {
            if self.delayed_out[i].0 <= 1 {
                let (_, to, message) = self.delayed_out.swap_remove(i);
                self.inner.send(to, message);
            } else {
                self.delayed_out[i].0 -= 1;
                i += 1;
            }
        }
        let mut due = None;
        let mut i = 0;
        while i < self.delayed_in.len() {
            if self.delayed_in[i].0 <= 1 && due.is_none() {
                due = Some(self.delayed_in.swap_remove(i).1);
            } else {
                self.delayed_in[i].0 = self.delayed_in[i].0.saturating_sub(1).max(1);
                i += 1;
            }
        }
        due
    }

    /// Fires the first armed crash instruction for this shard triggered by
    /// command sequence number `seq`, if any. Returns whether the shard is
    /// now crashed.
    fn check_crash(&mut self, seq: u64) -> bool {
        if self.crashed {
            return true;
        }
        let mut fired = self.fired.lock().expect("chaos state poisoned");
        for (i, crash) in self.plan.crashes.iter().enumerate() {
            if crash.shard == self.shard && !fired[i] && seq >= crash.at_seq {
                fired[i] = true;
                self.crashed = true;
                return true;
            }
        }
        false
    }

    /// One receive attempt: applies crash and fault rules to the next inner
    /// message. `Ok(None)` means the message was consumed by a fault (the
    /// caller should try again within its own deadline budget).
    fn filter_incoming(&mut self, message: Message) -> Result<Option<Message>, TransportError> {
        if let Message::Step { seq, .. } | Message::LoadLanes { seq, .. } = &message {
            if self.check_crash(*seq) {
                return Err(TransportError::Disconnected);
            }
        }
        let Some(id) = identity(&message, Peer::Shard(self.shard)) else {
            return Ok(Some(message)); // Halt: exempt.
        };
        match self.fate(DIR_IN, id) {
            Fate::Deliver => Ok(Some(message)),
            Fate::Drop => Ok(None),
            Fate::Delay => {
                self.delayed_in.push((self.plan.delay_ops.max(1), message));
                Ok(None)
            }
            Fate::Duplicate => {
                self.delayed_in.push((1, message.clone()));
                Ok(Some(message))
            }
        }
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, to: Peer, message: Message) {
        if self.inert {
            return self.inner.send(to, message);
        }
        if self.crashed {
            return;
        }
        let _ = self.tick_delays().map(|due| self.delayed_in.push((1, due)));
        let Some(id) = identity(&message, to) else {
            return self.inner.send(to, message);
        };
        match self.fate(DIR_OUT, id) {
            Fate::Deliver => self.inner.send(to, message),
            Fate::Drop => {}
            Fate::Delay => self
                .delayed_out
                .push((self.plan.delay_ops.max(1), to, message)),
            Fate::Duplicate => {
                self.inner.send(to, message.clone());
                self.inner.send(to, message);
            }
        }
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        if self.inert {
            return self.inner.recv_deadline(timeout);
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.crashed {
                return Err(TransportError::Disconnected);
            }
            if let Some(due) = self.tick_delays() {
                match self.filter_incoming(due)? {
                    Some(message) => return Ok(message),
                    None => continue,
                }
            }
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .ok_or(TransportError::Timeout)?;
            // Wake at least every few milliseconds so delayed messages whose
            // clocks are driven by transport operations still make progress
            // while the worker is parked waiting.
            let slice = remaining.min(Duration::from_millis(5));
            let message = match self.inner.recv_deadline(slice) {
                Ok(message) => message,
                Err(TransportError::Timeout) => continue,
                Err(TransportError::Disconnected) => return Err(TransportError::Disconnected),
            };
            match self.filter_incoming(message)? {
                Some(message) => return Ok(message),
                None => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mpsc_mesh;

    /// A wait no healthy in-process delivery comes near.
    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn fault_free_plan_is_inert_and_transparent() {
        let plan = FaultPlan::fault_free();
        assert!(plan.is_fault_free());
        plan.validate().unwrap();
        let harness = ChaosHarness::new(plan);
        let (links, transports, _) = mpsc_mesh(2);
        let mut chaos: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(i, t)| harness.wrap(i, t))
            .collect();
        links.broadcast(&Message::Step {
            seq: 1,
            lanes: vec![0],
        });
        for t in &mut chaos {
            assert!(matches!(
                t.recv_deadline(WAIT),
                Ok(Message::Step { seq: 1, .. })
            ));
        }
        chaos[0].send(
            Peer::Coordinator,
            Message::StepDone {
                seq: 1,
                shard: 0,
                lanes: Default::default(),
                max_link_entries: 0,
            },
        );
        assert!(matches!(
            links.recv_deadline(WAIT),
            Ok(Message::StepDone { seq: 1, .. })
        ));
    }

    #[test]
    fn crash_fires_once_and_reports_disconnection() {
        let plan = FaultPlan::seeded(7).with_crash(0, 2);
        let harness = ChaosHarness::new(plan);
        let (links, mut transports, _) = mpsc_mesh(1);
        let mut chaos = harness.wrap(0, transports.pop().unwrap());
        links.send(
            0,
            Message::Step {
                seq: 1,
                lanes: vec![],
            },
        );
        assert!(matches!(
            chaos.recv_deadline(WAIT),
            Ok(Message::Step { seq: 1, .. })
        ));
        links.send(
            0,
            Message::Step {
                seq: 2,
                lanes: vec![],
            },
        );
        assert!(matches!(
            chaos.recv_deadline(WAIT),
            Err(TransportError::Disconnected)
        ));
        // Once crashed, always crashed — and sends are swallowed.
        assert!(matches!(
            chaos.recv_deadline(WAIT),
            Err(TransportError::Disconnected)
        ));
        chaos.send(
            Peer::Coordinator,
            Message::Nack {
                shard: 0,
                expected: 1,
            },
        );
        assert!(matches!(
            links.recv_deadline(Duration::from_millis(5)),
            Err(TransportError::Timeout)
        ));
        // A replacement wrapped from the same harness does not re-crash on
        // the same sequence numbers: the instruction was consumed.
        let (links2, mut transports2, _) = mpsc_mesh(1);
        let mut replacement = harness.wrap(0, transports2.pop().unwrap());
        links2.send(
            0,
            Message::Step {
                seq: 2,
                lanes: vec![],
            },
        );
        assert!(matches!(
            replacement.recv_deadline(WAIT),
            Ok(Message::Step { seq: 2, .. })
        ));
    }

    #[test]
    fn dropped_messages_get_fresh_rolls_on_retry() {
        // With a 50% drop rate a retried message must eventually get
        // through: the attempt counter feeds the fate hash.
        let plan = FaultPlan::seeded(3).with_drop_rate(0.5);
        plan.validate().unwrap();
        let harness = ChaosHarness::new(plan);
        let (links, mut transports, _) = mpsc_mesh(1);
        let mut chaos = harness.wrap(0, transports.pop().unwrap());
        let mut delivered = 0;
        for _ in 0..64 {
            links.send(
                0,
                Message::Step {
                    seq: 5,
                    lanes: vec![],
                },
            );
            if chaos.recv_deadline(Duration::from_millis(10)).is_ok() {
                delivered += 1;
            }
        }
        assert!(
            delivered > 10 && delivered < 60,
            "50% drop rate delivered {delivered}/64"
        );
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        assert!(FaultPlan::seeded(1).with_drop_rate(1.0).validate().is_err());
        assert!(FaultPlan::seeded(1)
            .with_drop_rate(-0.1)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_drop_rate(0.5)
            .with_delay(0.4, 2)
            .with_duplicate_rate(0.2)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1).with_delay(0.1, 0).validate().is_err());
        assert!(FaultPlan::seeded(1)
            .with_drop_rate(0.05)
            .with_delay(0.05, 4)
            .with_duplicate_rate(0.05)
            .with_crash(2, 40)
            .validate()
            .is_ok());
    }
}
