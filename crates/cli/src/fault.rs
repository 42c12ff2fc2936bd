//! Deterministic fault injection for the campaign fabric.
//!
//! [`FaultyLink`] wraps any [`WorkerLink`] and perturbs it according to a
//! seeded [`FaultPlan`]: messages are dropped, frames truncated, the link
//! severed, or traffic delayed — the hostile-network failure menagerie,
//! replayable bit-for-bit from the seed. `tests/fleet_faults.rs` uses it
//! to prove the driver's robustness ladder keeps
//! `CampaignReport::fingerprint()` identical to the clean in-process run
//! under every injected failure mode.
//!
//! The wrapper is deliberately *typed* (it perturbs whole messages, not
//! bytes): byte-level truncation of a frame in flight is covered by the
//! worker's malformed-line tolerance and `TcpLink`'s mid-frame EOF
//! detection, which this module models as a lost message plus a dead link
//! — the driver-observable outcomes are the same.

use crate::fleet::WorkerLink;
use amulet_core::proto::{CampaignSpec, Msg};
use amulet_util::Xoshiro256;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A seeded hostile-*client* script for the session-hardening harness:
/// deterministically generates the traffic an adversarial client throws
/// at `amulet serve` — malformed frames, protocol-legal-but-unexpected
/// messages, byte-at-a-time slow-writer chunkings, and mid-frame
/// disconnect prefixes — so every attack mix in `tests/serve_overload.rs`
/// replays bit-for-bit from its seed. The typed sibling of [`FaultyLink`]
/// (which perturbs the *worker* fabric); this one speaks raw bytes,
/// because the session layer's defenses live below the message layer.
#[derive(Debug)]
pub struct AdversarialPlan {
    rng: Xoshiro256,
}

impl AdversarialPlan {
    /// A plan replayable from `seed`.
    pub fn new(seed: u64) -> Self {
        AdversarialPlan {
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// One line guaranteed to fail `Msg::parse_line` — random printable
    /// junk, an unknown tag, a truncated real submit, or a type-confused
    /// field. Never empty (empty lines are legitimately skipped).
    pub fn malformed_line(&mut self) -> String {
        match self.rng.range(0, 4) {
            0 => {
                let len = self.rng.range(1, 40) as usize;
                (0..len)
                    .map(|_| char::from(b'#' + self.rng.range(0, 60) as u8))
                    .collect()
            }
            1 => "{\"type\":\"no_such_message\"}".into(),
            2 => {
                let full = Msg::Submit(self.spec()).to_line();
                let cut = 1 + self.rng.range(0, full.len() as u64 - 1) as usize;
                full[..cut].into()
            }
            _ => "{\"type\":\"submit\",\"seed\":\"not-a-number\"}".into(),
        }
    }

    /// A syntactically valid message no client may send to the service —
    /// exercises the "unexpected message" strike, not the parser.
    pub fn unexpected_line(&mut self) -> String {
        let token = self.rng.range(0, 1 << 20);
        match self.rng.range(0, 2) {
            0 => Msg::Ping { token }.to_line(),
            _ => Msg::Pong { token }.to_line(),
        }
    }

    /// Splits `frame` into the 1–3-byte chunks of a slow writer — the
    /// slowloris shape: each chunk is a separate write, arbitrarily far
    /// apart in time.
    pub fn slow_chunks(&mut self, frame: &[u8]) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        let mut at = 0;
        while at < frame.len() {
            let end = (at + self.rng.range(1, 4) as usize).min(frame.len());
            chunks.push(frame[at..end].to_vec());
            at = end;
        }
        chunks
    }

    /// A strict prefix of `frame` — what a peer that dies mid-frame
    /// leaves on the wire. Never the whole frame (that would be a clean
    /// message, not a disconnect artifact).
    pub fn partial_prefix(&mut self, frame: &[u8]) -> Vec<u8> {
        let max = frame.len().saturating_sub(1).max(1);
        let cut = (1 + self.rng.range(0, max as u64) as usize).min(max);
        frame[..cut.min(frame.len())].to_vec()
    }

    /// A well-formed spec for the truncation variant — the prefix of a
    /// *real* submit is the most camouflaged malformed line there is.
    fn spec(&mut self) -> CampaignSpec {
        CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed: self.rng.range(0, 1 << 30),
            scale: None,
            find_first: false,
            batch_programs: 3,
            cycle_skip: true,
        }
    }
}

/// Per-operation fault probabilities in permille (0–1000), plus the seed
/// the decision stream derives from.
///
/// Reconnects must not replay the same decision stream — a link that
/// severs on its first send would then sever on *every* reconnect and no
/// campaign could ever finish — so give each [`FaultyLink`] a distinct
/// seed (e.g. `FaultPlan::hostile(base ^ connection_counter)`).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of this link's decision stream.
    pub seed: u64,
    /// Chance a message silently vanishes in flight (‰ per operation).
    pub drop_per_mille: u64,
    /// Chance a frame arrives truncated — a hard receive error (‰).
    pub truncate_per_mille: u64,
    /// Chance the connection dies, permanently for this link (‰).
    pub sever_per_mille: u64,
    /// Chance an operation is delayed by [`FaultPlan::delay`] first (‰).
    pub delay_per_mille: u64,
    /// The injected delay.
    pub delay: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity wrapper).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            truncate_per_mille: 0,
            sever_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
        }
    }

    /// A genuinely hostile network: every failure mode active, aggressive
    /// enough that a short campaign sees each one several times.
    pub fn hostile(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 40,
            truncate_per_mille: 40,
            sever_per_mille: 20,
            delay_per_mille: 60,
            delay: Duration::from_millis(1),
        }
    }
}

/// Shared tally of injected faults — lets a test assert the hostile path
/// actually fired (a fault test that injected nothing proves nothing).
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Messages silently dropped.
    pub dropped: AtomicUsize,
    /// Frames truncated (receive errors).
    pub truncated: AtomicUsize,
    /// Links severed.
    pub severed: AtomicUsize,
    /// Operations delayed.
    pub delayed: AtomicUsize,
}

impl FaultCounters {
    /// Total injected faults of all kinds (delays included).
    pub fn total(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
            + self.severed.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
    }
}

enum Fault {
    None,
    Drop,
    Truncate,
    Sever,
    Delay,
}

/// A [`WorkerLink`] that injects faults from a seeded plan. Once severed,
/// every further operation fails (a dead socket stays dead).
pub struct FaultyLink<L> {
    inner: L,
    rng: Xoshiro256,
    plan: FaultPlan,
    counters: Arc<FaultCounters>,
    dead: bool,
}

impl<L: WorkerLink> FaultyLink<L> {
    /// Wraps `inner` under `plan`, tallying into `counters`.
    pub fn new(inner: L, plan: FaultPlan, counters: Arc<FaultCounters>) -> Self {
        FaultyLink {
            inner,
            rng: Xoshiro256::seed_from_u64(plan.seed),
            plan,
            counters,
            dead: false,
        }
    }

    /// One decision draw. Always consumes exactly one RNG value so the
    /// decision stream depends only on the operation count, not on which
    /// faults are enabled.
    fn roll(&mut self) -> Fault {
        let r = self.rng.range(0, 1000);
        let p = &self.plan;
        let mut edge = p.drop_per_mille;
        if r < edge {
            return Fault::Drop;
        }
        edge += p.truncate_per_mille;
        if r < edge {
            return Fault::Truncate;
        }
        edge += p.sever_per_mille;
        if r < edge {
            return Fault::Sever;
        }
        edge += p.delay_per_mille;
        if r < edge {
            return Fault::Delay;
        }
        Fault::None
    }
}

impl<L: WorkerLink> WorkerLink for FaultyLink<L> {
    fn send(&mut self, msg: &Msg) -> Result<(), String> {
        if self.dead {
            return Err("injected: link severed".into());
        }
        match self.roll() {
            Fault::Sever => {
                self.dead = true;
                self.counters.severed.fetch_add(1, Ordering::Relaxed);
                Err("injected: link severed mid-send".into())
            }
            // A frame cut mid-line on the way out is, to the worker, a
            // malformed line it skips — indistinguishable from a drop at
            // this layer, but tallied separately.
            Fault::Drop => {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Fault::Truncate => {
                self.counters.truncated.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Fault::Delay => {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.plan.delay);
                self.inner.send(msg)
            }
            Fault::None => self.inner.send(msg),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
        if self.dead {
            return Err("injected: link severed".into());
        }
        match self.roll() {
            Fault::Sever => {
                self.dead = true;
                self.counters.severed.fetch_add(1, Ordering::Relaxed);
                Err("injected: link severed mid-receive".into())
            }
            Fault::Truncate => {
                self.counters.truncated.fetch_add(1, Ordering::Relaxed);
                Err("injected: truncated frame".into())
            }
            // The reply (if any arrives promptly) is swallowed and the
            // caller sees a silent link. Waiting out the caller's full
            // deadline would only slow tests down — the caller tears the
            // link down on `None` either way, so an unconsumed late reply
            // dies with the link.
            Fault::Drop => {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                let _ = self
                    .inner
                    .recv_timeout(timeout.min(Duration::from_millis(20)));
                Ok(None)
            }
            Fault::Delay => {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.plan.delay);
                match timeout.checked_sub(self.plan.delay) {
                    Some(left) if !left.is_zero() => self.inner.recv_timeout(left),
                    _ => Ok(None),
                }
            }
            Fault::None => self.inner.recv_timeout(timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted link: every send succeeds, receives pop a queue.
    struct ScriptLink {
        replies: VecDeque<Msg>,
        sends: usize,
    }

    impl WorkerLink for ScriptLink {
        fn send(&mut self, _msg: &Msg) -> Result<(), String> {
            self.sends += 1;
            Ok(())
        }
        fn recv_timeout(&mut self, _timeout: Duration) -> Result<Option<Msg>, String> {
            Ok(self.replies.pop_front())
        }
    }

    fn scripted(n: usize) -> ScriptLink {
        ScriptLink {
            replies: (0..n as u64).map(|token| Msg::Pong { token }).collect(),
            sends: 0,
        }
    }

    /// Same seed → the exact same fault sequence; different seed → (here)
    /// a different one. The determinism the whole harness rests on.
    #[test]
    fn fault_decisions_replay_from_the_seed() {
        let trace = |seed: u64| -> (Vec<String>, usize) {
            let counters = Arc::new(FaultCounters::default());
            let mut link =
                FaultyLink::new(scripted(64), FaultPlan::hostile(seed), counters.clone());
            let mut outcomes = Vec::new();
            for token in 0..64 {
                let s = match link.send(&Msg::Ping { token }) {
                    Ok(()) => "s+".to_string(),
                    Err(e) => format!("s-{e}"),
                };
                let r = match link.recv_timeout(Duration::from_millis(1)) {
                    Ok(Some(_)) => "r+".to_string(),
                    Ok(None) => "r0".to_string(),
                    Err(e) => format!("r-{e}"),
                };
                outcomes.push(format!("{s}/{r}"));
            }
            (outcomes, counters.total())
        };
        let (a, faults_a) = trace(7);
        let (b, faults_b) = trace(7);
        assert_eq!(a, b, "identical seeds must replay identically");
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "the hostile plan must actually inject");
        let (c, _) = trace(8);
        assert_ne!(a, c, "a different seed must explore a different schedule");
    }

    #[test]
    fn a_severed_link_stays_dead() {
        let counters = Arc::new(FaultCounters::default());
        let plan = FaultPlan {
            sever_per_mille: 1000,
            ..FaultPlan::none(1)
        };
        let mut link = FaultyLink::new(scripted(4), plan, counters.clone());
        assert!(link.send(&Msg::Shutdown).is_err());
        assert!(link.send(&Msg::Shutdown).is_err());
        assert!(link.recv_timeout(Duration::from_millis(1)).is_err());
        assert_eq!(
            counters.severed.load(Ordering::Relaxed),
            1,
            "sever tallied once"
        );
    }

    /// Every adversarial line must actually be adversarial — a
    /// "malformed" line that parses would make the harness prove nothing
    /// — and the whole script must replay from its seed.
    #[test]
    fn adversarial_plans_are_seeded_and_genuinely_malformed() {
        for seed in 0..32 {
            let mut plan = AdversarialPlan::new(seed);
            for _ in 0..24 {
                let line = plan.malformed_line();
                assert!(
                    Msg::parse_line(&line).is_err(),
                    "seed {seed}: {line:?} unexpectedly parsed"
                );
                assert!(
                    Msg::parse_line(&plan.unexpected_line()).is_ok(),
                    "unexpected lines must be protocol-valid"
                );
            }
        }
        let script = |seed: u64| {
            let mut plan = AdversarialPlan::new(seed);
            let lines: Vec<String> = (0..16).map(|_| plan.malformed_line()).collect();
            let chunks = plan.slow_chunks(b"{\"type\":\"ping\",\"token\":1}\n");
            let prefix = plan.partial_prefix(b"{\"type\":\"ping\",\"token\":1}\n");
            (lines, chunks, prefix)
        };
        assert_eq!(script(9), script(9), "same seed must replay");
        assert_ne!(script(9).0, script(10).0, "different seeds must differ");
        let (_, chunks, prefix) = script(9);
        let frame = b"{\"type\":\"ping\",\"token\":1}\n";
        assert_eq!(chunks.concat(), frame, "chunks must reassemble the frame");
        assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= 3));
        assert!(prefix.len() < frame.len(), "a partial frame is a prefix");
        assert_eq!(&frame[..prefix.len()], &prefix[..]);
    }

    #[test]
    fn the_empty_plan_is_the_identity() {
        let counters = Arc::new(FaultCounters::default());
        let mut link = FaultyLink::new(scripted(2), FaultPlan::none(3), counters.clone());
        link.send(&Msg::Ping { token: 0 }).unwrap();
        assert!(matches!(
            link.recv_timeout(Duration::from_millis(1)).unwrap(),
            Some(Msg::Pong { token: 0 })
        ));
        assert_eq!(counters.total(), 0);
    }
}
