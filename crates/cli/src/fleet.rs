//! The worker fleet: one slot ladder shared by `amulet drive` and the
//! `--connect` slots of `amulet serve`.
//!
//! Scheduling lives in one place, [`amulet_core::Service`]: its lease
//! source re-issues orphaned batches lowest index first, drops batches past
//! the find-first floor, and reduces and coverage-checks the fragments. A
//! *slot* (`run_slot`) is one thread forwarding leases to one worker over
//! a [`WorkerLink`] — an `amulet worker` child process
//! ([`ProcLink`](crate::ProcLink)), a remote `amulet worker --listen`
//! ([`TcpLink`](crate::TcpLink)), or an in-memory link wrapped in fault
//! injection ([`FaultyLink`](crate::FaultyLink)). [`run_driver`] is
//! `amulet drive`: a single-campaign, in-memory `Service` fed by
//! `drive.procs` slots, exactly as `Campaign::run_sharded` is with
//! in-process slots. Slots log their ladder as `fleet` rows on an
//! [`EventLog`]: `drive --events`' file, or `serve`'s stderr stream.
//!
//! # Robustness model
//!
//! Cross-host links fail in ways pipes never did, so every slot runs a
//! failure ladder that keeps the campaign's result bit-identical:
//!
//! - **Heartbeats** — before each batch the slot sends [`Msg::Ping`] and
//!   waits [`DriveConfig::liveness`] for the matching pong, catching a
//!   wedged-but-connected peer cheaply instead of committing a batch to it.
//! - **Per-batch deadline** — a fragment must arrive within
//!   [`DriveConfig::batch_timeout`]; a hung worker consumes the batch's
//!   retry budget exactly like a crashed one.
//! - **Teardown before retry** — any failure kills the link; a batch is
//!   only ever re-sent on a *fresh* session, so a zombie's late fragment
//!   can never be read (at most one accepted fragment per batch index).
//! - **Seeded backoff** — reconnect attempts are spaced by exponential
//!   backoff with deterministic jitter (seeded from
//!   [`DriveConfig::seed`] and the slot number); wall-clock only, never
//!   part of the fingerprint.
//! - **Quarantine** — a slot whose batches keep exhausting their retry
//!   budget ([`DriveConfig::quarantine_after`] consecutive times) retires
//!   and stops being offered work.
//! - **Graceful degradation** — a failing slot returns its batch to the
//!   campaign's orphan pool, which surviving slots drain first, so the
//!   campaign completes (same fingerprint) as long as one willing slot
//!   survives. The service's degradation floor fails a campaign that no
//!   live slot is willing to serve: "campaign incomplete" once every slot
//!   quarantined, the handshake error once every live slot refused the
//!   campaign's hello.
//! - **Find-first** — before each batch the slot forwards the campaign's
//!   current floor ([`Lease::floor`]) as [`Msg::Cancel`], and accepts a
//!   worker's skipped fragment for a batch past it.
//!
//! See `docs/DISTRIBUTED.md` for the operator-level picture.

use amulet_core::proto::{FragmentReport, Msg};
use amulet_core::{
    run_with_slots, CampaignConfig, CampaignReport, Lease, LeaseWait, Service, LEASE_POLL,
};
use amulet_util::{EventLog, Xoshiro256};
use std::io::Write;
use std::time::Duration;

/// A bidirectional, line-delimited message channel to one worker.
///
/// Implementations must deliver messages in order and flush eagerly; an
/// `Err` from either direction marks the link dead (the slot tears it
/// down, reconnects, and re-runs the in-flight batch on the fresh session).
pub trait WorkerLink {
    /// Sends one message.
    fn send(&mut self, msg: &Msg) -> Result<(), String>;

    /// Waits up to `timeout` for the next message. `Ok(None)` means the
    /// deadline passed with the link still (apparently) alive; partial
    /// data already received must be retained for the next call.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String>;

    /// Receives the next message, waiting effectively forever (one year —
    /// large enough to mean "no deadline", small enough that deadline
    /// arithmetic on `Instant` cannot overflow).
    fn recv(&mut self) -> Result<Msg, String> {
        match self.recv_timeout(Duration::from_secs(365 * 24 * 3600))? {
            Some(msg) => Ok(msg),
            None => Err("link timed out".into()),
        }
    }
}

/// Knobs of a fleet run: how many slots `drive` starts, and the failure
/// ladder every slot (drive's and serve's alike) climbs.
#[derive(Debug, Clone, Copy)]
pub struct DriveConfig {
    /// Worker links (slots) to drive concurrently.
    pub procs: usize,
    /// Programs per batch — part of the deterministic stream identity,
    /// exactly as for the in-process pool.
    pub batch_programs: usize,
    /// Reconnect-and-retry attempts per batch before the batch is
    /// orphaned (returned to the pool for another slot).
    pub retries: usize,
    /// Deadline for the hello handshake and for each ping → pong
    /// heartbeat; a peer that cannot answer within this window is treated
    /// as dead.
    pub liveness: Duration,
    /// Deadline for a batch assignment to produce its fragment. Workers
    /// are single-threaded and cannot answer pings mid-batch, so this is
    /// deliberately much longer than `liveness`.
    pub batch_timeout: Duration,
    /// First reconnect delay; doubles per consecutive failed attempt.
    pub backoff_base: Duration,
    /// Upper bound on the reconnect delay.
    pub backoff_max: Duration,
    /// Consecutive retry-budget exhaustions before a slot is quarantined
    /// (retired from the fleet).
    pub quarantine_after: usize,
    /// Seed for the backoff jitter (wall-clock only — never observable in
    /// the campaign fingerprint).
    pub seed: u64,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            procs: 2,
            batch_programs: amulet_core::ShardConfig::default().batch_programs,
            retries: 2,
            liveness: Duration::from_secs(10),
            batch_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            quarantine_after: 3,
            seed: 2025,
        }
    }
}

/// Drives one campaign over `drive.procs` worker links and reduces the
/// streamed fragments deterministically: [`run_with_slots`] with
/// `drive.procs` linked slots (`run_slot`), the skeleton
/// `Campaign::run_sharded` runs with in-process slots.
///
/// `connect` is called with the slot index — once when the slot takes its
/// first batch, plus once per reconnect after a link failure — so a TCP
/// fleet can map slots to addresses and tests can inject per-connection
/// faults. Each fresh link must open with a `hello` whose version and
/// config echo match `cfg` within [`DriveConfig::liveness`]; a hello
/// *mismatch* is a configuration error that the slot never retries, while
/// every transport-shaped handshake failure is transient and consumes
/// retry budget. `tee`, when given, receives every executed fragment as
/// one JSONL line; `events` receives the slots' `fleet` rows (`connect`,
/// `link_failure`, `backoff`, `orphan`, `adopt`, `refused`, `quarantine`,
/// `drained`, each with its `slot`) — [`EventLog::off`] discards them.
///
/// The reduced fragment set is checked by
/// [`verify_fragment_coverage`](amulet_core::verify_fragment_coverage)
/// before reduction — exactly one fragment per planned batch (or per batch
/// in the find-first prefix), however chaotic the failure schedule was.
pub fn run_driver<L, C>(
    cfg: &CampaignConfig,
    drive: &DriveConfig,
    connect: C,
    tee: Option<Box<dyn Write + Send>>,
    events: &EventLog,
) -> Result<CampaignReport, String>
where
    L: WorkerLink,
    C: Fn(usize) -> Result<L, String> + Sync,
{
    run_with_slots(
        cfg.clone(),
        drive.batch_programs,
        tee,
        drive.procs,
        |service, id, slot| run_slot(service, id, slot, || connect(slot), drive, events),
    )
}

/// How a batch attempt (or handshake) failed.
enum Failure {
    /// The worker's hello does not match the campaign's config: a
    /// deployment bug no retry can fix, so the slot refuses the campaign.
    Refused(String),
    /// Transport-level failure (EOF, timeout, truncation, refused
    /// connection): retry/backoff/quarantine territory.
    Transient(String),
}

/// A live link and the campaign whose hello it passed. A worker's
/// persistent runtime must never serve two configs, so sessions are
/// per-campaign.
struct Session<L> {
    campaign: u64,
    link: L,
    /// The lowest cancel floor already sent on this link; a replacement
    /// worker starts with no floor, so the slot re-sends it.
    sent_floor: usize,
}

/// Ends a session politely. Best-effort: a worker that misses the shutdown
/// exits on EOF or its idle timeout.
fn close<L: WorkerLink>(session: &mut Option<Session<L>>) {
    if let Some(mut s) = session.take() {
        let _ = s.link.send(&Msg::Shutdown);
    }
}

/// One slot's loop: lease a batch from `service` (as attached slot `id`),
/// run it through the retry/backoff ladder on links from `connect`, and
/// complete it, release it for the survivors, or refuse its campaign.
/// Exits on service shutdown (emitting `drained`) or on quarantine, and
/// retires the slot either way. `slot` numbers the slot in its `fleet`
/// rows on `events` and seeds its backoff jitter.
pub(crate) fn run_slot<L: WorkerLink>(
    service: &Service,
    id: u64,
    slot: usize,
    connect: impl Fn() -> Result<L, String>,
    drive: &DriveConfig,
    events: &EventLog,
) {
    let mut rng =
        Xoshiro256::seed_from_u64(drive.seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut session: Option<Session<L>> = None;
    // Consecutive batches that exhausted their retry budget on this slot.
    let mut strikes = 0usize;
    // Heartbeat tokens, unique per slot so a cross-wired reply is caught.
    let mut token = (slot as u64) << 32;

    loop {
        let lease = match service.wait_lease_for(Some(id), LEASE_POLL) {
            LeaseWait::Shutdown => break,
            LeaseWait::Idle => {
                // A session outliving its campaign would pin the worker.
                if session
                    .as_ref()
                    .is_some_and(|s| !service.is_active(s.campaign))
                {
                    close(&mut session);
                }
                continue;
            }
            LeaseWait::Lease(lease) => lease,
        };
        let batch = lease.spec.index as u64;
        if lease.adopted {
            events.emit("fleet", "adopt", |o| {
                o.int("slot", slot as u64).int("batch", batch)
            });
        }
        if session
            .as_ref()
            .is_some_and(|s| s.campaign != lease.campaign)
        {
            close(&mut session);
        }

        // ---- the retry/backoff ladder for this batch ---------------------
        let mut attempts = 0usize;
        let outcome = loop {
            token += 1;
            let attempt = match session.as_mut() {
                Some(live) => call_worker(live, &lease, drive, token).map_err(Failure::Transient),
                None => connect_checked(&lease.cfg, &connect, drive.liveness).and_then(|link| {
                    events.emit("fleet", "connect", |o| o.int("slot", slot as u64));
                    let fresh = session.insert(Session {
                        campaign: lease.campaign,
                        link,
                        sent_floor: usize::MAX,
                    });
                    call_worker(fresh, &lease, drive, token).map_err(Failure::Transient)
                }),
            };
            match attempt {
                Err(Failure::Transient(e)) => {
                    // Tear the link down before any retry: a batch is only
                    // ever re-sent on a fresh session, so a zombie's late
                    // fragment can never be read.
                    session = None;
                    events.emit("fleet", "link_failure", |o| {
                        o.int("slot", slot as u64)
                            .int("batch", batch)
                            .int("attempt", attempts as u64)
                            .str("error", &e)
                    });
                    if attempts >= drive.retries {
                        break Err(Failure::Transient(e));
                    }
                    attempts += 1;
                    let delay = backoff_delay(&mut rng, drive, attempts);
                    events.emit("fleet", "backoff", |o| {
                        o.int("slot", slot as u64)
                            .num("delay_s", delay.as_secs_f64())
                    });
                    std::thread::sleep(delay);
                }
                other => break other,
            }
        };

        // ---- account for the outcome -------------------------------------
        match outcome {
            Ok(reply) => {
                strikes = 0;
                if reply.skipped {
                    // Past the floor: the service drops it, unexecuted.
                    service.release(*lease);
                } else {
                    service.complete(*lease, reply.into_fragment());
                }
            }
            Err(Failure::Refused(e)) => {
                events.emit("fleet", "refused", |o| {
                    o.int("slot", slot as u64)
                        .int("campaign", lease.campaign)
                        .str("error", &e)
                });
                service.refuse(id, *lease, e);
            }
            Err(Failure::Transient(e)) => {
                strikes += 1;
                events.emit("fleet", "orphan", |o| {
                    o.int("slot", slot as u64)
                        .int("batch", batch)
                        .str("error", &e)
                });
                service.release(*lease);
                if strikes >= drive.quarantine_after {
                    events.emit("fleet", "quarantine", |o| {
                        o.int("slot", slot as u64).int("strikes", strikes as u64)
                    });
                    service.retire_slot(id);
                    return;
                }
            }
        }
    }

    close(&mut session);
    events.emit("fleet", "drained", |o| o.int("slot", slot as u64));
    service.retire_slot(id);
}

/// Connects a link and consumes its `hello` handshake under a deadline.
/// Only a hello that *arrives but mismatches* is a refusal; everything
/// else about a bad handshake looks like a transport failure and stays
/// transient.
fn connect_checked<L: WorkerLink>(
    cfg: &CampaignConfig,
    connect: &impl Fn() -> Result<L, String>,
    liveness: Duration,
) -> Result<L, Failure> {
    let mut link = connect().map_err(Failure::Transient)?;
    match link.recv_timeout(liveness) {
        Ok(Some(Msg::Hello(hello))) => hello.check(cfg).map_err(Failure::Refused)?,
        Ok(Some(other)) => {
            return Err(Failure::Transient(format!(
                "expected hello, got {:?}",
                other.tag()
            )))
        }
        Ok(None) => {
            return Err(Failure::Transient(format!(
                "handshake timed out after {liveness:?}"
            )))
        }
        Err(e) => return Err(Failure::Transient(e)),
    }
    Ok(link)
}

/// One batch over a live session: heartbeat probe, forward a lowered
/// cancel floor, assign the batch, await its fragment under the batch
/// deadline. A skipped fragment is accepted only past a floor this link
/// was sent, and a records batch only with one record per violation.
fn call_worker<L: WorkerLink>(
    session: &mut Session<L>,
    lease: &Lease,
    drive: &DriveConfig,
    token: u64,
) -> Result<FragmentReport, String> {
    let (link, spec) = (&mut session.link, lease.spec);
    // The probe catches a wedged-but-connected peer within `liveness`
    // instead of committing a batch and waiting out the much longer batch
    // deadline. Workers answer pings between batches only — they are
    // single-threaded by design (one persistent runtime per session).
    link.send(&Msg::Ping { token })?;
    match link.recv_timeout(drive.liveness)? {
        Some(Msg::Pong { token: t }) if t == token => {}
        Some(Msg::Pong { token: t }) => {
            return Err(format!("pong token mismatch: sent {token:#x}, got {t:#x}"))
        }
        Some(other) => return Err(format!("expected pong, got {:?}", other.tag())),
        None => return Err(format!("heartbeat timed out after {:?}", drive.liveness)),
    }
    if let Some(hit) = lease.floor().filter(|&hit| hit < session.sent_floor) {
        link.send(&Msg::Cancel { earliest: hit })?;
        session.sent_floor = hit;
    }
    link.send(&Msg::Batch(spec))?;
    match link.recv_timeout(drive.batch_timeout)? {
        Some(Msg::Fragment(reply))
            if reply.index == spec.index
                && (!reply.skipped || spec.index > session.sent_floor)
                && (!spec.records || reply.records.len() == reply.violations.len()) =>
        {
            Ok(reply)
        }
        Some(Msg::Fragment(reply)) => Err(format!(
            "unusable fragment for batch {} (index {}, skipped {}, {} records for {} violations)",
            spec.index,
            reply.index,
            reply.skipped,
            reply.records.len(),
            reply.violations.len()
        )),
        Some(other) => Err(format!("expected fragment, got {:?}", other.tag())),
        None => Err(format!(
            "batch {} timed out after {:?}",
            spec.index, drive.batch_timeout
        )),
    }
}

/// Exponential backoff with deterministic jitter: `base × 2^attempt`
/// capped at `max`, then jittered uniformly into `[cap/2, cap]` so a
/// fleet's reconnects decorrelate without losing reproducibility. The one
/// backoff of the crate: `submit`'s retry and shed waits use it too.
pub(crate) fn backoff_delay(rng: &mut Xoshiro256, drive: &DriveConfig, attempt: usize) -> Duration {
    let base = drive.backoff_base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let max = drive.backoff_max.as_nanos().min(u128::from(u64::MAX)) as u64;
    let cap = base
        .saturating_mul(1u64 << attempt.min(20))
        .min(max.max(base))
        .max(2);
    Duration::from_nanos(cap / 2 + rng.range(0, cap / 2 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_contracts::ContractKind;
    use amulet_core::proto::{CampaignSpec, Hello};
    use amulet_core::{Corpus, CorpusInput, Reduction, ViolationClass, ViolationDigest};
    use amulet_defenses::DefenseKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Deadlines everywhere so failure paths resolve in milliseconds.
    fn quick_drive() -> DriveConfig {
        DriveConfig {
            procs: 1,
            batch_programs: 2,
            retries: 1,
            liveness: ms(25),
            batch_timeout: ms(60),
            backoff_base: ms(1),
            backoff_max: ms(4),
            quarantine_after: 2,
            seed: 11,
        }
    }

    /// A worker that completes the handshake and then wedges: sends
    /// succeed, nothing ever comes back — the failure mode a blocking
    /// `recv` would stall on forever.
    struct HungLink {
        cfg: CampaignConfig,
        hello_sent: bool,
    }

    impl WorkerLink for HungLink {
        fn send(&mut self, _msg: &Msg) -> Result<(), String> {
            Ok(())
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
            if !self.hello_sent {
                self.hello_sent = true;
                return Ok(Some(Msg::Hello(Hello::for_config(&self.cfg))));
            }
            std::thread::sleep(timeout);
            Ok(None)
        }
    }

    /// Deadlines harden the ladder: a hung (not crashed) worker consumes the
    /// retry budget through its deadlines and the campaign fails cleanly
    /// and promptly instead of stalling.
    #[test]
    fn a_hung_worker_exhausts_the_retry_budget_cleanly() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 2;
        let drive = quick_drive();
        let t0 = Instant::now();
        let err = run_driver(
            &cfg,
            &drive,
            |_slot| {
                Ok(HungLink {
                    cfg: cfg.clone(),
                    hello_sent: false,
                })
            },
            None,
            &EventLog::off(),
        )
        .unwrap_err();
        assert!(
            err.contains("campaign incomplete"),
            "expected a clean budget-exhaustion error, got: {err}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "deadlines must bound the stall ({:?})",
            t0.elapsed()
        );
    }

    /// A hello that *arrives but mismatches* is a deployment bug: the
    /// campaign aborts at once, with no reconnect burning the budget.
    #[test]
    fn a_mismatched_hello_aborts_without_retries() {
        let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        let mut wrong = cfg.clone();
        wrong.seed ^= 0xdead;
        let connects = AtomicUsize::new(0);
        let err = run_driver(
            &cfg,
            &quick_drive(),
            |_slot| {
                connects.fetch_add(1, Ordering::SeqCst);
                Ok(HungLink {
                    cfg: wrong.clone(),
                    hello_sent: false,
                })
            },
            None,
            &EventLog::off(),
        )
        .unwrap_err();
        assert_eq!(
            connects.load(Ordering::SeqCst),
            1,
            "a config mismatch must not be retried: {err}"
        );
        assert!(
            !err.contains("campaign incomplete"),
            "the handshake mismatch itself must surface: {err}"
        );
    }

    /// A worker that answers every batch with one violation digest and
    /// `records` minimized records.
    struct RecordsLink {
        records: usize,
        replies: Vec<Msg>,
    }

    impl WorkerLink for RecordsLink {
        fn send(&mut self, msg: &Msg) -> Result<(), String> {
            match msg {
                Msg::Ping { token } => self.replies.push(Msg::Pong { token: *token }),
                Msg::Batch(spec) => {
                    let input = CorpusInput {
                        regs: [0; 16],
                        flags: 0,
                        mem_digest: 0,
                        mem_len: 0,
                    };
                    let record = Reduction {
                        program: String::new(),
                        removed: 0,
                        input_a: input.clone(),
                        input_b: input,
                    };
                    self.replies.push(Msg::Fragment(FragmentReport {
                        skipped: false,
                        violations: vec![ViolationDigest {
                            class: ViolationClass::SpectreV1,
                            ctrace_digest: 0,
                            l1d_diff: Vec::new(),
                            dtlb_diff: Vec::new(),
                            l1i_diff: Vec::new(),
                        }],
                        records: vec![record; self.records],
                        ..FragmentReport::skipped(spec.index)
                    }));
                }
                _ => {}
            }
            Ok(())
        }
        fn recv_timeout(&mut self, _timeout: Duration) -> Result<Option<Msg>, String> {
            Ok((!self.replies.is_empty()).then(|| self.replies.remove(0)))
        }
    }

    /// A batch that asked for records must come back with one record per
    /// violation; fewer is an unusable fragment, like a wrong index.
    #[test]
    fn a_records_batch_answered_without_its_records_is_rejected() {
        let service = Service::with_corpus(Some(Corpus::open(
            std::env::temp_dir().join(format!("amulet_fleet_records_{}", std::process::id())),
        )));
        let spec = CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed: 1,
            scale: None,
            find_first: false,
            batch_programs: 4,
            cycle_skip: true,
        };
        service.submit(&spec).unwrap();
        let LeaseWait::Lease(lease) = service.wait_lease(ms(10)) else {
            panic!("expected a lease")
        };
        assert!(
            lease.spec.records,
            "a service with a corpus asks for records"
        );
        let call = |records| {
            let mut session = Session {
                campaign: lease.campaign,
                link: RecordsLink {
                    records,
                    replies: Vec::new(),
                },
                sent_floor: usize::MAX,
            };
            call_worker(&mut session, &lease, &quick_drive(), 1)
        };
        let err = call(0).unwrap_err();
        assert!(err.contains("0 records for 1 violations"), "{err}");
        assert_eq!(call(1).unwrap().records.len(), 1);
    }

    /// Backoff is deterministic in (seed, attempt), grows exponentially,
    /// and respects the cap.
    #[test]
    fn backoff_is_seeded_capped_and_monotone_in_expectation() {
        let drive = DriveConfig {
            backoff_base: ms(2),
            backoff_max: ms(100),
            ..DriveConfig::default()
        };
        let delays = |seed: u64| -> Vec<Duration> {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (1..=10)
                .map(|a| backoff_delay(&mut rng, &drive, a))
                .collect()
        };
        assert_eq!(delays(1), delays(1), "same seed, same schedule");
        for (attempt, d) in delays(2).iter().enumerate() {
            // cap = min(base × 2^attempt, max); jitter keeps it in [cap/2, cap].
            let cap = ms(2 * (1 << (attempt + 1))).min(ms(100));
            assert!(
                *d >= cap / 2 && *d <= cap,
                "attempt {attempt}: {d:?} vs cap {cap:?}"
            );
        }
    }
}
