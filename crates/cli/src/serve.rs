//! `amulet serve` — the long-lived campaign service, plus the `amulet
//! submit` client and the `amulet corpus` query tool.
//!
//! The daemon glues three loops to one shared [`Service`]:
//!
//! - **client handlers** ([`serve_client`]): one per accepted connection,
//!   speaking the protocol-v5 service messages (`submit`/`accepted`/
//!   `rejected`/`recovering`/`progress`/`result`/`draining`/
//!   `cancel_campaign`) as JSONL over the socket;
//! - **local workers** ([`ServiceHost`]): in-process threads running
//!   the core's slot loop ([`run_local_slot`]) — the same loop
//!   `Campaign::run_sharded` runs;
//! - **TCP slots**: one thread per `--connect` address, forwarding leases
//!   to remote `amulet worker --listen` processes through the fleet's slot
//!   loop ([`crate::fleet`]) — the same heartbeat, per-batch deadline,
//!   retry/backoff, quarantine and cancel-floor ladder as `drive`, with
//!   its event rows on stderr.
//!
//! With `--state-dir DIR`, the daemon is crash-safe: a startup recovery
//! pass (`StateDir::recover`) reloads the persisted result cache and
//! clears stale journals, and every campaign is write-ahead journaled so
//! a killed daemon resumes interrupted work batch-granularly on restart —
//! the client sees a `recovering` note and a fingerprint-identical result.
//!
//! The daemon is also overload- and hostile-client-proof: admission
//! control (`--max-campaigns`/`--admit-queue`/`--client-quota`, enforced
//! by [`Admission`] in the core service) sheds excess submits with a
//! structured `rejected{reason,retry_after_ms}` instead of degrading;
//! sessions are hardened per [`SessionLimits`] (bounded line length,
//! idle-session reaping, a strike ladder for malformed traffic — the PR 6
//! shape); and SIGTERM runs a graceful drain (stop admitting, announce
//! `draining`, checkpoint or finish active campaigns, exit 0). Every
//! rejection, eviction, client fault and drain is a `serve` row on the
//! process's one stderr event stream ([`amulet_util::events::stderr`]),
//! which its `--connect` slots' `fleet` rows share.
//!
//! Scheduling fairness, the result cache and corpus persistence live in
//! `amulet_core::service`; this module is transport and process glue —
//! which is why the service determinism suite (`tests/serve_session.rs`)
//! can drive [`serve_client`] over in-memory pipes and prove the same
//! properties the real-socket tests prove end-to-end.

use crate::fleet::{backoff_delay, run_slot, DriveConfig};
use crate::net::{parse_connect_list, TcpLink};
use crate::{Args, JsonSink, ShapeOptions, WorkerLink};
use amulet_core::proto::{CampaignSpec, Msg, ResultMsg};
use amulet_core::{
    run_local_slot, Admission, Corpus, Service, ServiceEvent, ShardConfig, StateDir, SubmitOutcome,
};
use amulet_util::{events, JsonObj, Xoshiro256};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the drained accept loop polls for the SIGTERM flag and new
/// connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-session hardening limits for [`serve_client_with`] — the defense
/// against slowloris peers (bounded line assembly: a byte-at-a-time
/// writer is accounted against `max_line_bytes` as the bytes arrive, not
/// when a newline finally shows up), half-open peers (idle reaping), and
/// garbage floods (a strike ladder, shaped like the fleet's quarantine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimits {
    /// Longest accepted protocol line, in bytes. An oversized frame is
    /// discarded (never buffered whole) and costs one strike.
    pub max_line_bytes: usize,
    /// Evict a session this long idle with nothing in flight — a client
    /// waiting on an owned campaign is never idle-evicted.
    pub idle_timeout: Duration,
    /// Strikes (malformed, unexpected, oversized frames) before eviction.
    pub strike_limit: usize,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            max_line_bytes: 64 * 1024,
            idle_timeout: Duration::from_secs(300),
            strike_limit: 3,
        }
    }
}

/// Distinct identity per client conversation — what the per-client
/// admission quota counts. `u64::MAX` is the service's anonymous id, so
/// the counter can never collide with it in practice.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// One unit from a session's bounded reader thread.
enum Frame {
    /// A complete line within the size bound (trailing `\r` stripped).
    Line(String),
    /// A line exceeded the bound; this many bytes were discarded.
    TooLong(usize),
    /// A transport read deadline elapsed with the peer still connected —
    /// lets the session loop observe wall-clock idleness on a quiet link.
    Tick,
    /// The transport failed.
    Failed(String),
}

/// Reads newline-delimited frames from `input` under a hard per-line byte
/// bound, so a hostile peer can neither balloon memory with an endless
/// line nor smuggle one past the bound a byte at a time. Exits at EOF, on
/// transport error, or when the session side hangs up (send fails).
fn pump_frames<R: BufRead>(mut input: R, max_line: usize, tx: Sender<Frame>) {
    let mut line: Vec<u8> = Vec::new();
    let mut overflow = 0usize;
    loop {
        let (consumed, ended) = {
            let chunk = match input.fill_buf() {
                Ok([]) => return,
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if tx.send(Frame::Tick).is_err() {
                        return;
                    }
                    continue;
                }
                Err(e) => {
                    let _ = tx.send(Frame::Failed(e.to_string()));
                    return;
                }
            };
            let newline = chunk.iter().position(|&b| b == b'\n');
            let body = &chunk[..newline.unwrap_or(chunk.len())];
            if overflow > 0 || line.len() + body.len() > max_line {
                if overflow == 0 {
                    overflow = line.len();
                    line.clear();
                }
                overflow += body.len();
            } else {
                line.extend_from_slice(body);
            }
            (newline.map_or(chunk.len(), |p| p + 1), newline.is_some())
        };
        input.consume(consumed);
        if ended {
            let frame = if overflow > 0 {
                Frame::TooLong(std::mem::take(&mut overflow))
            } else {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                Frame::Line(String::from_utf8_lossy(&line).into_owned())
            };
            line.clear();
            if tx.send(frame).is_err() {
                return;
            }
        }
    }
}

/// The service plus its worker threads. [`ServiceHost::shutdown`] drains
/// and joins them; dropping without shutdown leaves daemon threads running
/// (they exit at the next poll once the service is shut down elsewhere).
pub struct ServiceHost {
    service: Arc<Service>,
    threads: Vec<JoinHandle<()>>,
}

impl ServiceHost {
    /// Starts `local_workers` in-process workers and one TCP slot per
    /// `connect` address, all leasing from `service`. TCP slots run the
    /// fleet's slot loop under [`DriveConfig::default`] and log their
    /// `fleet` rows to the process's stderr event stream, numbered by
    /// their position in `connect`.
    pub fn start(service: Arc<Service>, local_workers: usize, connect: &[String]) -> Self {
        let mut host = ServiceHost {
            service,
            threads: Vec::new(),
        };
        host.add_local_workers(local_workers);
        for (slot, addr) in connect.iter().enumerate() {
            let id = host.service.attach_slot();
            let (service, addr) = (host.service.clone(), addr.clone());
            host.threads.push(std::thread::spawn(move || {
                let drive = DriveConfig::default();
                let connect = || TcpLink::connect(&addr, drive.liveness);
                run_slot(&service, id, slot, connect, &drive, events::stderr())
            }));
        }
        host
    }

    /// Adds more local workers to a running host (tests use this to pin
    /// down scheduling orders: submit first, attach workers second).
    pub fn add_local_workers(&mut self, n: usize) {
        for _ in 0..n {
            let slot = self.service.attach_slot();
            let service = self.service.clone();
            self.threads
                .push(std::thread::spawn(move || run_local_slot(&service, slot)));
        }
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Shuts the service down and joins every worker thread.
    pub fn shutdown(self) {
        self.service.shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Counters from one client conversation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// `submit` messages accepted (cache hits included).
    pub submitted: usize,
    /// Submits answered straight from the result cache.
    pub cache_hits: usize,
    /// Submits shed by admission control (`rejected` answers).
    pub rejected: usize,
    /// Terminal `result` messages delivered.
    pub results: usize,
    /// `cancel_campaign` messages processed.
    pub cancelled: usize,
    /// Lines that were not valid protocol messages (oversized included).
    pub malformed: usize,
    /// Why the session was evicted (`"strikes"`/`"idle"`), if it was.
    pub evicted: Option<&'static str>,
}

/// [`serve_client_with`] under the default [`SessionLimits`].
pub fn serve_client<R, W>(service: &Arc<Service>, input: R, out: W) -> Result<ClientStats, String>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    serve_client_with(service, input, out, &SessionLimits::default())
}

/// Serves one client conversation: reads protocol-v5 JSONL from `input`,
/// writes `accepted`/`rejected`/`progress`/`result`/`draining` lines to
/// `out`, and returns when the client disconnects and every campaign it
/// owned has resolved — or earlier, when the hardening `limits` evict the
/// session (strike ladder, idle reaping) or a service drain winds it
/// down.
///
/// Campaigns still active when the conversation ends are cancelled — a
/// result nobody will read is not worth worker time. On a *persistent*
/// service that cancellation is the checkpoint-drain hand-off: the
/// write-ahead journal file survives, so the client's resubmit against a
/// restarted daemon resumes batch-granularly. Submit errors are answered
/// with an error `result` under campaign id `u64::MAX` (no id was ever
/// assigned). Admission sheds are answered with `rejected`; sheds,
/// evictions and every malformed, unexpected or oversized frame are
/// logged as `serve` rows on the stderr event stream.
pub fn serve_client_with<R, W>(
    service: &Arc<Service>,
    input: R,
    mut out: W,
    limits: &SessionLimits,
) -> Result<ClientStats, String>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let client = CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
    // Subscribe before the first submit can possibly resolve, so no event
    // for an owned campaign is ever missed.
    let events = service.subscribe();
    let (tx, frames) = channel();
    let max_line = limits.max_line_bytes;
    std::thread::spawn(move || pump_frames(input, max_line, tx));

    let mut stats = ClientStats::default();
    let mut owned: HashSet<u64> = HashSet::new();
    let mut open = true;
    let mut strikes = 0usize;
    let mut saw_drain = false;
    let mut last_frame = Instant::now();
    let result = (|| -> Result<(), String> {
        let send = |out: &mut W, msg: &Msg| -> Result<(), String> {
            writeln!(out, "{}", msg.to_line())
                .and_then(|()| out.flush())
                .map_err(|e| format!("client write failed: {e}"))
        };
        while open || !owned.is_empty() {
            match frames.recv_timeout(Duration::from_millis(20)) {
                Ok(Frame::Line(line)) if line.trim().is_empty() => last_frame = Instant::now(),
                Ok(Frame::Line(line)) => {
                    last_frame = Instant::now();
                    match Msg::parse_line(&line) {
                        Ok(Msg::Submit(spec)) => match service.submit_for(client, &spec) {
                            Ok(SubmitOutcome::Accepted {
                                campaign,
                                total_batches,
                                recovered,
                            }) => {
                                stats.submitted += 1;
                                owned.insert(campaign);
                                send(
                                    &mut out,
                                    &Msg::Accepted {
                                        campaign,
                                        cached: false,
                                    },
                                )?;
                                if recovered > 0 {
                                    send(
                                        &mut out,
                                        &Msg::Recovering {
                                            campaign,
                                            recovered,
                                            total: total_batches,
                                        },
                                    )?;
                                }
                            }
                            Ok(SubmitOutcome::Cached { campaign, result }) => {
                                stats.submitted += 1;
                                stats.cache_hits += 1;
                                stats.results += 1;
                                send(
                                    &mut out,
                                    &Msg::Accepted {
                                        campaign,
                                        cached: true,
                                    },
                                )?;
                                send(&mut out, &Msg::CampaignResult(*result))?;
                            }
                            Ok(SubmitOutcome::Rejected {
                                reason,
                                retry_after_ms,
                            }) => {
                                stats.rejected += 1;
                                events::stderr().emit("serve", "rejected", |o| {
                                    o.int("client", client)
                                        .str("reason", &reason)
                                        .int("retry_after_ms", retry_after_ms)
                                });
                                send(
                                    &mut out,
                                    &Msg::Rejected {
                                        reason,
                                        retry_after_ms,
                                    },
                                )?;
                            }
                            Err(e) => {
                                send(
                                    &mut out,
                                    &Msg::CampaignResult(ResultMsg {
                                        campaign: u64::MAX,
                                        cached: false,
                                        cancelled: false,
                                        executed_batches: 0,
                                        report: None,
                                        error: Some(e),
                                    }),
                                )?;
                            }
                        },
                        Ok(Msg::CancelCampaign { campaign }) => {
                            stats.cancelled += 1;
                            service.cancel(campaign);
                        }
                        Ok(other) => {
                            stats.malformed += 1;
                            strikes += 1;
                            events::stderr().emit("serve", "client_malformed", |o| {
                                o.int("client", client)
                                    .str("kind", "unexpected")
                                    .str("tag", other.tag())
                            });
                        }
                        Err(e) => {
                            stats.malformed += 1;
                            strikes += 1;
                            events::stderr().emit("serve", "client_malformed", |o| {
                                o.int("client", client)
                                    .str("kind", "malformed")
                                    .str("error", &e)
                            });
                        }
                    }
                }
                Ok(Frame::TooLong(bytes)) => {
                    last_frame = Instant::now();
                    stats.malformed += 1;
                    strikes += 1;
                    events::stderr().emit("serve", "client_malformed", |o| {
                        o.int("client", client)
                            .str("kind", "oversized")
                            .int("bytes", bytes as u64)
                    });
                }
                Ok(Frame::Tick) => {}
                Ok(Frame::Failed(e)) => return Err(format!("client read failed: {e}")),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
            if open && strikes >= limits.strike_limit {
                stats.evicted = Some("strikes");
            } else if open && owned.is_empty() && last_frame.elapsed() >= limits.idle_timeout {
                stats.evicted = Some("idle");
            }
            if let Some(reason) = stats.evicted {
                events::stderr().emit("serve", "evicted", |o| {
                    o.int("client", client)
                        .str("reason", reason)
                        .int("malformed", stats.malformed as u64)
                });
                return Ok(());
            }
            loop {
                match events.try_recv() {
                    Ok(ServiceEvent::Progress {
                        campaign,
                        done,
                        total,
                        cases,
                    }) if owned.contains(&campaign) => send(
                        &mut out,
                        &Msg::Progress {
                            campaign,
                            done,
                            total,
                            cases,
                        },
                    )?,
                    Ok(ServiceEvent::Finished { campaign }) if owned.contains(&campaign) => {
                        if let Some(result) = service.take_result(campaign) {
                            stats.results += 1;
                            owned.remove(&campaign);
                            send(&mut out, &Msg::CampaignResult(result))?;
                        }
                    }
                    Ok(ServiceEvent::Draining { active }) => {
                        saw_drain = true;
                        send(&mut out, &Msg::Draining { active })?;
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            // Drain wind-down: a persistent service checkpoints — the
            // cleanup below cancels owned campaigns, whose journal files
            // survive for the restarted daemon to resume. An in-memory
            // service finishes owned campaigns first (their results would
            // otherwise be lost with the process).
            if saw_drain && (service.persistent() || owned.is_empty()) {
                return Ok(());
            }
        }
        Ok(())
    })();
    // Whatever ended the conversation, never leave orphaned campaigns
    // burning worker time for a client that will not read the result.
    for id in owned.drain() {
        service.cancel(id);
        let _ = service.take_result(id);
    }
    result.map(|()| stats)
}

/// SIGTERM → graceful drain, installed with no external crate: the
/// handler only stores into an atomic (async-signal-safe), the accept
/// loop polls the flag between nonblocking accepts.
#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FLAG: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_term(_sig: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM handler (signal 15 on every supported Unix).
    pub fn install() {
        unsafe {
            let _ = signal(15, on_term);
        }
    }

    /// Whether SIGTERM has arrived since [`install`].
    pub fn requested() -> bool {
        FLAG.load(Ordering::SeqCst)
    }
}

/// SIGTERM drain is Unix-only; elsewhere the flag simply never fires and
/// the daemon stops via `--sessions` or a hard kill.
#[cfg(not(unix))]
mod term {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

/// `amulet serve`.
pub(crate) fn cmd_serve(mut args: Args) -> Result<(), String> {
    let listen_addr = args
        .value("--listen")?
        .ok_or("serve: --listen ADDR is required")?;
    let workers = args.parsed::<usize>("--workers")?.unwrap_or(1);
    let connect = match args.value("--connect")? {
        Some(list) => parse_connect_list(&list)?,
        None => Vec::new(),
    };
    let corpus = args.value("--corpus")?.map(Corpus::open);
    let state = args.value("--state-dir")?.map(StateDir::open).transpose()?;
    let sessions = args.parsed::<usize>("--sessions")?.unwrap_or(0);
    let admission = Admission {
        max_active: args.parsed::<usize>("--max-campaigns")?.unwrap_or(0),
        max_queue: args.parsed::<usize>("--admit-queue")?.unwrap_or(16),
        per_client: args.parsed::<usize>("--client-quota")?.unwrap_or(0),
    };
    args.finish()?;
    if workers == 0 && connect.is_empty() {
        return Err("serve: need at least one worker (--workers N or --connect LIST)".into());
    }

    let listener =
        TcpListener::bind(&listen_addr).map_err(|e| format!("cannot bind {listen_addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    events::stderr().emit("serve", "serving", |o| {
        o.str("addr", &local.to_string())
            .int("pid", u64::from(std::process::id()))
            .int("workers", workers as u64)
            .int("tcp_slots", connect.len() as u64)
    });

    let service = Arc::new(match state {
        Some(state) => {
            // The startup recovery pass: reload the persisted result cache,
            // clear journals whose campaign already completed, and announce
            // what a resubmit could resume.
            let recovery = state.recover()?;
            events::stderr().emit("serve", "recovery", |o| {
                o.str("state_dir", &state.path().display().to_string())
                    .int("cached", recovery.cache.len() as u64)
                    .int("resumable", recovery.resumable as u64)
                    .int("cleared", recovery.cleared as u64)
                    .int("corrupt", recovery.corrupt as u64)
            });
            Service::with_persistence(corpus, state, recovery)
        }
        None => Service::with_corpus(corpus),
    });
    service.set_admission(admission);
    let host = ServiceHost::start(service.clone(), workers, &connect);
    term::install();
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll listener: {e}"))?;
    let limits = SessionLimits::default();
    let session_seq = AtomicU64::new(0);
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut served = 0usize;
    loop {
        if term::requested() {
            // Graceful drain: stop admitting, tell every connected client,
            // let sessions checkpoint (persistent) or finish (in-memory),
            // then exit 0 below.
            let active = service.drain();
            events::stderr().emit("serve", "draining", |o| o.int("active", active));
            break;
        }
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                // Reap finished sessions so an eviction-heavy day keeps
                // the daemon's memory bounded by *live* sessions.
                handlers.retain(|h| !h.is_finished());
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        };
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);
        // The read deadline turns a silent half-open peer into periodic
        // reader-thread ticks (so idle reaping fires); the write deadline
        // keeps a non-reading peer from wedging the session thread.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let session = session_seq.fetch_add(1, Ordering::Relaxed);
        let log = events::stderr();
        log.emit("serve", "session_start", |o| {
            o.int("session", session).str("peer", &peer.to_string())
        });
        let service = service.clone();
        handlers.push(std::thread::spawn(move || {
            let served = stream
                .try_clone()
                .map_err(|e| format!("cannot clone client stream: {e}"))
                .and_then(|s| serve_client_with(&service, BufReader::new(s), &stream, &limits));
            match served {
                Ok(stats) => log.emit("serve", "session_end", |o| {
                    o.int("session", session)
                        .int("submitted", stats.submitted as u64)
                        .int("cache_hits", stats.cache_hits as u64)
                        .int("rejected", stats.rejected as u64)
                        .int("results", stats.results as u64)
                        .int("cancelled", stats.cancelled as u64)
                        .int("malformed", stats.malformed as u64)
                        .str("evicted", stats.evicted.unwrap_or(""))
                }),
                Err(e) => log.emit("serve", "session_error", |o| {
                    o.int("session", session).str("error", &e)
                }),
            }
        }));
        served += 1;
        if sessions != 0 && served >= sessions {
            break;
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    host.shutdown();
    Ok(())
}

/// Why one `amulet submit` attempt failed.
#[derive(Debug)]
enum SubmitFailure {
    /// The service answered: the campaign itself failed or was cancelled.
    /// Retrying cannot change the outcome.
    Fatal(String),
    /// Transport trouble (connect refused, connection lost mid-campaign) —
    /// a resubmit converges on the same fingerprint, because the service
    /// answers a repeat submit from its cache or resumes its journal.
    Transient(String),
    /// Admission control shed the submit. Retryable like `Transient`, but
    /// the wait honors the server's `retry_after_ms` hint (capped).
    Shed {
        /// The server's stated reason.
        reason: String,
        /// The server's backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
}

/// One received message's effect on an `amulet submit` await loop.
#[derive(Debug)]
enum AwaitStep {
    /// Progress chatter — keep waiting.
    Continue,
    /// The terminal result, already vetted to carry a report.
    Result(Box<ResultMsg>),
    /// The attempt is over.
    Fail(SubmitFailure),
}

/// The fatal-vs-transient-vs-shed split for everything a submit attempt
/// can hear. Fatal: the service answered and retrying cannot change the
/// outcome (campaign error, cancellation, protocol confusion, deadline).
/// Shed: admission control refused — retry after the server's hint.
/// `draining` is chatter: the current conversation either still delivers
/// (finish-drain) or dies with the connection, which the caller already
/// maps to `Transient` — and a resubmit resumes the journal.
fn classify_await(msg: Option<Msg>) -> AwaitStep {
    match msg {
        None => AwaitStep::Fail(SubmitFailure::Fatal("submit: deadline exhausted".into())),
        Some(Msg::Accepted { campaign, cached }) => {
            eprintln!("campaign {campaign} accepted (cached: {cached})");
            AwaitStep::Continue
        }
        Some(Msg::Rejected {
            reason,
            retry_after_ms,
        }) => AwaitStep::Fail(SubmitFailure::Shed {
            reason,
            retry_after_ms,
        }),
        Some(Msg::Draining { active }) => {
            eprintln!("service is draining ({active} campaign(s) still in flight)");
            AwaitStep::Continue
        }
        Some(Msg::Recovering {
            campaign,
            recovered,
            total,
        }) => {
            eprintln!(
                "campaign {campaign}: resuming from journal, \
                 {recovered}/{total} batches already on disk"
            );
            AwaitStep::Continue
        }
        Some(Msg::Progress {
            campaign,
            done,
            total,
            cases,
        }) => {
            eprintln!("campaign {campaign}: {done}/{total} batches, {cases} cases");
            AwaitStep::Continue
        }
        Some(Msg::CampaignResult(r)) => {
            if let Some(e) = r.error {
                AwaitStep::Fail(SubmitFailure::Fatal(format!("campaign failed: {e}")))
            } else if r.cancelled {
                AwaitStep::Fail(SubmitFailure::Fatal(format!(
                    "campaign {} was cancelled",
                    r.campaign
                )))
            } else if r.report.is_none() {
                AwaitStep::Fail(SubmitFailure::Fatal("result carried no report".into()))
            } else {
                AwaitStep::Result(Box::new(r))
            }
        }
        Some(other) => AwaitStep::Fail(SubmitFailure::Fatal(format!(
            "unexpected {:?} from service",
            other.tag()
        ))),
    }
}

/// One connect → submit → await-result conversation.
fn submit_attempt(
    addr: &str,
    spec: &CampaignSpec,
    deadline: Instant,
    sink: &mut JsonSink,
) -> Result<(), SubmitFailure> {
    let mut link =
        TcpLink::connect(addr, Duration::from_secs(10)).map_err(SubmitFailure::Transient)?;
    link.send(&Msg::Submit(spec.clone()))
        .map_err(SubmitFailure::Transient)?;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(SubmitFailure::Fatal("submit: deadline exhausted".into()));
        }
        let msg = link
            .recv_timeout(remaining)
            .map_err(SubmitFailure::Transient)?;
        let r = match classify_await(msg) {
            AwaitStep::Continue => continue,
            AwaitStep::Fail(f) => return Err(f),
            AwaitStep::Result(r) => r,
        };
        let rep = r.report.expect("classified as carrying a report");
        let line = JsonObj::new()
            .int("campaign", r.campaign)
            .bool("cached", r.cached)
            .int("executed_batches", r.executed_batches)
            .str("defense", &rep.defense)
            .str("contract", &rep.contract)
            .str("seed", &rep.seed.to_string())
            .int("cases", rep.stats.cases as u64)
            .int("confirmed", rep.stats.confirmed as u64)
            .bool("violation", !rep.digests.is_empty())
            .str("fingerprint", &format!("{:#018x}", rep.fingerprint()))
            .finish();
        println!("{line}");
        // `--json -` already printed above; only duplicate into a real
        // file sink.
        if !matches!(sink, JsonSink::Stdout) {
            sink.line(&line).map_err(SubmitFailure::Fatal)?;
        }
        return Ok(());
    }
}

/// Upper bound on honoring a server's `retry_after_ms` hint — a hostile
/// or confused server must not park the client for minutes.
const SHED_DELAY_CAP: Duration = Duration::from_secs(10);

/// The wait after a shed submit: the server's hint, capped, under the
/// fleet's seeded half-jitter — the delay lands uniformly in
/// `[hint/2, hint]`.
fn shed_delay(rng: &mut Xoshiro256, retry_after_ms: u64) -> Duration {
    let hint = Duration::from_millis(retry_after_ms.max(1)).min(SHED_DELAY_CAP);
    let flat = DriveConfig {
        backoff_base: hint,
        backoff_max: hint,
        ..DriveConfig::default()
    };
    backoff_delay(rng, &flat, 0)
}

/// `amulet submit`.
pub(crate) fn cmd_submit(mut args: Args) -> Result<(), String> {
    let addr = args
        .value("--connect")?
        .ok_or("submit: --connect ADDR is required")?;
    let shape = ShapeOptions::parse(&mut args)?;
    let batch = args
        .parsed::<usize>("--batch")?
        .unwrap_or(ShardConfig::default().batch_programs)
        .max(1);
    let timeout = Duration::from_secs_f64(args.parsed::<f64>("--timeout-s")?.unwrap_or(600.0));
    let retries = args.parsed::<u64>("--retries")?.unwrap_or(0);
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

    let cfg = shape.config();
    let spec = CampaignSpec {
        defense: shape.defense.name().to_string(),
        contract: shape.contract.name().to_string(),
        source: shape.source.name().to_string(),
        seed: cfg.seed,
        scale: shape.scale,
        find_first: shape.find_first,
        batch_programs: batch,
        cycle_skip: !shape.no_cycle_skip,
    };
    // Deterministic jitter, decorrelated across campaigns by the seed.
    let mut rng = Xoshiro256::seed_from_u64(spec.seed ^ 0x5355_424d_4954_5232);
    let deadline = Instant::now() + timeout;
    let mut attempt = 0u64;
    loop {
        // A shed is transient — the server told us exactly when to come
        // back — so it rides the same --retries budget, with the hinted
        // delay instead of the exponential ladder.
        let (hint, why) = match submit_attempt(&addr, &spec, deadline, &mut sink) {
            Ok(()) => return Ok(()),
            Err(SubmitFailure::Fatal(e)) => return Err(e),
            Err(SubmitFailure::Transient(e)) => (None, e),
            Err(SubmitFailure::Shed {
                reason,
                retry_after_ms,
            }) => (Some(retry_after_ms), format!("submit rejected: {reason}")),
        };
        if attempt >= retries {
            return Err(if retries == 0 {
                why
            } else {
                format!("submit: gave up after {retries} retries: {why}")
            });
        }
        let delay = match hint {
            Some(retry_after_ms) => shed_delay(&mut rng, retry_after_ms),
            // The fleet's reconnect ladder: cap doubles per attempt.
            None => backoff_delay(&mut rng, &DriveConfig::default(), attempt as usize),
        };
        attempt += 1;
        events::stderr().emit("submit", "submit_retry", |o| {
            o.int("attempt", attempt)
                .int("delay_ms", delay.as_millis() as u64)
                .str("error", &why)
        });
        std::thread::sleep(delay);
    }
}

/// `amulet corpus`.
pub(crate) fn cmd_corpus(mut args: Args) -> Result<(), String> {
    let path = args
        .value("--file")?
        .ok_or("corpus: --file PATH is required")?;
    let class = args.value("--class")?;
    let defense = args.value("--defense")?;
    args.finish()?;

    let records = Corpus::open(&path).query(class.as_deref(), defense.as_deref())?;
    for rec in &records {
        println!("{}", rec.to_line());
    }
    eprintln!("{} record(s)", records.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_msg(cancelled: bool, error: Option<&str>) -> Msg {
        Msg::CampaignResult(ResultMsg {
            campaign: 1,
            cached: false,
            cancelled,
            executed_batches: 0,
            report: None,
            error: error.map(str::to_owned),
        })
    }

    /// The fatal-vs-transient-vs-shed split the retry loop rests on:
    /// chatter continues, rejections shed with the hint passed through,
    /// and service answers that cannot improve on retry are fatal.
    #[test]
    fn await_classification_splits_fatal_and_shed() {
        for chatter in [
            Msg::Accepted {
                campaign: 1,
                cached: false,
            },
            Msg::Recovering {
                campaign: 1,
                recovered: 2,
                total: 8,
            },
            Msg::Progress {
                campaign: 1,
                done: 1,
                total: 8,
                cases: 9,
            },
            Msg::Draining { active: 3 },
        ] {
            assert!(
                matches!(classify_await(Some(chatter.clone())), AwaitStep::Continue),
                "{:?} must continue the await",
                chatter.tag()
            );
        }
        match classify_await(Some(Msg::Rejected {
            reason: "queue full".into(),
            retry_after_ms: 250,
        })) {
            AwaitStep::Fail(SubmitFailure::Shed {
                reason,
                retry_after_ms,
            }) => {
                assert_eq!(reason, "queue full");
                assert_eq!(retry_after_ms, 250, "the hint must pass through");
            }
            other => panic!("rejected must classify as shed, got {other:?}"),
        }
        for (fatal, what) in [
            (classify_await(None), "deadline"),
            (
                classify_await(Some(result_msg(false, Some("boom")))),
                "error",
            ),
            (classify_await(Some(result_msg(true, None))), "cancelled"),
            (classify_await(Some(result_msg(false, None))), "no report"),
            (classify_await(Some(Msg::Ping { token: 1 })), "protocol"),
        ] {
            assert!(
                matches!(fatal, AwaitStep::Fail(SubmitFailure::Fatal(_))),
                "{what} must be fatal, got {fatal:?}"
            );
        }
    }

    /// The shed wait honors the server's hint with half-jitter, and caps
    /// a hostile hint at [`SHED_DELAY_CAP`].
    #[test]
    fn shed_delay_honors_the_hint_within_the_cap() {
        let mut rng = Xoshiro256::seed_from_u64(41);
        for _ in 0..200 {
            let d = shed_delay(&mut rng, 400);
            assert!(
                d >= Duration::from_millis(200) && d <= Duration::from_millis(400),
                "delay {d:?} outside [hint/2, hint]"
            );
        }
        for _ in 0..200 {
            let d = shed_delay(&mut rng, 10 * 60 * 1000);
            assert!(d <= SHED_DELAY_CAP, "hostile hint must be capped");
            assert!(d >= SHED_DELAY_CAP / 2);
        }
        assert!(
            shed_delay(&mut rng, 0) > Duration::ZERO,
            "never a busy spin"
        );
    }

    /// The bounded reader assembles split frames, strips `\r`, discards
    /// oversized lines without buffering them, and reports the overflow —
    /// including a line dripped in byte by byte (slowloris).
    #[test]
    fn pump_frames_bounds_lines_and_reassembles_chunks() {
        struct Script(Vec<Vec<u8>>);
        impl std::io::Read for Script {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                unreachable!("BufRead goes through fill_buf")
            }
        }
        impl BufRead for Script {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                match self.0.first() {
                    Some(chunk) => Ok(chunk),
                    None => Ok(&[]),
                }
            }
            fn consume(&mut self, amt: usize) {
                if amt == 0 {
                    return;
                }
                let chunk = &mut self.0[0];
                chunk.drain(..amt);
                if chunk.is_empty() {
                    self.0.remove(0);
                }
            }
        }

        let mut chunks: Vec<Vec<u8>> = vec![b"hel".to_vec(), b"lo\r\nwo".to_vec()];
        // 100 more bytes dripped one at a time against a 16-byte cap: the
        // oversized line is "wo" + 100 × "x" = 102 bytes, all discarded.
        chunks.extend((0..100).map(|_| b"x".to_vec()));
        chunks.push(b"\nrld\n".to_vec());
        let (tx, rx) = channel();
        pump_frames(Script(chunks), 16, tx);
        let frames: Vec<Frame> = rx.iter().collect();
        assert_eq!(frames.len(), 3, "hello, overflow, rld");
        assert!(matches!(&frames[0], Frame::Line(l) if l == "hello"));
        assert!(
            matches!(frames[1], Frame::TooLong(n) if n == 102),
            "the slow drip must be discarded, not assembled"
        );
        assert!(matches!(&frames[2], Frame::Line(l) if l == "rld"));
    }
}
