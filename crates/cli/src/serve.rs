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
//!   retry/backoff and quarantine ladder as `drive`, with its event rows
//!   on stderr.
//!
//! No daemon loop polls. The accept loop blocks in `accept` (SIGTERM wakes
//! it with a connection of its own), and each client handler blocks on one
//! channel that carries both its client's frames and the client's outbox:
//! every message the service sends it — the answer to each `submit`, then
//! its campaigns' `progress` and `result`, and `draining`.
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
use crate::wire::{pump_frames, write_msg, Frame};
use crate::{Args, JsonSink, ShapeOptions, WorkerLink};
use amulet_core::proto::{CampaignSpec, Msg, ResultMsg};
use amulet_core::{run_local_slot, Admission, Corpus, Service, StateDir};
use amulet_util::{events, JsonObj, Xoshiro256};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// waiting on the answer or result of its own submit is never
    /// idle-evicted.
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

impl From<Msg> for Frame<Msg> {
    fn from(msg: Msg) -> Self {
        Frame::Event(msg)
    }
}

/// The service plus its worker threads. [`ServiceHost::shutdown`] drains
/// and joins them; dropping without shutdown leaves daemon threads running
/// (each exits as soon as the service is shut down elsewhere, which wakes
/// every slot's wait).
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
    /// Terminal `result` messages delivered: campaign results, cache hits
    /// and the error `result` of an unresolvable spec alike.
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
/// hands each `submit` to the service, and forwards the session's outbox
/// to `out` as it arrives. The service answers every submit there: with
/// `accepted` (plus `recovering` for a resumed campaign, or the `result`
/// of a cache hit), with `rejected` when admission control sheds it, or
/// with an error `result` under campaign id `u64::MAX` (no id was ever
/// assigned) when the spec does not resolve or the service is shutting
/// down. The outbox also carries the `progress` and `result` of the
/// client's own campaigns and every `draining`. The session returns when
/// the client disconnects and every submit it sent has its `rejected` or
/// `result` — or earlier, when the hardening `limits` evict the session
/// (strike ladder, idle reaping) or a service drain winds it down. A
/// `cancel_campaign` reaches only the client's own campaigns.
///
/// Campaigns still active when the conversation ends are cancelled when
/// the session disconnects from the service — a result nobody will read
/// is not worth worker time. On a *persistent* service that cancellation
/// is the checkpoint-drain hand-off: the write-ahead journal file
/// survives, so the client's resubmit against a restarted daemon resumes
/// batch-granularly. Sheds, evictions and every malformed, unexpected or
/// oversized frame are logged as `serve` rows on the stderr event stream.
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
    // Client frames and the client's outbox share one channel, so the
    // session waits on one source. The outbox is connected before the
    // first submit, so no answer or campaign message is ever missed.
    let (tx, frames) = channel();
    let client = service.connect(tx.clone());
    let max_line = limits.max_line_bytes;
    std::thread::spawn(move || pump_frames(input, max_line, tx));

    let mut stats = ClientStats::default();
    // Submits sent and not yet answered with `rejected` or a `result`:
    // the answer travels through the outbox, so input EOF can arrive first.
    let mut unanswered = 0usize;
    let mut open = true;
    let mut saw_drain = false;
    let mut last_frame = Instant::now();
    let result = (|| -> Result<(), String> {
        while open || unanswered > 0 {
            // Only an open session with nothing in flight can go idle, so
            // only its wait carries a deadline: reaching it evicts.
            let frame = if open && unanswered == 0 {
                let idle_at = last_frame + limits.idle_timeout;
                frames.recv_timeout(idle_at.saturating_duration_since(Instant::now()))
            } else {
                frames.recv().map_err(RecvTimeoutError::from)
            };
            match frame {
                Ok(Frame::Line(line)) if line.trim().is_empty() => last_frame = Instant::now(),
                Ok(Frame::Line(line)) => {
                    last_frame = Instant::now();
                    match Msg::parse_line(&line) {
                        Ok(Msg::Submit(spec)) => {
                            unanswered += 1;
                            service.submit(client, &spec);
                        }
                        Ok(Msg::CancelCampaign { campaign }) => {
                            stats.cancelled += 1;
                            service.cancel(client, campaign);
                        }
                        Ok(other) => {
                            stats.malformed += 1;
                            events::stderr().emit("serve", "client_malformed", |o| {
                                o.int("client", client)
                                    .str("kind", "unexpected")
                                    .str("tag", other.tag())
                            });
                        }
                        Err(e) => {
                            stats.malformed += 1;
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
                    events::stderr().emit("serve", "client_malformed", |o| {
                        o.int("client", client)
                            .str("kind", "oversized")
                            .int("bytes", bytes as u64)
                    });
                }
                // A torn final line is end of input, not a strike.
                Ok(Frame::End(_)) => open = false,
                Ok(Frame::Failed(e)) => return Err(format!("client read failed: {e}")),
                // The outbox holds the answers to this client's submits, its
                // campaigns' messages and the drain notice: forward each
                // message as it is.
                Ok(Frame::Event(msg)) => {
                    match &msg {
                        Msg::Accepted { cached, .. } => {
                            stats.submitted += 1;
                            stats.cache_hits += usize::from(*cached);
                        }
                        Msg::Rejected {
                            reason,
                            retry_after_ms,
                        } => {
                            stats.rejected += 1;
                            unanswered -= 1;
                            events::stderr().emit("serve", "rejected", |o| {
                                o.int("client", client)
                                    .str("reason", reason)
                                    .int("retry_after_ms", *retry_after_ms)
                            });
                        }
                        Msg::CampaignResult(_) => {
                            stats.results += 1;
                            unanswered -= 1;
                        }
                        Msg::Draining { .. } => saw_drain = true,
                        _ => {}
                    }
                    write_msg(&mut out, &msg)?;
                }
                Err(RecvTimeoutError::Timeout) => stats.evicted = Some("idle"),
                // The service holds a sender while it lives.
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
            if open && stats.malformed >= limits.strike_limit {
                stats.evicted = Some("strikes");
            }
            if let Some(reason) = stats.evicted {
                events::stderr().emit("serve", "evicted", |o| {
                    o.int("client", client)
                        .str("reason", reason)
                        .int("malformed", stats.malformed as u64)
                });
                return Ok(());
            }
            // Drain wind-down: a persistent service checkpoints — the
            // disconnect below cancels owned campaigns, whose journal files
            // survive for the restarted daemon to resume. An in-memory
            // service finishes owned campaigns first (their results would
            // otherwise be lost with the process).
            if saw_drain && (service.persistent() || unanswered == 0) {
                return Ok(());
            }
        }
        Ok(())
    })();
    // Whatever ended the conversation, never leave orphaned campaigns
    // burning worker time for a client that will not read the result.
    service.disconnect(client);
    result.map(|()| stats)
}

/// SIGTERM → graceful drain, installed with no external crate. The
/// handler only `write`s one byte to a self-pipe (async-signal-safe); a
/// thread blocked reading the pipe then runs the caller's `on_term`.
#[cfg(unix)]
mod term {
    use std::io::Read;
    use std::os::unix::{io::IntoRawFd, net::UnixStream};
    use std::sync::atomic::{AtomicI32, Ordering};

    static PIPE: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_signal(_sig: i32) {
        unsafe { write(PIPE.load(Ordering::SeqCst), [1u8].as_ptr(), 1) };
    }

    /// Installs the SIGTERM handler (signal 15 on every supported Unix):
    /// `on_term` runs once, on its own thread, after the first SIGTERM.
    pub fn install(on_term: impl FnOnce() + Send + 'static) {
        let Ok((mut rx, tx)) = UnixStream::pair() else {
            return;
        };
        // The write end stays open for the life of the process, so the
        // handler never writes to a closed (or reused) descriptor.
        PIPE.store(tx.into_raw_fd(), Ordering::SeqCst);
        std::thread::spawn(move || {
            if rx.read(&mut [0u8]).is_ok() {
                on_term();
            }
        });
        unsafe { signal(15, on_signal) };
    }
}

/// SIGTERM drain is Unix-only; elsewhere the daemon stops via `--sessions`
/// or a hard kill.
#[cfg(not(unix))]
mod term {
    pub fn install(_on_term: impl FnOnce() + Send + 'static) {}
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
    let drain = service.clone();
    term::install(move || {
        // Graceful drain: stop admitting, tell every connected client,
        // let sessions checkpoint (persistent) or finish (in-memory), then
        // wake the blocking accept below by connecting to it (an
        // unspecified listen address connects to this host) to exit 0.
        let active = drain.drain();
        events::stderr().emit("serve", "draining", |o| o.int("active", active));
        drop(TcpStream::connect(local));
    });
    let limits = SessionLimits::default();
    let session_seq = AtomicU64::new(0);
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut served = 0usize;
    loop {
        let accepted = listener.accept();
        if service.is_draining() {
            break;
        }
        let (stream, peer) = accepted.map_err(|e| format!("accept failed: {e}"))?;
        // Reap finished sessions so an eviction-heavy day keeps the
        // daemon's memory bounded by *live* sessions.
        handlers.retain(|h| !h.is_finished());
        let _ = stream.set_nodelay(true);
        // The write deadline keeps a non-reading peer from wedging the
        // session thread.
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
            // Ends the session's reader thread, which holds a clone.
            let _ = stream.shutdown(Shutdown::Both);
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
        // An expired deadline is a `None` receive, which is fatal.
        let remaining = deadline.saturating_duration_since(Instant::now());
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
    backoff_delay(rng, hint, hint, 0)
}

/// `amulet submit`.
pub(crate) fn cmd_submit(mut args: Args) -> Result<(), String> {
    let addr = args
        .value("--connect")?
        .ok_or("submit: --connect ADDR is required")?;
    let shape = ShapeOptions::parse(&mut args)?;
    let batch = shape.parse_batch(&mut args)?;
    let timeout = args
        .seconds("--timeout-s")?
        .unwrap_or(Duration::from_secs(600));
    let retries = args.parsed::<u64>("--retries")?.unwrap_or(0);
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

    let spec = shape.spec(batch);
    // Deterministic jitter, decorrelated across campaigns by the seed.
    let mut rng = Xoshiro256::seed_from_u64(spec.seed ^ 0x5355_424d_4954_5232);
    let deadline = Instant::now() + timeout;
    let ladder = DriveConfig::default();
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
            None => backoff_delay(
                &mut rng,
                ladder.backoff_base,
                ladder.backoff_max,
                attempt as usize,
            ),
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
}
