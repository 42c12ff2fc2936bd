//! `amulet worker` — the serving end of the multi-process campaign fabric.
//!
//! A worker resolves its campaign configuration from the same shape flags
//! as `amulet campaign` (`--defense`, `--contract`, `--scale`, `--seed`,
//! `--find-first`, `--no-cycle-skip`), announces a [`Hello`] on its
//! output, then serves `batch` assignments until `shutdown` (or EOF — a
//! vanished driver never leaves a worker behind). One session holds one
//! persistent [`UnitRuntime`], exactly like one thread of the in-process
//! pool, so a batch's results are independent of which worker ran it.
//!
//! Two transports share the same loop ([`serve_session`]):
//!
//! - **pipes** (spawned by `amulet drive --procs`): protocol on
//!   stdin/stdout, `worker` event rows on stderr;
//! - **TCP** (`amulet worker --listen ADDR`): protocol on the socket,
//!   `worker` event rows on stderr — see `crate::net::serve_listener`.
//!
//! Input lines come from the fabric's one frame reader
//! (`wire::pump_frames`) on a thread of the session's own, under the same
//! 64 KiB line bound as a `serve` session; the loop waits on its frame
//! channel, and `--idle-timeout-s` is that wait's deadline. The loop is
//! *tolerant*: a malformed, oversized or unexpected line is logged as a
//! `worker_error` row and skipped (the driver recovers via its own
//! deadline), and a trailing partial line at EOF — a driver that died
//! mid-frame — ends the session cleanly instead of poisoning it.

use crate::serve::SessionLimits;
use crate::wire::{spawn_pump, write_msg, Frame};
use crate::{Args, ShapeOptions};
use amulet_core::proto::{FragmentReport, Hello, Msg};
use amulet_core::{run_batch, CampaignConfig, UnitRuntime};
use amulet_util::{events, EventLog};
use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// What one worker session did — returned so listeners and tests can log
/// and assert on the session shape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Batches executed.
    pub batches: usize,
    /// Batches answered as skipped (past the cancel floor).
    pub skipped: usize,
    /// Heartbeats answered.
    pub pings: usize,
    /// Malformed or unexpected input lines tolerated.
    pub malformed: usize,
}

/// Serves one worker session: hello, then batch → fragment until
/// `shutdown` or EOF, answering `ping` heartbeats between batches.
/// `worker` event rows (`worker_error`, `worker_eof_truncated`,
/// `worker_idle_timeout`) go to `log`; only an unwritable *output* is a
/// hard error (the driver is gone and taking its deadline with it).
/// With `idle`, a session that receives no line for that long ends with
/// a `worker_idle_timeout` row. `input` is read on a thread of its own,
/// which ends at its EOF: a caller serving a socket shuts it down after
/// the session.
///
/// Find-first semantics: a [`Msg::Cancel`] lowers the worker's cancel
/// floor; a later batch assignment *above* the floor is answered with a
/// skipped fragment (zero work) instead of being executed. This can never
/// change the reduced result — the floor only ever holds indices with
/// confirmed violations, so every skipped index lies strictly past the
/// final earliest hit, in the suffix the reducer discards anyway.
///
/// # Examples
///
/// A complete in-memory session (this is exactly what travels over the
/// pipes or sockets of a real `amulet drive` run):
///
/// ```
/// use amulet_cli::serve_session;
/// use amulet_core::proto::Msg;
/// use amulet_core::{BatchSpec, CampaignConfig};
/// use amulet_contracts::ContractKind;
/// use amulet_defenses::DefenseKind;
/// use amulet_util::EventLog;
///
/// let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
/// cfg.programs_per_instance = 1;
/// let spec = BatchSpec { index: 0, instance: 0, batch: 0, programs: 1, records: false };
/// let script = format!("{}\n{}\n", Msg::Batch(spec).to_line(), Msg::Shutdown.to_line());
/// let mut out = Vec::new();
/// let input = std::io::Cursor::new(script);
/// let stats = serve_session(&cfg, input, &mut out, &EventLog::off(), None).unwrap();
/// let lines: Vec<Msg> = String::from_utf8(out)
///     .unwrap()
///     .lines()
///     .map(|l| Msg::parse_line(l).unwrap())
///     .collect();
/// assert!(matches!(lines[0], Msg::Hello(_)));
/// assert!(matches!(&lines[1], Msg::Fragment(f) if f.index == 0 && !f.skipped));
/// assert_eq!(stats.batches, 1);
/// ```
pub fn serve_session(
    cfg: &CampaignConfig,
    input: impl BufRead + Send + 'static,
    mut out: impl Write,
    log: &EventLog,
    idle: Option<Duration>,
) -> Result<SessionStats, String> {
    let frames = spawn_pump(input, SessionLimits::default().max_line_bytes);
    write_msg(&mut out, &Msg::Hello(Hello::for_config(cfg)))?;
    let anchor = Instant::now();
    let mut rt = UnitRuntime::new();
    let mut cancel_floor = usize::MAX;
    let mut stats = SessionStats::default();
    loop {
        let frame = match idle {
            Some(idle) => frames.recv_timeout(idle),
            None => frames.recv().map_err(RecvTimeoutError::from),
        };
        let (msg, line_bytes) = match frame {
            Ok(Frame::Line(line)) if line.trim().is_empty() => continue,
            Ok(Frame::Line(line)) => (Msg::parse_line(&line), line.len()),
            Ok(Frame::TooLong(bytes)) => (Err("line exceeds the line bound".into()), bytes),
            // EOF: driver hung up — clean exit.
            Ok(Frame::End(0)) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(Frame::End(torn)) => {
                // The driver died mid-frame. Tolerate it — the frame is
                // unusable but the session ended, which is all it means.
                log.emit("worker", "worker_eof_truncated", |o| {
                    o.int("bytes", torn as u64)
                });
                stats.malformed += 1;
                break;
            }
            Ok(Frame::Failed(e)) => return Err(format!("worker: read failed: {e}")),
            Ok(Frame::Event(never)) => match never {},
            Err(RecvTimeoutError::Timeout) => {
                // The listener's per-session idle deadline expired: end
                // the session so the listener can accept a fresh one.
                log.emit("worker", "worker_idle_timeout", |o| o);
                break;
            }
        };
        let msg = match msg {
            Ok(msg) => msg,
            Err(e) => {
                // Garbage on the wire (a truncated, corrupted or oversized
                // frame). Skip it — the driver's deadline, not our exit,
                // handles the lost message.
                log.emit("worker", "worker_error", |o| {
                    o.str("error", &e).int("line_bytes", line_bytes as u64)
                });
                stats.malformed += 1;
                continue;
            }
        };
        match msg {
            Msg::Ping { token } => {
                stats.pings += 1;
                write_msg(&mut out, &Msg::Pong { token })?;
            }
            Msg::Batch(spec) => {
                let reply = if cfg.stop_on_first && spec.index > cancel_floor {
                    stats.skipped += 1;
                    FragmentReport::skipped(spec.index)
                } else {
                    stats.batches += 1;
                    FragmentReport::from_fragment(&run_batch(cfg, &spec, anchor, &mut rt))
                };
                write_msg(&mut out, &Msg::Fragment(reply))?;
            }
            Msg::Cancel { earliest } => cancel_floor = cancel_floor.min(earliest),
            Msg::Shutdown => break,
            other => {
                // Valid protocol, wrong direction (a hello or fragment
                // echoed back at us): log and keep serving.
                log.emit("worker", "worker_error", |o| {
                    o.str(
                        "error",
                        &format!("unexpected {:?} message from driver", other.tag()),
                    )
                });
                stats.malformed += 1;
            }
        }
    }
    Ok(stats)
}

/// `amulet worker`.
pub(crate) fn cmd_worker(mut args: Args) -> Result<(), String> {
    let shape = ShapeOptions::parse(&mut args)?;
    let listen = args.value("--listen")?;
    let sessions = args.parsed::<usize>("--sessions")?.unwrap_or(0);
    let idle_timeout = args.seconds("--idle-timeout-s")?;
    args.finish()?;
    let cfg = shape.config();
    match listen {
        Some(addr) => {
            eprintln!(
                "worker {}: listening on {addr}, serving {} × {} (seed {})",
                std::process::id(),
                shape.defense.name(),
                shape.contract.name(),
                cfg.seed
            );
            crate::net::serve_listener(
                &cfg,
                &crate::net::ListenConfig {
                    addr,
                    sessions,
                    idle_timeout,
                },
            )
        }
        None => {
            if sessions != 0 || idle_timeout.is_some() {
                return Err("--sessions/--idle-timeout-s require --listen".into());
            }
            eprintln!(
                "worker {}: serving {} × {} (seed {})",
                std::process::id(),
                shape.defense.name(),
                shape.contract.name(),
                cfg.seed
            );
            let stdin = BufReader::new(std::io::stdin());
            let stdout = std::io::stdout().lock();
            serve_session(&cfg, stdin, stdout, events::stderr(), None).map(|_| ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_contracts::ContractKind;
    use amulet_core::BatchSpec;
    use amulet_defenses::DefenseKind;
    use std::sync::{Arc, Mutex};

    /// An event sink the test can read back.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn session_raw(cfg: &CampaignConfig, input: &str) -> (Vec<Msg>, SessionStats, String) {
        let mut out = Vec::new();
        let log = Captured::default();
        let input = std::io::Cursor::new(input.to_owned());
        let log_to = EventLog::new(log.clone());
        let stats = serve_session(cfg, input, &mut out, &log_to, None).unwrap();
        let replies = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Msg::parse_line(l).unwrap())
            .collect();
        let log = String::from_utf8(log.0.lock().unwrap().clone()).unwrap();
        (replies, stats, log)
    }

    fn session(cfg: &CampaignConfig, script: &[Msg]) -> Vec<Msg> {
        let input: String = script
            .iter()
            .map(|m| format!("{}\n", m.to_line()))
            .collect();
        session_raw(cfg, &input).0
    }

    #[test]
    fn worker_answers_batches_and_stops_on_shutdown() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 2;
        let spec = |index| BatchSpec {
            index,
            instance: 0,
            batch: index,
            programs: 1,
            records: false,
        };
        let replies = session(
            &cfg,
            &[Msg::Batch(spec(0)), Msg::Batch(spec(1)), Msg::Shutdown],
        );
        assert_eq!(replies.len(), 3, "hello + two fragments");
        let Msg::Hello(h) = &replies[0] else {
            panic!("first message must be hello");
        };
        assert!(h.check(&cfg).is_ok());
        for (i, reply) in replies[1..].iter().enumerate() {
            let Msg::Fragment(f) = reply else {
                panic!("expected fragment")
            };
            assert_eq!(f.index, i);
            assert!(!f.skipped);
            assert!(f.stats.cases > 0);
        }
    }

    #[test]
    fn pings_are_answered_with_matching_pongs() {
        let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        let replies = session(
            &cfg,
            &[
                Msg::Ping { token: 41 },
                Msg::Ping { token: u64::MAX },
                Msg::Shutdown,
            ],
        );
        assert!(matches!(replies[1], Msg::Pong { token: 41 }));
        assert!(matches!(replies[2], Msg::Pong { token: u64::MAX }));
    }

    #[test]
    fn cancel_floor_skips_later_batches_in_find_first_mode() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 8;
        cfg.stop_on_first = true;
        let spec = |index| BatchSpec {
            index,
            instance: 0,
            batch: index,
            programs: 1,
            records: false,
        };
        let replies = session(
            &cfg,
            &[
                Msg::Cancel { earliest: 2 },
                Msg::Batch(spec(2)), // at the floor: executes
                Msg::Batch(spec(5)), // past the floor: skipped
                Msg::Shutdown,
            ],
        );
        let Msg::Fragment(at_floor) = &replies[1] else {
            panic!()
        };
        let Msg::Fragment(past) = &replies[2] else {
            panic!()
        };
        assert!(!at_floor.skipped && at_floor.stats.cases > 0);
        assert!(past.skipped && past.stats.cases == 0);
    }

    /// A line past the 64 KiB bound is discarded as it streams in, logged
    /// as a `worker_error` with its length, and the session keeps serving.
    #[test]
    fn oversized_lines_are_discarded_and_logged() {
        let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        let input = format!(
            "{}\n{}\n",
            "x".repeat(70 * 1024),
            Msg::Ping { token: 5 }.to_line()
        );
        let (replies, stats, log) = session_raw(&cfg, &input);
        assert!(matches!(replies[1], Msg::Pong { token: 5 }));
        assert_eq!(stats.malformed, 1);
        assert!(
            log.contains("\"event\":\"worker_error\"") && log.contains("\"line_bytes\":71680"),
            "{log}"
        );
    }

    #[test]
    fn eof_without_shutdown_is_a_clean_exit() {
        let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        let (replies, stats, _) = session_raw(&cfg, "");
        assert!(matches!(replies[0], Msg::Hello(_)));
        assert_eq!(stats, SessionStats::default());
    }

    /// Garbage and wrong-direction lines are logged as `worker_error`
    /// rows and skipped, and a trailing partial line at EOF ends the
    /// session cleanly — the worker keeps serving through everything else.
    #[test]
    fn malformed_lines_are_logged_and_tolerated() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 1;
        let spec = BatchSpec {
            index: 0,
            instance: 0,
            batch: 0,
            programs: 1,
            records: false,
        };
        let input = format!(
            "this is not json\n{}\n{}\n{}",
            Msg::Pong { token: 9 }.to_line(), // wrong direction
            Msg::Batch(spec).to_line(),
            r#"{"type":"shutdo"# // truncated partial line, no newline
        );
        let (replies, stats, log) = session_raw(&cfg, &input);
        assert!(matches!(replies[0], Msg::Hello(_)));
        assert!(
            matches!(&replies[1], Msg::Fragment(f) if f.index == 0 && !f.skipped),
            "the batch after the garbage still executed"
        );
        assert_eq!(stats.batches, 1);
        assert_eq!(
            stats.malformed, 3,
            "garbage + wrong direction + truncated tail"
        );
        assert_eq!(
            log.matches("\"event\":\"worker_error\"").count(),
            2,
            "{log}"
        );
        assert_eq!(
            log.matches("\"event\":\"worker_eof_truncated\"").count(),
            1,
            "{log}"
        );
        for (n, line) in log.lines().enumerate() {
            let row = amulet_util::parse_json(line).expect("log lines are valid JSON");
            assert_eq!(
                row.get("seq").and_then(|v| v.as_u64()),
                Some(n as u64),
                "{log}"
            );
            assert_eq!(
                row.get("component").and_then(|v| v.as_str()),
                Some("worker")
            );
        }
    }
}
