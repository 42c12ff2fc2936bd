//! `amulet worker` — the serving end of the multi-process campaign fabric.
//!
//! A worker takes only transport flags. It announces a [`Hello`] carrying
//! its protocol version on its output, then waits for its driver's
//! `submit`: the campaign this session serves, resolved through
//! [`CampaignSpec::resolve`](amulet_core::CampaignSpec::resolve) exactly as
//! `amulet serve` resolves a client's submit (a spec that does not resolve
//! is answered with `rejected`). It then serves `batch` assignments until
//! `shutdown` (or EOF — a vanished driver never leaves a worker behind).
//! One session serves one campaign and holds one persistent
//! [`UnitRuntime`], exactly like one thread of the in-process pool, so a
//! batch's results are independent of which worker ran it — and one
//! listening worker serves whatever campaigns its drivers send it.
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
//! *tolerant*: a malformed, oversized or unexpected line — a batch before
//! any submit included — is logged as a `worker_error` row and skipped
//! (the driver recovers via its own deadline), and a trailing partial line
//! at EOF — a driver that died mid-frame — ends the session cleanly
//! instead of poisoning it.

use crate::serve::SessionLimits;
use crate::wire::{spawn_pump, write_msg, Frame};
use crate::Args;
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
    /// Heartbeats answered.
    pub pings: usize,
    /// Malformed or unexpected input lines tolerated.
    pub malformed: usize,
}

/// Serves one worker session: hello, the driver's `submit`, then batch →
/// fragment until `shutdown` or EOF, answering `ping` heartbeats between
/// batches. A submit that does not resolve is answered with `rejected`
/// and leaves the session waiting for one that does; once a campaign is
/// set, a further submit is an unexpected message.
/// `worker` event rows (`worker_error`, `worker_eof_truncated`,
/// `worker_idle_timeout`) go to `log`; only an unwritable *output* is a
/// hard error (the driver is gone and taking its deadline with it).
/// With `idle`, a session that receives no line for that long ends with
/// a `worker_idle_timeout` row. `input` is read on a thread of its own,
/// which ends at its EOF: a caller serving a socket shuts it down after
/// the session.
///
/// A worker keeps no find-first state: it runs every batch it is sent.
/// The driver's scheduler withholds batches past the earliest hit, and
/// its reducer drops any that ran before the hit was known.
///
/// # Examples
///
/// A complete in-memory session (this is exactly what travels over the
/// pipes or sockets of a real `amulet drive` run):
///
/// ```
/// use amulet_cli::serve_session;
/// use amulet_core::proto::{CampaignSpec, Msg};
/// use amulet_core::BatchSpec;
/// use amulet_util::EventLog;
///
/// let spec = CampaignSpec {
///     defense: "Baseline".into(),
///     contract: "CT-SEQ".into(),
///     source: "PHT".into(),
///     seed: 2025,
///     scale: None,
///     find_first: false,
///     batch_programs: 1,
///     cycle_skip: true,
/// };
/// let batch = BatchSpec { index: 0, instance: 0, batch: 0, programs: 1, records: false };
/// let script: String = [Msg::Submit(spec), Msg::Batch(batch), Msg::Shutdown]
///     .iter()
///     .map(|m| m.to_line() + "\n")
///     .collect();
/// let mut out = Vec::new();
/// let input = std::io::Cursor::new(script);
/// let stats = serve_session(input, &mut out, &EventLog::off(), None).unwrap();
/// let lines: Vec<Msg> = String::from_utf8(out)
///     .unwrap()
///     .lines()
///     .map(|l| Msg::parse_line(l).unwrap())
///     .collect();
/// assert!(matches!(lines[0], Msg::Hello(_)));
/// assert!(matches!(&lines[1], Msg::Fragment(f) if f.index == 0 && f.stats.cases > 0));
/// assert_eq!(stats.batches, 1);
/// ```
pub fn serve_session(
    input: impl BufRead + Send + 'static,
    mut out: impl Write,
    log: &EventLog,
    idle: Option<Duration>,
) -> Result<SessionStats, String> {
    let frames = spawn_pump(input, SessionLimits::default().max_line_bytes);
    write_msg(&mut out, &Msg::Hello(Hello::CURRENT))?;
    let anchor = Instant::now();
    // The session's campaign, from the driver's submit, and its runtime.
    let mut campaign: Option<(CampaignConfig, UnitRuntime)> = None;
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
        let error = match msg {
            Ok(Msg::Ping { token }) => {
                stats.pings += 1;
                write_msg(&mut out, &Msg::Pong { token })?;
                continue;
            }
            Ok(Msg::Submit(spec)) if campaign.is_none() => {
                match spec.resolve() {
                    Ok(cfg) => campaign = Some((cfg, UnitRuntime::new())),
                    Err(reason) => write_msg(
                        &mut out,
                        &Msg::Rejected {
                            reason,
                            retry_after_ms: 0,
                        },
                    )?,
                }
                continue;
            }
            Ok(Msg::Batch(spec)) => match campaign.as_mut() {
                Some((cfg, rt)) => {
                    stats.batches += 1;
                    let reply = FragmentReport::from_fragment(&run_batch(cfg, &spec, anchor, rt));
                    write_msg(&mut out, &Msg::Fragment(reply))?;
                    continue;
                }
                None => format!("batch {} before any submit", spec.index),
            },
            Ok(Msg::Shutdown) => break,
            // Valid protocol, wrong direction (a hello or fragment echoed
            // back at us) or a second submit: log and keep serving.
            Ok(other) => format!("unexpected {:?} message from driver", other.tag()),
            // Garbage on the wire (a truncated, corrupted or oversized
            // frame). Skip it — the driver's deadline, not our exit,
            // handles the lost message.
            Err(e) => e,
        };
        log.emit("worker", "worker_error", |o| {
            o.str("error", &error).int("line_bytes", line_bytes as u64)
        });
        stats.malformed += 1;
    }
    Ok(stats)
}

/// `amulet worker`. Only transport flags: the campaign comes from the
/// driver.
pub(crate) fn cmd_worker(mut args: Args) -> Result<(), String> {
    let listen = args.value("--listen")?;
    let sessions = args.parsed::<usize>("--sessions")?.unwrap_or(0);
    let idle_timeout = args.seconds("--idle-timeout-s")?;
    args.finish()?;
    match listen {
        Some(addr) => {
            eprintln!("worker {}: listening on {addr}", std::process::id());
            crate::net::serve_listener(&crate::net::ListenConfig {
                addr,
                sessions,
                idle_timeout,
            })
        }
        None => {
            if sessions != 0 || idle_timeout.is_some() {
                return Err("--sessions/--idle-timeout-s require --listen".into());
            }
            eprintln!("worker {}: serving stdin/stdout", std::process::id());
            let stdin = BufReader::new(std::io::stdin());
            let stdout = std::io::stdout().lock();
            serve_session(stdin, stdout, events::stderr(), None).map(|_| ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_core::proto::CampaignSpec;
    use amulet_core::BatchSpec;
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

    fn session_raw(input: &str) -> (Vec<Msg>, SessionStats, String) {
        let mut out = Vec::new();
        let log = Captured::default();
        let input = std::io::Cursor::new(input.to_owned());
        let log_to = EventLog::new(log.clone());
        let stats = serve_session(input, &mut out, &log_to, None).unwrap();
        let replies = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Msg::parse_line(l).unwrap())
            .collect();
        let log = String::from_utf8(log.0.lock().unwrap().clone()).unwrap();
        (replies, stats, log)
    }

    fn script(msgs: &[Msg]) -> String {
        msgs.iter().map(|m| format!("{}\n", m.to_line())).collect()
    }

    fn session(msgs: &[Msg]) -> Vec<Msg> {
        session_raw(&script(msgs)).0
    }

    /// The quick Baseline × CT-SEQ campaign as its driver submits it.
    fn submit(find_first: bool) -> Msg {
        Msg::Submit(CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed: 2025,
            scale: None,
            find_first,
            batch_programs: 1,
            cycle_skip: true,
        })
    }

    /// A one-program batch of instance 0.
    fn batch(index: usize) -> Msg {
        Msg::Batch(BatchSpec {
            index,
            instance: 0,
            batch: index,
            programs: 1,
            records: false,
        })
    }

    #[test]
    fn worker_answers_batches_and_stops_on_shutdown() {
        let replies = session(&[submit(false), batch(0), batch(1), Msg::Shutdown]);
        assert_eq!(replies.len(), 3, "hello + two fragments");
        let Msg::Hello(h) = &replies[0] else {
            panic!("first message must be hello");
        };
        assert!(h.check().is_ok());
        for (i, reply) in replies[1..].iter().enumerate() {
            let Msg::Fragment(f) = reply else {
                panic!("expected fragment")
            };
            assert_eq!(f.index, i);
            assert!(f.stats.cases > 0);
        }
    }

    #[test]
    fn pings_are_answered_with_matching_pongs() {
        let replies = session(&[
            Msg::Ping { token: 41 },
            Msg::Ping { token: u64::MAX },
            Msg::Shutdown,
        ]);
        assert!(matches!(replies[1], Msg::Pong { token: 41 }));
        assert!(matches!(replies[2], Msg::Pong { token: u64::MAX }));
    }

    /// A submit that does not resolve is answered with `rejected`, and the
    /// session waits for one that does; once it has its campaign, a second
    /// submit is an unexpected message and the first campaign stays.
    #[test]
    fn an_unresolvable_submit_is_rejected() {
        let Msg::Submit(good) = submit(false) else {
            unreachable!()
        };
        let bad = CampaignSpec {
            defense: "NoSuchDefense".into(),
            ..good.clone()
        };
        let other = CampaignSpec {
            find_first: true,
            ..good.clone()
        };
        let (replies, stats, log) = session_raw(&script(&[
            Msg::Submit(bad),
            Msg::Submit(good),
            Msg::Submit(other),
            batch(1),
            Msg::Shutdown,
        ]));
        let Msg::Rejected { reason, .. } = &replies[1] else {
            panic!("expected rejected, got {:?}", replies[1])
        };
        assert!(reason.contains("unknown defense"), "{reason}");
        assert!(
            matches!(&replies[2], Msg::Fragment(f) if f.stats.cases > 0),
            "the first resolved campaign (not find-first) runs the batch"
        );
        assert_eq!(replies.len(), 3);
        assert_eq!((stats.batches, stats.malformed), (1, 1));
        assert!(log.contains("unexpected \\\"submit\\\" message"), "{log}");
    }

    /// A batch before any submit has no campaign to run: it is logged as a
    /// `worker_error` and skipped, and the session keeps serving.
    #[test]
    fn a_batch_before_any_submit_is_logged_and_skipped() {
        let (replies, stats, log) =
            session_raw(&script(&[batch(0), Msg::Ping { token: 3 }, Msg::Shutdown]));
        assert!(matches!(
            replies[..],
            [Msg::Hello(_), Msg::Pong { token: 3 }]
        ));
        assert_eq!((stats.batches, stats.malformed), (0, 1));
        assert!(
            log.contains("\"event\":\"worker_error\"") && log.contains("before any submit"),
            "{log}"
        );
    }

    /// A line past the 64 KiB bound is discarded as it streams in, logged
    /// as a `worker_error` with its length, and the session keeps serving.
    #[test]
    fn oversized_lines_are_discarded_and_logged() {
        let input = format!(
            "{}\n{}\n",
            "x".repeat(70 * 1024),
            Msg::Ping { token: 5 }.to_line()
        );
        let (replies, stats, log) = session_raw(&input);
        assert!(matches!(replies[1], Msg::Pong { token: 5 }));
        assert_eq!(stats.malformed, 1);
        assert!(
            log.contains("\"event\":\"worker_error\"") && log.contains("\"line_bytes\":71680"),
            "{log}"
        );
    }

    #[test]
    fn eof_without_shutdown_is_a_clean_exit() {
        let (replies, stats, _) = session_raw("");
        assert!(matches!(replies[0], Msg::Hello(_)));
        assert_eq!(stats, SessionStats::default());
    }

    /// Garbage, wrong-direction and retired (protocol v7 `cancel`) lines
    /// are logged as `worker_error` rows and skipped, and a trailing
    /// partial line at EOF ends the session cleanly — the worker keeps
    /// serving through everything else.
    #[test]
    fn malformed_lines_are_logged_and_tolerated() {
        let input = format!(
            "{}this is not json\n{}\n{}\n{}\n{}",
            script(&[submit(true)]),
            Msg::Pong { token: 9 }.to_line(),    // wrong direction
            r#"{"type":"cancel","earliest":0}"#, // retired in protocol v8
            batch(1).to_line(),
            r#"{"type":"shutdo"# // truncated partial line, no newline
        );
        let (replies, stats, log) = session_raw(&input);
        assert!(matches!(replies[0], Msg::Hello(_)));
        assert!(
            matches!(&replies[1], Msg::Fragment(f) if f.index == 1 && f.stats.cases > 0),
            "the batch after the garbage and the cancel still executed"
        );
        assert_eq!(stats.batches, 1);
        assert_eq!(
            stats.malformed, 4,
            "garbage + wrong direction + cancel + truncated tail"
        );
        assert_eq!(
            log.matches("\"event\":\"worker_error\"").count(),
            3,
            "{log}"
        );
        assert!(log.contains("unknown message type \\\"cancel\\\""), "{log}");
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
