//! `amulet drive` — the driver end of the multi-process campaign fabric.
//!
//! `drive --procs N` runs one campaign sharded over `N` spawned
//! `amulet worker` processes instead of in-process threads, and
//! `drive --connect host:port,...` runs the same campaign over TCP links to
//! remote `amulet worker --listen` processes. Scheduling, the failure
//! ladder and the reduction are the fleet's ([`crate::fleet`]): a
//! single-campaign `amulet_core::Service` fed by one slot per worker, with
//! assignments and results travelling as `amulet_core::proto` JSON lines
//! over pipes or sockets. Consequently `drive --procs 1`,
//! `drive --procs 4`, `drive --connect ...` and the in-process `campaign`
//! run (same `--batch`) produce the same
//! [`CampaignReport::fingerprint`](amulet_core::CampaignReport::fingerprint)
//! — asserted by `tests/multiproc_determinism.rs`, `tests/fleet_faults.rs`
//! and CI.
//!
//! This module holds the OS-process transport ([`ProcLink`]) and the
//! command itself. See `docs/DISTRIBUTED.md` for the operator-level
//! picture.

use crate::fleet::{run_driver, DriveConfig, WorkerLink};
use crate::{print_report, report_json, Args, JsonSink, ShapeOptions};
use amulet_core::proto::{Msg, PROTO_VERSION};
use amulet_util::EventLog;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

/// A [`WorkerLink`] over a spawned `amulet worker` child process's
/// stdin/stdout pipes (stderr is inherited, so each worker's event rows,
/// numbered by its own `seq`, interleave with the driver's). A detached
/// reader thread pumps stdout lines into a channel so receives can carry a
/// deadline.
#[derive(Debug)]
pub struct ProcLink {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<Result<String, String>>,
}

impl ProcLink {
    /// Spawns `program worker <worker_args...>` and wires up its pipes.
    pub fn spawn(program: &std::path::Path, worker_args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(program)
            .arg("worker")
            .args(worker_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", program.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = std::sync::mpsc::channel();
        // The thread exits on EOF/error, or when the link (receiver) is
        // dropped and a send fails — it can never outlive its purpose by
        // more than one line.
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {
                        if tx.send(Ok(line)).is_err() {
                            break;
                        }
                    }
                    Ok(n) => {
                        // A partial line at EOF: the worker died mid-frame.
                        let _ = tx.send(Err(format!("worker died mid-frame ({n} bytes)")));
                        break;
                    }
                    Err(e) => {
                        let _ = tx.send(Err(format!("worker read failed: {e}")));
                        break;
                    }
                }
            }
        });
        Ok(ProcLink {
            child,
            stdin: Some(stdin),
            lines,
        })
    }
}

impl WorkerLink for ProcLink {
    fn send(&mut self, msg: &Msg) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("worker stdin closed")?;
        writeln!(stdin, "{}", msg.to_line())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("worker write failed: {e}"))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(Ok(line)) => Msg::parse_line(&line).map(Some),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err("worker exited (EOF on stdout)".into()),
        }
    }
}

impl Drop for ProcLink {
    /// Closes the worker's stdin (EOF ends its serve loop), gives it a
    /// moment to exit cleanly, then kills and reaps — a dropped link never
    /// leaks a child process, even on error paths.
    fn drop(&mut self) {
        drop(self.stdin.take());
        for _ in 0..100 {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `amulet drive`.
pub(crate) fn cmd_drive(mut args: Args) -> Result<(), String> {
    let shape = ShapeOptions::parse(&mut args)?;
    let procs = args.parsed::<usize>("--procs")?.unwrap_or(2).max(1);
    let batch_programs = args
        .parsed::<usize>("--batch")?
        .unwrap_or(DriveConfig::default().batch_programs)
        .max(1);
    let connect_list = args.value("--connect")?;
    let retries = args.parsed::<usize>("--retries")?;
    let quarantine_after = args.parsed::<usize>("--quarantine-after")?;
    let liveness_s = args.parsed::<f64>("--liveness-s")?;
    let batch_timeout_s = args.parsed::<f64>("--batch-timeout-s")?;
    let fragments_path = args.value("--fragments")?;
    let events_path = args.value("--events")?;
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

    let cfg = shape.config();
    let mut drive = DriveConfig {
        procs,
        batch_programs,
        seed: cfg.seed,
        ..DriveConfig::default()
    };
    if let Some(r) = retries {
        drive.retries = r;
    }
    if let Some(q) = quarantine_after {
        drive.quarantine_after = q.max(1);
    }
    if let Some(s) = liveness_s {
        drive.liveness = parse_seconds("--liveness-s", s)?;
    }
    if let Some(s) = batch_timeout_s {
        drive.batch_timeout = parse_seconds("--batch-timeout-s", s)?;
    }

    let open_append = |path: Option<&str>| -> Result<Option<Box<dyn Write + Send>>, String> {
        match path {
            None => Ok(None),
            Some(p) => Ok(Some(Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("cannot open {p}: {e}"))?,
            ))),
        }
    };
    let tee = open_append(fragments_path.as_deref())?;
    let events = open_append(events_path.as_deref())?;
    // Made where the driver starts, so `t_s` counts from the campaign's start.
    let events = || events.map_or_else(EventLog::off, EventLog::new);

    let report = match connect_list.as_deref() {
        Some(list) => {
            let addrs = crate::net::parse_connect_list(list)?;
            drive.procs = addrs.len();
            eprintln!(
                "driving {} × {} ({} cases) over {} TCP workers, proto v{PROTO_VERSION}",
                shape.defense.name(),
                shape.contract.name(),
                cfg.total_cases(),
                addrs.len()
            );
            run_driver(
                &cfg,
                &drive,
                |slot| crate::net::TcpLink::connect(&addrs[slot % addrs.len()], drive.liveness),
                tee,
                &events(),
            )?
        }
        None => {
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
            let worker_args = shape.worker_argv();
            eprintln!(
                "driving {} × {} ({} cases) over {procs} worker processes, proto v{PROTO_VERSION}",
                shape.defense.name(),
                shape.contract.name(),
                cfg.total_cases()
            );
            run_driver(
                &cfg,
                &drive,
                |_slot| ProcLink::spawn(&exe, &worker_args),
                tee,
                &events(),
            )?
        }
    };
    print_report(&report);
    sink.line(&report_json(&report, "drive", drive.procs, batch_programs))
}

/// Converts a `--*-s` seconds flag into a `Duration`, rejecting values a
/// deadline cannot represent.
fn parse_seconds(flag: &str, s: f64) -> Result<Duration, String> {
    if s.is_finite() && s > 0.0 {
        Ok(Duration::from_secs_f64(s))
    } else {
        Err(format!("{flag}: expected a positive number of seconds"))
    }
}
