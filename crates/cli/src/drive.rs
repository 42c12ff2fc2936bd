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
//! command itself. Like every fabric link, `ProcLink` reads its worker's
//! lines through the one frame reader (`wire::pump_frames`), so a worker
//! that dies mid-frame is the same "mid-frame" error over a pipe as over
//! TCP. See `docs/DISTRIBUTED.md` for the operator-level picture.

use crate::fleet::{run_driver, DriveConfig, WorkerLink};
use crate::wire::{recv_msg, spawn_pump, write_msg, Frame};
use crate::{print_report, report_json, Args, JsonSink, ShapeOptions};
use amulet_core::proto::{Msg, PROTO_VERSION};
use amulet_util::EventLog;
use std::io::{BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// A [`WorkerLink`] over a spawned `amulet worker` child process's
/// stdin/stdout pipes (stderr is inherited, so each worker's event rows,
/// numbered by its own `seq`, interleave with the driver's). A
/// `wire::pump_frames` thread reads stdout, so receives can carry a
/// deadline.
#[derive(Debug)]
pub struct ProcLink {
    child: Child,
    stdin: Option<ChildStdin>,
    frames: Receiver<Frame>,
}

impl ProcLink {
    /// Spawns `program worker` and wires up its pipes. The worker learns
    /// its campaign from the slot's `submit`, so it takes no arguments.
    pub fn spawn(program: &std::path::Path) -> Result<Self, String> {
        let mut child = Command::new(program)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {}: {e}", program.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        // Unbounded: a records-bearing fragment grows with its violations.
        // The reader ends when the child exits, which `Drop` guarantees.
        let frames = spawn_pump(BufReader::new(stdout), usize::MAX);
        Ok(ProcLink {
            child,
            stdin: Some(stdin),
            frames,
        })
    }
}

impl WorkerLink for ProcLink {
    fn send(&mut self, msg: &Msg) -> Result<(), String> {
        write_msg(self.stdin.as_mut().ok_or("worker stdin closed")?, msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
        recv_msg(&self.frames, timeout)
    }
}

impl Drop for ProcLink {
    /// Closes the worker's stdin (EOF ends its serve loop) and waits up to
    /// 200 ms for it to exit, which ends the frame channel: exiting closes
    /// the worker's stdout. Then kills and reaps — a dropped link never
    /// leaks a child process, even on error paths.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_millis(200);
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            // Lines still in flight are skipped; the end, a read failure
            // or the deadline stops the wait.
            if !matches!(
                self.frames.recv_timeout(left),
                Ok(Frame::Line(_) | Frame::TooLong(_))
            ) {
                break;
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `amulet drive`.
pub(crate) fn cmd_drive(mut args: Args) -> Result<(), String> {
    let shape = ShapeOptions::parse(&mut args)?;
    let spec = shape.spec(shape.parse_batch(&mut args)?);
    let cases = shape.config().total_cases();
    let defaults = DriveConfig::default();
    let mut drive = DriveConfig {
        procs: args.count("--procs")?.unwrap_or(defaults.procs),
        retries: args.parsed("--retries")?.unwrap_or(defaults.retries),
        quarantine_after: args
            .count("--quarantine-after")?
            .unwrap_or(defaults.quarantine_after),
        liveness: args.seconds("--liveness-s")?.unwrap_or(defaults.liveness),
        batch_timeout: args
            .seconds("--batch-timeout-s")?
            .unwrap_or(defaults.batch_timeout),
        seed: spec.seed,
        ..defaults
    };
    let connect_list = args.value("--connect")?;
    let fragments_path = args.value("--fragments")?;
    let events_path = args.value("--events")?;
    let mut sink = JsonSink::open(args.value("--json")?)?;
    args.finish()?;

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
                cases,
                addrs.len()
            );
            run_driver(
                &spec,
                &drive,
                |slot| crate::net::TcpLink::connect(&addrs[slot % addrs.len()], drive.liveness),
                tee,
                &events(),
            )?
        }
        None => {
            let exe =
                std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
            eprintln!(
                "driving {} × {} ({} cases) over {} worker processes, proto v{PROTO_VERSION}",
                shape.defense.name(),
                shape.contract.name(),
                cases,
                drive.procs
            );
            run_driver(&spec, &drive, |_slot| ProcLink::spawn(&exe), tee, &events())?
        }
    };
    print_report(&report);
    sink.line(&report_json(
        &report,
        "drive",
        drive.procs,
        spec.batch_programs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that dies mid-frame is a truncation error over a real
    /// pipe too, with the torn byte count: `printf worker` writes the six
    /// bytes `worker` with no newline and exits.
    #[cfg(unix)]
    #[test]
    fn a_worker_dying_mid_frame_is_a_truncation_error() {
        let mut link = ProcLink::spawn(std::path::Path::new("printf")).unwrap();
        let err = link.recv_timeout(Duration::from_secs(30)).unwrap_err();
        assert!(
            err.contains("mid-frame (6 bytes)"),
            "unexpected error: {err}"
        );
    }

    /// A worker that ignores EOF is killed once the exit wait runs out:
    /// dropping its link returns promptly instead of waiting out the
    /// worker's 60 s sleep.
    #[cfg(unix)]
    #[test]
    fn dropping_a_link_kills_a_worker_that_ignores_eof() {
        use std::os::unix::fs::PermissionsExt;
        let script =
            std::env::temp_dir().join(format!("amulet_deaf_worker_{}", std::process::id()));
        std::fs::write(&script, "#!/bin/sh\nexec sleep 60\n").unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        let link = ProcLink::spawn(&script).unwrap();
        let t0 = Instant::now();
        drop(link);
        let _ = std::fs::remove_file(&script);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "drop took {:?}: the kill was lost",
            t0.elapsed()
        );
    }
}
