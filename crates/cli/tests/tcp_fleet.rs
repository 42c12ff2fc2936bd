//! End-to-end cross-host fleet determinism through the real binary over
//! real loopback TCP: `amulet worker --listen` processes driven by
//! `amulet drive --connect`, with fingerprints diffed against the
//! in-process `amulet campaign` run — including a worker killed mid-run
//! and a fleet member that does not exist at all (connection refused →
//! quarantine → graceful degradation).
//!
//! The deterministic (seeded fault plan) version of these assertions
//! lives at the workspace root in `tests/fleet_faults.rs`; this file
//! proves the same ladder holds over actual sockets and processes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_amulet");
// Small shape so the debug-profile binary stays fast: quick shape is
// 2 instances × 12 programs × 28 inputs = 672 cases per run.
const DRIVE_SHAPE: &[&str] = &[
    "--defense",
    "Baseline",
    "--contract",
    "CT-SEQ",
    "--batch",
    "3",
];

/// A listening worker process plus the address it announced.
struct ListenWorker {
    child: Child,
    addr: String,
}

impl ListenWorker {
    /// Spawns `amulet worker --listen 127.0.0.1:0` and scrapes the bound
    /// address from the structured `listening` line on stderr.
    fn spawn() -> Self {
        let (worker, mut log) = Self::spawn_logged(&[]);
        // Keep draining stderr so the worker can never block on a full
        // pipe, however chatty its session logs get.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = log.read_to_end(&mut sink);
        });
        worker
    }

    /// [`ListenWorker::spawn`] with `extra` worker flags, handing back the
    /// stderr event stream after the `listening` row.
    fn spawn_logged(extra: &[&str]) -> (Self, BufReader<ChildStderr>) {
        let mut child = Command::new(BIN)
            .args(["worker", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn listening worker");
        let mut reader = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read worker stderr");
            assert!(n > 0, "worker exited before announcing its address");
            if let Some(at) = line.find("\"addr\":\"") {
                let rest = &line[at + "\"addr\":\"".len()..];
                break rest[..rest.find('"').unwrap()].to_string();
            }
        };
        (ListenWorker { child, addr }, reader)
    }
}

impl Drop for ListenWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs the binary, asserts success, and extracts the fingerprint from
/// its `--json -` report line on stdout.
fn fingerprint_of(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .args(["--json", "-"])
        .output()
        .expect("spawn amulet");
    assert!(
        out.status.success(),
        "amulet {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let json = stdout
        .lines()
        .rfind(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON report line in:\n{stdout}"));
    let at = json
        .find("\"fingerprint\":\"")
        .unwrap_or_else(|| panic!("no fingerprint in {json}"));
    let rest = &json[at + "\"fingerprint\":\"".len()..];
    rest[..rest.find('"').unwrap()].to_string()
}

fn reference_fingerprint() -> String {
    fingerprint_of(&[&["campaign", "--workers", "2"], DRIVE_SHAPE].concat())
}

/// The clean cross-host path: two TCP workers, fingerprint identical to
/// the in-process run. Each worker also survives serving a *second*
/// campaign (sessions are independent; the listener loops).
#[test]
fn tcp_fleet_matches_the_in_process_fingerprint() {
    let reference = reference_fingerprint();
    let (w1, w2) = (ListenWorker::spawn(), ListenWorker::spawn());
    let connect = format!("{},{}", w1.addr, w2.addr);
    for round in 0..2 {
        let driven = fingerprint_of(&[&["drive", "--connect", &connect], DRIVE_SHAPE].concat());
        assert_eq!(
            driven, reference,
            "TCP fingerprint diverged (round {round})"
        );
    }
}

/// Degradation over real sockets: one address in the fleet has no worker
/// behind it (connection refused, forever). The driver quarantines that
/// slot, the survivor carries the whole campaign, and the event log —
/// the artifact CI uploads — records the failure story as valid JSONL.
#[test]
fn a_refused_fleet_member_is_quarantined_and_the_survivor_carries() {
    let reference = reference_fingerprint();
    let live = ListenWorker::spawn();
    // Reserve a port, then free it: a refused (not hanging) connect.
    let dead_addr = {
        let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
        placeholder.local_addr().unwrap().to_string()
    };
    let events = std::env::temp_dir().join(format!("amulet_tcp_events_{}", std::process::id()));
    let connect = format!("{},{dead_addr}", live.addr);
    let driven = fingerprint_of(
        &[
            &[
                "drive",
                "--connect",
                &connect,
                "--retries",
                "1",
                "--quarantine-after",
                "1",
                "--events",
                events.to_str().unwrap(),
            ],
            DRIVE_SHAPE,
        ]
        .concat(),
    );
    assert_eq!(driven, reference, "degraded-fleet fingerprint diverged");

    let log = std::fs::read_to_string(&events).unwrap();
    assert!(
        log.contains("\"event\":\"quarantine\""),
        "the dead address must be quarantined:\n{log}"
    );
    assert!(
        log.contains("\"event\":\"link_failure\""),
        "refused connects must be recorded:\n{log}"
    );
    for line in log.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "event log must be JSONL: {line}"
        );
    }
    let _ = std::fs::remove_file(&events);
}

/// A worker killed mid-campaign: its slot fails over (reconnects are
/// refused once the process is gone, so the slot quarantines) and the
/// surviving worker finishes the campaign with the same fingerprint.
#[test]
fn killing_a_worker_mid_run_does_not_move_the_fingerprint() {
    let reference = reference_fingerprint();
    let w1 = ListenWorker::spawn();
    let mut w2 = ListenWorker::spawn();
    let connect = format!("{},{}", w1.addr, w2.addr);

    let killer = std::thread::spawn(move || {
        // Give the driver time to hand w2 real work, then kill it. If the
        // campaign happens to finish first the kill is a no-op — the
        // assertion below holds either way; the deterministic version of
        // the mid-batch story is in tests/fleet_faults.rs.
        std::thread::sleep(Duration::from_millis(300));
        let _ = w2.child.kill();
        let _ = w2.child.wait();
    });
    let driven = fingerprint_of(&[&["drive", "--connect", &connect], DRIVE_SHAPE].concat());
    killer.join().unwrap();
    assert_eq!(driven, reference, "mid-run kill moved the fingerprint");
}

/// `--idle-timeout-s` ends a session whose driver has gone silent: the
/// worker logs `worker_idle_timeout`, closes the socket, and the listener
/// serves the next connection.
#[test]
fn an_idle_session_times_out_and_the_listener_serves_the_next() {
    let (mut worker, mut log) =
        ListenWorker::spawn_logged(&["--idle-timeout-s", "0.2", "--sessions", "2"]);
    let silent = TcpStream::connect(&worker.addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut silent = BufReader::new(silent);
    let mut line = String::new();
    silent.read_line(&mut line).expect("read hello");
    assert!(line.contains("\"type\":\"hello\""), "{line}");
    line.clear();
    let n = silent.read_line(&mut line).expect("idle session closed");
    assert_eq!(n, 0, "a silent driver's session must end, got {line:?}");
    let mut rows = String::new();
    while !rows.contains("\"event\":\"session_end\"") {
        assert!(log.read_line(&mut rows).unwrap() > 0, "worker exited early");
    }
    assert!(rows.contains("\"event\":\"worker_idle_timeout\""), "{rows}");

    let mut next = TcpStream::connect(&worker.addr).expect("connect again");
    next.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(next, "{{\"type\":\"ping\",\"token\":7}}").unwrap();
    let mut replies = BufReader::new(next.try_clone().unwrap());
    line.clear();
    replies.read_line(&mut line).expect("read hello");
    assert!(line.contains("\"type\":\"hello\""), "{line}");
    line.clear();
    replies.read_line(&mut line).expect("read pong");
    assert!(line.contains("\"type\":\"pong\""), "{line}");
    writeln!(next, "{{\"type\":\"shutdown\"}}").unwrap();
    assert!(
        worker.child.wait().unwrap().success(),
        "the listener exits after its two sessions"
    );
}
