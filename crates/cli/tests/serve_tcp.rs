//! End-to-end service determinism over real sockets and processes:
//! `amulet serve` fed by one remote `amulet worker --listen` plus one
//! in-process worker, driven twice by the `amulet submit` client — with
//! the remote worker killed mid-first-run. The first result must carry
//! the in-process CLI fingerprint (the quarantine/orphan-adoption ladder
//! holding under the service), the second must be a byte-equal cache hit
//! that executes zero batches, the daemon must exit cleanly after its
//! session budget, and the corpus file must hold the findings.
//!
//! The in-memory version of these assertions (more campaigns, controlled
//! scheduling) lives at the workspace root in `tests/serve_session.rs`.

use amulet_util::{parse_json, JsonValue};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_amulet");
/// How long one daemon operation (a failed campaign, a drain) may take.
const OP_LIMIT: Duration = Duration::from_secs(10);
// The quick shape at batch 3 — same campaign identity for the in-process
// reference and both submits. Remote workers take no shape flags: each
// slot sends them the campaign it leases.
const SHAPE: &[&str] = &[
    "--defense",
    "Baseline",
    "--contract",
    "CT-SEQ",
    "--batch",
    "3",
];

/// A child process that announced an address on stderr (worker or serve
/// daemon), with stderr captured for later assertions.
struct Announced {
    child: Child,
    addr: String,
    stderr: Arc<Mutex<Vec<u8>>>,
}

impl Announced {
    /// Spawns the binary and scrapes `"addr":"..."` from the first
    /// structured announcement line on stderr. The captured stderr starts
    /// with the lines read up to and including that announcement.
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(BIN)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn amulet");
        let mut reader = BufReader::new(child.stderr.take().unwrap());
        let mut head = String::new();
        let addr = loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read stderr");
            assert!(n > 0, "{args:?} exited before announcing its address");
            head.push_str(&line);
            if let Some(at) = line.find("\"addr\":\"") {
                let rest = &line[at + "\"addr\":\"".len()..];
                break rest[..rest.find('"').unwrap()].to_string();
            }
        };
        // Keep draining stderr (the process must never block on a full
        // pipe) into a buffer the test can assert on.
        let stderr = Arc::new(Mutex::new(head.into_bytes()));
        let sink = stderr.clone();
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match reader.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => sink.lock().unwrap().extend_from_slice(&buf[..n]),
                }
            }
        });
        Announced {
            child,
            addr,
            stderr,
        }
    }
}

impl Drop for Announced {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs the binary, asserts success, and returns the last JSON line on
/// stdout.
fn json_line_of(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("spawn amulet");
    assert!(
        out.status.success(),
        "amulet {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout
        .lines()
        .rfind(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in:\n{stdout}"))
        .to_string()
}

fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let at = json
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + tag.len()..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} in {json}"));
    rest[..end].trim_matches('"')
}

#[test]
fn serve_caches_resubmits_and_survives_a_worker_killed_mid_run() {
    let reference = {
        let line = json_line_of(&[&["campaign", "--workers", "2", "--json", "-"], SHAPE].concat());
        field(&line, "fingerprint").to_string()
    };

    let worker = Announced::spawn(&["worker", "--listen", "127.0.0.1:0"]);
    let corpus = std::env::temp_dir().join(format!("amulet_serve_corpus_{}", std::process::id()));
    let _ = std::fs::remove_file(&corpus);
    let mut serve = Announced::spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--connect",
        &worker.addr,
        "--corpus",
        corpus.to_str().unwrap(),
        "--sessions",
        "2",
    ]);

    // Kill the remote worker once the first campaign is plausibly mid-run.
    // If the campaign finishes first the kill is a no-op — the assertions
    // hold either way; the deterministic mid-batch story is covered by the
    // in-memory suites.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(worker);
    });

    let submit_args: Vec<&str> = [&["submit", "--connect", &serve.addr], SHAPE].concat();
    let first = json_line_of(&submit_args);
    killer.join().unwrap();
    assert_eq!(
        field(&first, "fingerprint"),
        reference,
        "service result diverged from the in-process run: {first}"
    );
    assert_eq!(field(&first, "cached"), "false", "{first}");

    // Same campaign again: served from the cache, zero batches executed,
    // same fingerprint — even though the remote worker is long dead.
    let second = json_line_of(&submit_args);
    assert_eq!(field(&second, "cached"), "true", "{second}");
    assert_eq!(field(&second, "executed_batches"), "0", "{second}");
    assert_eq!(field(&second, "fingerprint"), reference, "{second}");

    // Two sessions served: the daemon exits on its own, cleanly, with
    // both conversations accounted for in its structured log.
    let status = serve.child.wait().expect("wait for serve");
    assert!(status.success(), "serve exited with {status}");
    // The drainer thread may still be flushing the last lines — poll.
    let mut log = String::new();
    for _ in 0..50 {
        log = String::from_utf8_lossy(&serve.stderr.lock().unwrap()).into_owned();
        if log.matches("\"event\":\"session_end\"").count() == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        log.matches("\"event\":\"session_end\"").count(),
        2,
        "both client sessions must close cleanly:\n{log}"
    );
    // One process, one event stream: the daemon's own rows and its TCP
    // slot's fleet rows share one dense sequence, so a collector can
    // prove it missed nothing. (The drainer may be mid-line; only
    // complete lines count.)
    let seqs: Vec<u64> = log[..log.rfind('\n').map_or(0, |end| end + 1)]
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| {
            let row = parse_json(l).unwrap_or_else(|e| panic!("{e}: {l}"));
            assert!(
                row.get("component").and_then(JsonValue::as_str).is_some(),
                "row without a component: {l}"
            );
            row.get("seq")
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| panic!("row without a seq: {l}"))
        })
        .collect();
    assert_eq!(
        seqs,
        (0..seqs.len() as u64).collect::<Vec<_>>(),
        "the daemon's stderr must carry one dense seq:\n{log}"
    );

    // The violating campaign left its findings in the corpus, and the
    // query tool reads them back.
    let text = std::fs::read_to_string(&corpus).expect("corpus file written");
    assert!(!text.trim().is_empty(), "corpus is empty");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"class\""),
            "corpus line is not a record: {line}"
        );
    }
    let queried = Command::new(BIN)
        .args(["corpus", "--file", corpus.to_str().unwrap()])
        .output()
        .expect("spawn corpus query");
    assert!(queried.status.success());
    let listed = String::from_utf8(queried.stdout).unwrap();
    assert_eq!(listed.lines().count(), text.lines().count());
    let _ = std::fs::remove_file(&corpus);
}

/// A port nothing listens on: bound once to learn a free port, then closed.
fn refused_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe port");
    listener.local_addr().unwrap().to_string()
}

/// The degradation floor over a real daemon: with no local workers and
/// one `--connect` slot that can never connect, the slot quarantines and
/// the submitted campaign fails with "campaign incomplete" — promptly,
/// well inside the client's own deadline, instead of staying active
/// until the client gives up.
#[test]
fn serve_fails_a_campaign_no_slot_can_serve() {
    let dead = refused_addr();
    let serve = Announced::spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "0",
        "--connect",
        &dead,
        "--sessions",
        "1",
    ]);
    let t0 = std::time::Instant::now();
    let out = Command::new(BIN)
        .args(
            [
                &[
                    "submit",
                    "--connect",
                    &serve.addr,
                    "--timeout-s",
                    &OP_LIMIT.as_secs().to_string(),
                ],
                SHAPE,
            ]
            .concat(),
        )
        .output()
        .expect("spawn amulet submit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "submit must fail:\n{stderr}");
    assert!(
        stderr.contains("campaign incomplete"),
        "expected the degradation-floor error:\n{stderr}"
    );
    assert!(
        t0.elapsed() < OP_LIMIT,
        "the floor must fire before the client deadline ({:?})",
        t0.elapsed()
    );
    // The slot's ladder is on the daemon's stderr as fleet event rows.
    let log = String::from_utf8_lossy(&serve.stderr.lock().unwrap()).into_owned();
    assert!(
        log.contains("\"event\":\"quarantine\""),
        "the dead slot's quarantine must be logged:\n{log}"
    );
}

/// Find-first through a TCP slot alone: the slot sends the find-first
/// campaign to a remote worker started without shape flags, the daemon's
/// scheduler withholds batches past the earliest hit, and the served
/// result carries the in-process `campaign --find-first` fingerprint.
#[test]
fn serve_tcp_slots_carry_find_first_campaigns() {
    let reference = {
        let line = json_line_of(
            &[
                &["campaign", "--workers", "2", "--json", "-", "--find-first"],
                SHAPE,
            ]
            .concat(),
        );
        field(&line, "fingerprint").to_string()
    };
    let worker = Announced::spawn(&["worker", "--listen", "127.0.0.1:0"]);
    let serve = Announced::spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "0",
        "--connect",
        &worker.addr,
        "--sessions",
        "1",
    ]);
    let served =
        json_line_of(&[&["submit", "--connect", &serve.addr, "--find-first"], SHAPE].concat());
    assert_eq!(
        field(&served, "fingerprint"),
        reference,
        "find-first over a TCP slot diverged from the in-process run: {served}"
    );
}

/// One worker, many campaigns: a `worker --listen` started with no shape
/// flags serves two different campaigns submitted to a daemon whose only
/// slot it is, and each result carries its in-process fingerprint.
#[test]
fn one_listening_worker_serves_two_different_campaigns() {
    let campaigns: [&[&str]; 2] = [
        &[
            "--defense",
            "Baseline",
            "--contract",
            "CT-SEQ",
            "--batch",
            "3",
        ],
        &["--defense", "STT", "--contract", "ARCH-SEQ", "--batch", "6"],
    ];
    let worker = Announced::spawn(&["worker", "--listen", "127.0.0.1:0"]);
    let serve = Announced::spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "0",
        "--connect",
        &worker.addr,
        "--sessions",
        "2",
    ]);
    for shape in campaigns {
        let reference =
            json_line_of(&[&["campaign", "--workers", "2", "--json", "-"], shape].concat());
        let served = json_line_of(&[&["submit", "--connect", &serve.addr], shape].concat());
        assert_eq!(
            field(&served, "fingerprint"),
            field(&reference, "fingerprint"),
            "{shape:?} through the shared worker diverged: {served}"
        );
        assert_eq!(field(&served, "cached"), "false", "{served}");
    }
    // Both campaigns ran on the one worker, one session each.
    let log = String::from_utf8_lossy(&worker.stderr.lock().unwrap()).into_owned();
    assert!(
        log.matches("\"event\":\"session_start\"").count() >= 2,
        "{log}"
    );
}

/// A real SIGTERM wakes the daemon's blocking accept: with one idle client
/// connected and one campaign in flight, the daemon logs `draining`, tells
/// both clients, checkpoints the campaign (`--state-dir`) and exits 0.
#[cfg(unix)]
#[test]
fn sigterm_drains_a_daemon_blocked_in_accept() {
    use amulet_core::proto::{CampaignSpec, Msg};
    use std::io::Write;
    use std::net::TcpStream;

    let state = std::env::temp_dir().join(format!("amulet_serve_term_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut serve = Announced::spawn(&[
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--state-dir",
        state.to_str().unwrap(),
    ]);
    let idle = TcpStream::connect(&serve.addr).expect("connect idle client");
    let busy = TcpStream::connect(&serve.addr).expect("connect busy client");
    for client in [&idle, &busy] {
        client.set_read_timeout(Some(OP_LIMIT)).unwrap();
    }
    // A paper-scaled campaign far longer than the test: still in flight
    // when the signal lands.
    let spec = CampaignSpec {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        source: "PHT".into(),
        seed: 2025,
        scale: Some(1.0),
        find_first: false,
        batch_programs: 3,
        cycle_skip: true,
    };
    writeln!(&busy, "{}", Msg::Submit(spec).to_line()).expect("send submit");
    let mut busy_lines = BufReader::new(&busy).lines();
    let mut next = || {
        let line = busy_lines.next().expect("daemon hung up").expect("read");
        Msg::parse_line(&line).expect("daemon sent a malformed line")
    };
    assert!(matches!(next(), Msg::Accepted { cached: false, .. }));

    let t0 = std::time::Instant::now();
    let killed = Command::new("kill")
        .args(["-TERM", &serve.child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success());
    let status = loop {
        if let Some(status) = serve.child.try_wait().expect("wait for serve") {
            break status;
        }
        assert!(t0.elapsed() < OP_LIMIT, "serve did not exit after SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "serve exited with {status} after SIGTERM");

    loop {
        match next() {
            Msg::Progress { .. } => {}
            Msg::Draining { active } => break assert_eq!(active, 1),
            other => panic!("the in-flight client must hear `draining`, got {other:?}"),
        }
    }
    let idle_heard = BufReader::new(&idle)
        .lines()
        .map_while(Result::ok)
        .collect::<Vec<_>>();
    assert_eq!(
        idle_heard,
        [Msg::Draining { active: 1 }.to_line()],
        "the idle client hears `draining`, then the daemon hangs up"
    );
    // The drainer thread may still be flushing the last lines — poll.
    let mut log = String::new();
    for _ in 0..50 {
        log = String::from_utf8_lossy(&serve.stderr.lock().unwrap()).into_owned();
        if log.contains("\"event\":\"draining\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        log.contains("\"event\":\"draining\""),
        "the drain must be logged:\n{log}"
    );
    let _ = std::fs::remove_dir_all(&state);
}
