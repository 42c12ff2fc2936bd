//! One operation through each user path, timed from outside the way a
//! user waits for it: a fresh `amulet campaign` or `amulet drive` process
//! (spawn to exit), or one `submit` to a running `amulet serve` daemon
//! (connect to `result`).
//!
//! The processes are this binary re-executed with the CLI's own argv
//! (`main` hands `campaign`, `drive`, `worker` and `serve` to
//! `amulet_cli::run`), so they run exactly the code `amulet` runs; `drive`
//! spawns `current_exe() worker …`, which lands here too.

use crate::proc::{reported_peak_kb, signal, wait_within, SIGKILL, SIGTERM};
use crate::workloads::{Workload, WORKERS};
use amulet_core::proto::{CampaignSpec, Msg, ReportWire, ResultMsg};
use amulet_core::CampaignReport;
use amulet_util::{parse_json, JsonValue};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest any one campaign process, submit or daemon start may take.
const OP_LIMIT: Duration = Duration::from_secs(120);

/// What a campaign reported that the correctness checks compare: the
/// deterministic part, never a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Test cases executed.
    pub cases: u64,
    /// `CampaignReport::fingerprint`.
    pub fingerprint: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
}

impl Report {
    /// The checked part of an in-process report.
    pub fn of(r: &CampaignReport) -> Self {
        Report {
            cases: r.stats.cases as u64,
            fingerprint: r.fingerprint(),
            sim_cycles: r.stats.sim_cycles,
        }
    }

    /// The checked part of a wire report.
    pub fn of_wire(r: &ReportWire) -> Self {
        Report {
            cases: r.stats.cases as u64,
            fingerprint: r.fingerprint(),
            sim_cycles: r.stats.sim_cycles,
        }
    }

    /// Parses the `--json -` report line a campaign or drive printed.
    fn parse(stdout: &str) -> Result<Self, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .ok_or("no JSON report line on stdout")?;
        let v = parse_json(line)?;
        let int = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("report line without {key:?}"))
        };
        let fingerprint = v
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
            .ok_or("report line without a fingerprint")?;
        Ok(Report {
            cases: int("cases")?,
            fingerprint,
            sim_cycles: int("sim_cycles")?,
        })
    }
}

/// This binary, which every spawned process re-executes.
fn exe() -> PathBuf {
    std::env::current_exe().expect("the running binary has a path")
}

/// `amulet campaign` argv for `w` at `seed` and `scale`.
pub fn campaign_argv(w: &Workload, seed: u64, scale: f64) -> Vec<String> {
    let mut argv = vec!["campaign".to_string()];
    argv.extend(w.shape(seed, scale).worker_argv());
    argv.extend(["--workers", &WORKERS.to_string(), "--json", "-"].map(String::from));
    argv
}

/// `amulet drive` argv for `w`, logging fleet events to `events` and, when
/// given, teeing fragments to `fragments`.
pub fn drive_argv(
    w: &Workload,
    seed: u64,
    scale: f64,
    events: &Path,
    fragments: Option<&Path>,
) -> Vec<String> {
    let mut argv = vec!["drive".to_string()];
    argv.extend(w.shape(seed, scale).worker_argv());
    argv.extend(["--procs", &WORKERS.to_string(), "--json", "-"].map(String::from));
    argv.extend(["--events".to_string(), events.display().to_string()]);
    if let Some(f) = fragments {
        argv.extend(["--fragments".to_string(), f.display().to_string()]);
    }
    argv
}

/// One timed campaign or drive process.
#[derive(Debug)]
pub struct CliRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Spawn until the process is ready to compute: until its first stderr
    /// line (`running …` or `driving …`, printed once the campaign is
    /// resolved) and, for `drive`, on until every worker's `connect` event.
    pub setup: Duration,
    /// What it reported.
    pub report: Report,
    /// Peak RSS summed over the process and its workers, KiB, when every
    /// one of them reported it.
    pub peak_kb: Option<u64>,
}

/// When the last of `n` workers connected, from the start of the drive's
/// event log.
fn connected_after(events: &Path, n: usize) -> Result<Duration, String> {
    let text = std::fs::read_to_string(events).map_err(|e| format!("no event log: {e}"))?;
    let mut at: Vec<f64> = text
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .filter(|v| v.get("event").and_then(JsonValue::as_str) == Some("connect"))
        .filter_map(|v| v.get("t_s").and_then(JsonValue::as_f64))
        .collect();
    at.sort_by(f64::total_cmp);
    at.get(n.wrapping_sub(1))
        .map(|&s| Duration::from_secs_f64(s))
        .ok_or(format!("{} of {n} workers connected", at.len()))
}

/// Runs `argv` as a fresh process, its stdout captured under `dir`. With
/// `events` (a drive's event log), set-up lasts until [`WORKERS`] workers
/// connected.
pub fn run_cli(argv: &[String], dir: &Path, events: Option<&Path>) -> Result<CliRun, String> {
    let out_path = dir.join("stdout.txt");
    let stdout = File::create(&out_path)
        .map_err(|e| format!("cannot create {}: {e}", out_path.display()))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe())
        .args(argv)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", argv[0]))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let reader = std::thread::spawn(move || {
        BufReader::new(stderr)
            .lines()
            .map_while(Result::ok)
            .map(|line| (Instant::now(), line))
            .collect::<Vec<_>>()
    });
    let waited = wait_within(child, OP_LIMIT);
    let lines = reader.join().expect("the stderr reader does not panic");
    let (status, end) = waited?;
    let stderr: String = lines.iter().map(|(_, l)| format!("{l}\n")).collect();
    if !status.success() {
        let last = stderr.lines().last().unwrap_or("");
        return Err(format!("{} exited with {status}: {last}", argv[0]));
    }
    let ready = lines.first().ok_or("nothing on stderr")?.0 - t0;
    let connected = match events {
        Some(log) => connected_after(log, WORKERS)?,
        None => Duration::ZERO,
    };
    Ok(CliRun {
        wall: end - t0,
        setup: ready + connected,
        report: Report::parse(&std::fs::read_to_string(&out_path).unwrap_or_default())?,
        peak_kb: reported_peak_kb(&stderr, 1 + events.map_or(0, |_| WORKERS)),
    })
}

/// A running `amulet serve --workers 2` daemon with a fresh state
/// directory and corpus under the run's directory.
pub struct Daemon {
    child: Option<Child>,
    /// Its process id.
    pub pid: u32,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// Spawn until it listens.
    pub setup: Duration,
    /// Its `--state-dir`.
    pub state_dir: PathBuf,
    /// Its `--corpus` file.
    pub corpus: PathBuf,
    lines: mpsc::Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon and times its set-up: spawn until its `serving`
    /// event, which it logs once it listens. (A first accept can then still
    /// wait out one accept poll; `service.accept_ms` and the hit latency
    /// show that.) Returns once the daemon accepted a probe connection, so
    /// its accept loop — and its SIGTERM handler — are running.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        let state_dir = dir.join("state");
        let corpus = dir.join("corpus.jsonl");
        let _ = std::fs::remove_dir_all(&state_dir);
        let _ = std::fs::remove_file(&corpus);
        let t0 = Instant::now();
        let mut child = Command::new(exe())
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .arg("--state-dir")
            .arg(&state_dir)
            .arg("--corpus")
            .arg(&corpus)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            pid: child.id(),
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
            state_dir,
            corpus,
            lines,
            reader: Some(reader),
        };
        let (listening, serving) = daemon.await_event("serving")?;
        daemon.setup = listening - t0;
        daemon.addr = parse_json(&serving)?
            .get("addr")
            .and_then(JsonValue::as_str)
            .and_then(|a| a.parse().ok())
            .ok_or("serving event without an address")?;
        let probe = TcpStream::connect_timeout(&daemon.addr, OP_LIMIT)
            .map_err(|e| format!("cannot connect to serve: {e}"))?;
        daemon.await_event("session_start")?;
        drop(probe);
        Ok(daemon)
    }

    /// Waits for the daemon to log `event`; returns when it arrived and the
    /// whole line.
    fn await_event(&self, event: &str) -> Result<(Instant, String), String> {
        let tag = format!("\"event\":\"{event}\"");
        let deadline = Instant::now() + OP_LIMIT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let (at, line) = self
                .lines
                .recv_timeout(left)
                .map_err(|_| format!("serve never logged {event:?}"))?;
            if line.contains(&tag) {
                return Ok((at, line));
            }
        }
    }

    /// SIGTERM: the daemon drains and must exit 0.
    pub fn stop(mut self) -> Result<(), String> {
        let child = self.child.take().expect("a started daemon has a child");
        signal(self.pid, SIGTERM);
        let (status, _) = wait_within(child, OP_LIMIT)?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("serve exited with {status} after SIGTERM"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            signal(self.pid, SIGKILL);
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One submit, timed by message arrival at the client.
#[derive(Debug)]
pub struct Submitted {
    /// Connect to `result`.
    pub latency: Duration,
    /// Connect to `accepted`.
    pub accepted: Duration,
    /// Connect to the first and last `progress` (none on a cache hit).
    pub progress: Option<(Duration, Duration)>,
    /// `progress` messages received.
    pub progress_msgs: u64,
    /// Bytes of the `result` line.
    pub result_bytes: usize,
    /// Time `Msg::parse_line` took on the `result` line.
    pub decode: Duration,
    /// The result; it carries a report.
    pub result: ResultMsg,
}

impl Submitted {
    /// The result's report.
    pub fn report(&self) -> &ReportWire {
        self.result
            .report
            .as_ref()
            .expect("results are checked for a report")
    }
}

/// Submits `spec` over a fresh connection, as `amulet submit` does, and
/// waits for its result.
pub fn submit(addr: SocketAddr, spec: &CampaignSpec) -> Result<Submitted, String> {
    let t0 = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, OP_LIMIT).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(OP_LIMIT))
        .map_err(|e| e.to_string())?;
    writeln!(stream, "{}", Msg::Submit(spec.clone()).to_line())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let (mut accepted, mut progress, mut progress_msgs) = (None, None, 0);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("connection closed before the result".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        let at = t0.elapsed();
        let parse = Instant::now();
        let msg = Msg::parse_line(&line)?;
        let decode = parse.elapsed();
        match msg {
            Msg::Accepted { .. } => accepted = Some(at),
            Msg::Progress { .. } => {
                progress_msgs += 1;
                progress = Some(progress.map_or((at, at), |(first, _)| (first, at)));
            }
            Msg::CampaignResult(result) => {
                if let Some(e) = result.error {
                    return Err(format!("campaign failed: {e}"));
                }
                if result.cancelled || result.report.is_none() {
                    return Err("result without a report".into());
                }
                return Ok(Submitted {
                    latency: at,
                    accepted: accepted.ok_or("result before accepted")?,
                    progress,
                    progress_msgs,
                    result_bytes: line.trim_end().len(),
                    decode,
                    result,
                });
            }
            Msg::Rejected { reason, .. } => return Err(format!("rejected: {reason}")),
            Msg::Recovering { .. } | Msg::Draining { .. } => {}
            other => return Err(format!("unexpected {:?}", other.tag())),
        }
    }
}
