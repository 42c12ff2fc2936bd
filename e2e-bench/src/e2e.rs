//! Untraced runs: the end-to-end metrics of one workload, with every
//! output checked against an in-process reference of the same campaign.

use crate::paths::{campaign_argv, run_cli, submit, Daemon, Report, Submitted};
use crate::proc::pid_peak_kb;
use crate::results::Outcome;
use crate::workloads::{campaign_seed, shard, Path, Workload, CAMPAIGNS, WORKERS};
use amulet_core::proto::ReportWire;
use amulet_core::Campaign;
use amulet_util::mix64;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// How long the timed part runs.
    pub seconds: f64,
    /// Use the smoke shapes.
    pub smoke: bool,
    /// Scratch directory for this workload's files.
    pub dir: std::path::PathBuf,
}

/// Timed operations per run, however short `--seconds` is.
const MIN_OPS: u64 = 3;
/// Daemons started per serve run for the set-up time.
const SETUP_SPAWNS: usize = 21;
/// Every fourth submit repeats the client's previous campaign.
const HIT_EVERY: u64 = 4;
/// The daemon's peak RSS is read once this many submits completed, so it
/// does not grow with how many the host managed in the run.
const RSS_MARK: usize = 100;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one workload untraced.
pub fn run(w: &Workload, ctx: &RunCtx) -> Outcome {
    match w.path {
        Path::Campaign => processes(w, ctx),
        Path::Serve => serve(w, ctx),
    }
}

/// Checks the in-process reference against the workload's pin.
fn check_pin(out: &mut Outcome, w: &Workload, ctx: &RunCtx, reference: Report) {
    match w.pin_at(ctx.seed, ctx.smoke) {
        Some(pin) if pin != reference => out.mismatch(format!(
            "{} at seed {}: {reference:x?} differs from the pin {pin:x?}",
            w.name, ctx.seed
        )),
        _ => {}
    }
}

/// Campaign workloads: fresh `campaign` processes back to back, cycling
/// through the run's [`CAMPAIGNS`] campaigns.
fn processes(w: &Workload, ctx: &RunCtx) -> Outcome {
    let scale = w.run_scale(ctx.smoke);
    let mut out = Outcome::new(w.name);
    // The untimed in-process runs both warm the host up and are the
    // references every timed process must reproduce.
    let runs: Vec<(Vec<String>, Report)> = (0..CAMPAIGNS)
        .map(|k| {
            let seed = campaign_seed(ctx.seed, k);
            let reference = Report::of(&Campaign::new(w.config(seed, scale)).run_sharded(shard()));
            (campaign_argv(w, seed, scale), reference)
        })
        .collect();
    check_pin(&mut out, w, ctx, runs[0].1);

    let (mut rate, mut latency, mut peak, mut setup) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while out.attempted < MIN_OPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let (argv, reference) = &runs[out.attempted as usize % runs.len()];
        out.attempted += 1;
        match run_cli(argv, &ctx.dir, None) {
            Err(e) => out.fail(e),
            Ok(run) => {
                if run.report != *reference {
                    out.mismatch(format!(
                        "{} reported {:x?}, the in-process run {reference:x?}",
                        argv.join(" "),
                        run.report
                    ));
                }
                rate.push(run.report.cases as f64 / run.wall.as_secs_f64());
                latency.push(ms(run.wall));
                peak.extend(run.peak_kb.map(|kb| kb as f64 / 1024.0));
                setup.push(run.setup.as_secs_f64());
            }
        }
    }
    out.metric("cases_per_s", rate);
    out.metric("latency_ms", latency);
    out.metric("peak_rss_mb", peak);
    out.metric("setup_s", setup);
    out
}

/// The seed of client `client`'s `n`-th distinct campaign.
fn spec_seed(seed: u64, client: usize, n: u64) -> u64 {
    mix64(seed ^ mix64(((client as u64) << 32) | n))
}

/// One submit of the closed loop.
struct Sub {
    seed: u64,
    hit: bool,
    outcome: Result<Submitted, String>,
}

/// A closed loop: each client submits its next campaign only after the
/// previous result arrived, until the deadline. Every [`HIT_EVERY`]-th
/// submit repeats the client's previous campaign (a cache hit).
/// `completed` runs after every submit.
fn client_loop(
    w: &Workload,
    addr: SocketAddr,
    seed: u64,
    scale: f64,
    client: usize,
    deadline: Instant,
    completed: &(dyn Fn() + Sync),
) -> Vec<Sub> {
    let mut subs = Vec::new();
    let (mut distinct, mut prev) = (0, 0);
    for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let hit = k % HIT_EVERY == HIT_EVERY - 1;
        if !hit {
            prev = spec_seed(seed, client, distinct);
            distinct += 1;
        }
        subs.push(Sub {
            seed: prev,
            hit,
            outcome: submit(addr, &w.spec(prev, scale)),
        });
        completed();
    }
    subs
}

/// The serve workload: set-up timed over several daemon start-ups, then a
/// closed loop of [`WORKERS`] clients against the last one.
fn serve(w: &Workload, ctx: &RunCtx) -> Outcome {
    let scale = w.run_scale(ctx.smoke);
    let mut out = Outcome::new(w.name);
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_SPAWNS {
        out.attempted += 1;
        match Daemon::start(&ctx.dir) {
            Err(e) => out.fail(e),
            Ok(d) => {
                setup.push(d.setup.as_secs_f64());
                if i + 1 < SETUP_SPAWNS {
                    if let Err(e) = d.stop() {
                        out.fail(e);
                    }
                } else {
                    daemon = Some(d);
                }
            }
        }
    }
    let Some(daemon) = daemon else {
        return out;
    };

    // The first two campaigns of each client, run in process: the warm-up,
    // and the reference their served results must equal.
    let references: HashMap<u64, ReportWire> = (0..WORKERS)
        .flat_map(|c| (0..2).map(move |n| spec_seed(ctx.seed, c, n)))
        .map(|s| {
            let cfg = w.spec(s, scale).resolve().expect("workload specs resolve");
            let report = Campaign::new(cfg).run_sharded(shard());
            (s, ReportWire::from_report(&report))
        })
        .collect();

    let (addr, pid) = (daemon.addr, daemon.pid);
    let done = AtomicUsize::new(0);
    let peak_at_mark = Mutex::new(None);
    let completed = || {
        if done.fetch_add(1, Ordering::SeqCst) + 1 == RSS_MARK {
            *peak_at_mark.lock().expect("no thread panics holding it") = Some(pid_peak_kb(pid));
        }
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let subs: Vec<Sub> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..WORKERS)
            .map(|c| {
                let completed = &completed;
                scope.spawn(move || client_loop(w, addr, ctx.seed, scale, c, deadline, completed))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = start.elapsed();
    let peak_kb = peak_at_mark
        .into_inner()
        .expect("no thread panics holding it")
        .unwrap_or_else(|| pid_peak_kb(pid));
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }

    // Seeds differ between clients, so a seed names one client's campaign.
    let mut served: HashMap<u64, ReportWire> = HashMap::new();
    let (mut latency, mut cases) = (Vec::new(), 0u64);
    for sub in subs {
        out.attempted += 1;
        let s = match sub.outcome {
            Err(e) => {
                out.fail(format!("submit of seed {}: {e}", sub.seed));
                continue;
            }
            Ok(s) => s,
        };
        latency.push(ms(s.latency));
        cases += s.report().stats.cases as u64;
        if sub.hit {
            if !s.result.cached || served.get(&sub.seed) != Some(s.report()) {
                out.mismatch(format!(
                    "resubmit of seed {} was not the cached original result",
                    sub.seed
                ));
            }
        } else {
            if let Some(r) = references.get(&sub.seed) {
                if r != s.report() {
                    out.mismatch(format!(
                        "served seed {} reported {:x?}, in-process {:x?}",
                        sub.seed,
                        Report::of_wire(s.report()),
                        Report::of_wire(r)
                    ));
                }
            }
            let report = s.result.report.expect("results are checked for a report");
            served.insert(sub.seed, report);
        }
    }
    out.metric("cases_per_s", vec![cases as f64 / wall.as_secs_f64()]);
    out.metric("latency_ms", latency);
    out.metric("peak_rss_mb", vec![peak_kb as f64 / 1024.0]);
    out.metric("setup_s", setup);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_seeds_are_distinct_per_client_and_index() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..WORKERS {
            for n in 0..100 {
                assert!(seen.insert(spec_seed(2025, c, n)));
            }
        }
    }
}
