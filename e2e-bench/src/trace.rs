//! Traced runs: the per-layer metrics of one workload, timed from outside
//! around public calls.
//!
//! The first half of the run measures the campaign pipeline's layers with
//! the [`mirror`](crate::mirror) on the workload's traced shape. The second
//! half sends the same campaign through every user path — in process, the
//! `campaign` CLI, `drive --procs 2`, and `serve` + `submit` (a miss, then
//! a cache hit) — so each path's overhead falls out as a subtraction, and
//! the wire, journal and corpus layers are measured where that work
//! happens. Every path must report the same fingerprint.

use crate::e2e::{ms, RunCtx};
use crate::mirror::{self, Mode, Pass, LAYERS};
use crate::paths::{campaign_argv, drive_argv, run_cli, submit, Daemon, Report};
use crate::results::Outcome;
use crate::workloads::{shard, Workload};
use amulet_core::proto::Msg;
use amulet_core::Campaign;
use amulet_util::JsonObj;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Mirror rounds (plain, spans and replay pass each) per run, at least.
const MIN_ROUNDS: usize = 2;
/// Path probes per run, at least.
const MIN_PROBES: u64 = 2;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs one workload traced.
pub fn run(w: &Workload, ctx: &RunCtx) -> Outcome {
    let mut out = Outcome::new(w.name);
    let half = ctx.seconds / 2.0;
    pipeline(w, ctx, half, &mut out);
    paths(w, ctx, half, &mut out);
    out
}

/// The campaign pipeline's layers, from mirror passes.
fn pipeline(w: &Workload, ctx: &RunCtx, seconds: f64, out: &mut Outcome) {
    let cfg = w.config(ctx.seed, w.run_scale(ctx.smoke));
    let reference = Campaign::new(cfg.clone()).run().stats;
    let (mut overhead, mut replays) = (Vec::new(), Vec::<Pass>::new());
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        // Alternate which of the two compared passes runs first.
        let order = if round % 2 == 0 {
            [Mode::Plain, Mode::Spans, Mode::Replay]
        } else {
            [Mode::Spans, Mode::Plain, Mode::Replay]
        };
        let mut walls = [0.0; 2];
        for mode in order {
            out.attempted += 1;
            let pass = mirror::run(&cfg, mode);
            if pass.stats != reference {
                out.mismatch(format!(
                    "mirror {mode:?} pass counted {:?}, Campaign::run {reference:?}",
                    pass.stats
                ));
            }
            match mode {
                Mode::Plain => walls[0] = pass.wall_s,
                Mode::Spans => walls[1] = pass.wall_s,
                Mode::Replay => {
                    if pass.replay_cycles != reference.sim_cycles {
                        out.mismatch(format!(
                            "replay simulated {} cycles, the scan {}",
                            pass.replay_cycles, reference.sim_cycles
                        ));
                    }
                    replays.push(pass);
                }
            }
        }
        overhead.push(walls[1] / walls[0] - 1.0);
        round += 1;
    }
    if let Err(e) = write_spans(w, ctx, &replays) {
        out.fail(e);
    }

    let per = |f: &dyn Fn(&Pass) -> f64| replays.iter().map(f).collect::<Vec<f64>>();
    let count = |n: usize| vec![n as f64];
    let s = reference;
    out.metric("generator.busy_s", per(&|p| p.busy_s("generator")));
    out.metric("generator.programs", per(&|p| p.programs as f64));
    out.metric("inputs.busy_s", per(&|p| p.busy_s("inputs")));
    out.metric("inputs.inputs", per(&|p| p.inputs as f64));
    out.metric("contracts.busy_s", per(&|p| p.busy_s("contracts")));
    out.metric("contracts.classes", count(s.classes));
    out.metric("executor.busy_s", per(&|p| p.busy_s("executor")));
    out.metric("executor.cases", count(s.cases));
    out.metric("executor.sim_cycles", vec![s.sim_cycles as f64]);
    out.metric(
        "executor.warp_ratio",
        vec![s.warped_cycles as f64 / s.sim_cycles.max(1) as f64],
    );
    out.metric(
        "executor.sim_cycles_per_s",
        per(&|p| p.replay_cycles as f64 / p.busy_s("executor")),
    );
    out.metric("detect.busy_s", per(&|p| p.busy_s("detect")));
    out.metric(
        "detect.validate_s",
        per(&|p| p.busy_s("detect") - p.busy_s("contracts") - p.busy_s("executor")),
    );
    out.metric("detect.candidates", count(s.candidates));
    out.metric("detect.validation_runs", count(s.validation_runs));
    out.metric("detect.confirmed", count(s.confirmed));
    out.metric(
        "detect.confirm_ratio",
        vec![s.confirmed as f64 / s.candidates.max(1) as f64],
    );
    out.metric("analyze.busy_s", per(&|p| p.busy_s("analyze")));
    out.metric("analyze.classified", per(&|p| p.classified as f64));
    out.metric("trace.overhead_ratio", overhead);
    out.metric(
        "trace.coverage",
        per(&|p| LAYERS.iter().map(|l| p.busy_s(l)).sum::<f64>() / p.wall_s),
    );
}

/// Writes the replay passes' spans as JSONL next to the run's directory.
fn write_spans(w: &Workload, ctx: &RunCtx, passes: &[Pass]) -> Result<(), String> {
    let path = ctx
        .dir
        .parent()
        .expect("run directories live under the bench directory")
        .join(format!("trace-{}.jsonl", w.name));
    let mut text = String::new();
    for (i, pass) in passes.iter().enumerate() {
        for s in &pass.spans {
            text += &JsonObj::new()
                .int("pass", i as u64)
                .int("program", u64::from(s.program))
                .str("name", s.name)
                .num("start_us", s.start_ns as f64 / 1e3)
                .num("end_us", s.end_ns as f64 / 1e3)
                .finish();
            text.push('\n');
        }
    }
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Samples from the path probes.
#[derive(Default)]
struct Probes {
    shard_ms: Vec<f64>,
    cli_overhead_ms: Vec<f64>,
    drive_overhead_ms: Vec<f64>,
    drive_overhead_per_batch_ms: Vec<f64>,
    batches: Vec<f64>,
    fragment_bytes: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    service_overhead_ms: Vec<f64>,
    accept_ms: Vec<f64>,
    first_progress_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    progress_msgs: Vec<f64>,
    hit_ms: Vec<f64>,
    result_bytes: Vec<f64>,
    result_decode_us: Vec<f64>,
}

/// The same campaign through every path, probe after probe. Each probe
/// uses its own seed, and each path's overhead is taken within the probe
/// (against the path it adds to), so seed-to-seed differences cancel.
fn paths(w: &Workload, ctx: &RunCtx, seconds: f64, out: &mut Outcome) {
    let scale = w.run_scale(ctx.smoke);
    out.attempted += 1;
    let daemon = match Daemon::start(&ctx.dir) {
        Ok(d) => d,
        Err(e) => return out.fail(e),
    };
    let (events, fragments) = (
        ctx.dir.join("events.jsonl"),
        ctx.dir.join("fragments.jsonl"),
    );
    let mut p = Probes::default();
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_PROBES || start.elapsed().as_secs_f64() < seconds {
        let seed = ctx.seed.wrapping_add(k);
        k += 1;
        out.attempted += 5;
        let t0 = Instant::now();
        let want = Report::of(&Campaign::new(w.config(seed, scale)).run_sharded(shard()));
        let shard_ms = ms(t0.elapsed());
        p.shard_ms.push(shard_ms);
        let check = |out: &mut Outcome, path: &str, got: Report| {
            if got != want {
                out.mismatch(format!(
                    "{path} at seed {seed} reported {got:x?}, in-process {want:x?}"
                ));
            }
        };

        let cli_ms = match run_cli(&campaign_argv(w, seed, scale), &ctx.dir, None) {
            Err(e) => {
                out.fail(e);
                None
            }
            Ok(run) => {
                check(out, "campaign", run.report);
                p.cli_overhead_ms.push(ms(run.wall) - shard_ms);
                Some(ms(run.wall))
            }
        };

        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_file(&fragments);
        let argv = drive_argv(w, seed, scale, &events, Some(&fragments));
        match run_cli(&argv, &ctx.dir, Some(&events)) {
            Err(e) => out.fail(e),
            Ok(run) => {
                check(out, "drive", run.report);
                let tee = std::fs::read_to_string(&fragments).unwrap_or_default();
                let (mut encode, mut decode, mut lines) = (0.0, 0.0, 0.0);
                for line in tee.lines() {
                    let t0 = Instant::now();
                    let msg = Msg::parse_line(line);
                    let t1 = Instant::now();
                    let again = msg.as_ref().map(Msg::to_line);
                    encode += us(t1.elapsed());
                    decode += us(t1 - t0);
                    lines += 1.0;
                    if again.as_deref() != Ok(line) {
                        out.mismatch(format!("fragment line does not round-trip: {line}"));
                    }
                }
                if let Some(cli_ms) = cli_ms {
                    let overhead = ms(run.wall) - cli_ms;
                    p.drive_overhead_ms.push(overhead);
                    p.drive_overhead_per_batch_ms.push(overhead / lines);
                }
                p.batches.push(lines);
                p.fragment_bytes.push(tee.len() as f64);
                p.encode_us.push(encode / lines);
                p.decode_us.push(decode / lines);
            }
        }

        let spec = w.spec(seed, scale);
        match submit(daemon.addr, &spec) {
            Err(e) => out.fail(format!("submit: {e}")),
            Ok(s) => {
                check(out, "serve", Report::of_wire(s.report()));
                p.service_overhead_ms.push(ms(s.latency) - shard_ms);
                p.accept_ms.push(ms(s.accepted));
                if let Some((first, last)) = s.progress {
                    p.first_progress_ms.push(ms(first));
                    p.tail_ms.push(ms(s.latency - last));
                }
                p.progress_msgs.push(s.progress_msgs as f64);
                p.result_bytes.push(s.result_bytes as f64);
                p.result_decode_us.push(us(s.decode));
            }
        }
        match submit(daemon.addr, &spec) {
            Err(e) => out.fail(format!("resubmit: {e}")),
            Ok(s) => {
                check(out, "serve cache", Report::of_wire(s.report()));
                if !s.result.cached {
                    out.mismatch(format!("resubmit of seed {seed} missed the cache"));
                }
                p.hit_ms.push(ms(s.latency));
            }
        }
    }
    let (state_dir, corpus) = (daemon.state_dir.clone(), daemon.corpus.clone());
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }
    let size = |path: &std::path::Path| std::fs::metadata(path).map_or(0, |m| m.len()) as f64;
    let per_probe = |x: f64| vec![x / k as f64];
    let corpus_records = std::fs::read_to_string(&corpus).map_or(0, |t| t.lines().count());

    out.metric("shard.wall_ms", p.shard_ms);
    out.metric("cli.overhead_ms", p.cli_overhead_ms);
    out.metric("drive.overhead_ms", p.drive_overhead_ms);
    out.metric("drive.overhead_ms_per_batch", p.drive_overhead_per_batch_ms);
    out.metric("drive.batches", p.batches);
    out.metric("proto.fragment_bytes", p.fragment_bytes);
    out.metric("proto.encode_us", p.encode_us);
    out.metric("proto.decode_us", p.decode_us);
    out.metric("service.overhead_ms", p.service_overhead_ms);
    out.metric("service.accept_ms", p.accept_ms);
    out.metric("service.first_progress_ms", p.first_progress_ms);
    out.metric("service.tail_ms", p.tail_ms);
    out.metric("service.progress_msgs", p.progress_msgs);
    out.metric("service.hit_ms", p.hit_ms);
    out.metric("proto.result_bytes", p.result_bytes);
    out.metric("proto.result_decode_us", p.result_decode_us);
    out.metric(
        "journal.cache_bytes",
        per_probe(size(&state_dir.join(amulet_core::journal::CACHE_FILE))),
    );
    out.metric("corpus.records", per_probe(corpus_records as f64));
    out.metric("corpus.bytes", per_probe(size(&corpus)));
}
