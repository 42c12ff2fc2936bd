//! `amulet-bench` — one seeded command that measures AMuLeT's campaign
//! and daemon paths end to end, plus a traced per-layer split that also
//! times the fleet path.
//! `BENCHMARK.md` next to this package describes the workloads, metrics
//! and how to read them.

mod e2e;
mod manifest;
mod mirror;
mod paths;
mod proc;
mod results;
mod stats;
mod trace;
mod workloads;

use amulet_cli::Args;
use e2e::RunCtx;
use manifest::manifest;
use results::Results;
use std::path::PathBuf;
use workloads::{workload, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
amulet-bench — end-to-end and per-layer benchmark of the amulet paths

USAGE:
    amulet-bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--smoke] [--out PATH]
    amulet-bench compare PARENT.json CHANGE.json
    amulet-bench compare PARENT.json... -- CHANGE.json...

RUN:
    --workload NAME   One workload (default: all, in manifest order)
    --seed N          Workload seed; every input derives from it (default 2025)
    --seconds S       Timed length per workload (default 28; 1 with --smoke)
    --trace 1         Traced run: per-layer metrics instead of end-to-end ones
    --smoke           Tiny shapes with their own pins, for a quick check
    --out PATH        Results JSON (default target/bench/results-….json)
    The last stdout line is one JSON object: correct, attempted, failed and,
    for a single workload, every metric's value and unit.

COMPARE:
    One row per workload × end-to-end metric: both medians and quartiles,
    the bound from BENCHMARK.json, and a verdict (better, within bound,
    worse, or unresolved when a spread is wider than the bound). With one
    file a side, the samples are that run's; with several, each run's
    reported value is one sample. Exits 1 when any row is worse.

The subcommands campaign, drive, worker and serve run `amulet` itself
(the benchmark times these as child processes).
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("campaign" | "drive" | "worker" | "serve") => {
            let code = amulet_cli::run(&argv);
            proc::report_own_peak();
            Ok(code)
        }
        Some("run") => cmd_run(Args::new(&argv[1..])),
        Some("compare") => cmd_compare(&argv[1..]),
        _ => {
            eprint!("{USAGE}");
            Ok(2)
        }
    };
    std::process::exit(result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    }));
}

fn repro(w: &Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> String {
    format!(
        "cargo run --release --manifest-path e2e-bench/Cargo.toml -- run --workload {} \
         --seed {seed} --seconds {seconds} --trace {}{}",
        w.name,
        u8::from(trace),
        if smoke { " --smoke" } else { "" }
    )
}

/// `amulet-bench run`.
fn cmd_run(mut args: Args) -> Result<i32, String> {
    let only = args.value("--workload")?;
    let seed = args.parsed::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let smoke = args.flag("--smoke");
    let seconds = args
        .parsed::<f64>("--seconds")?
        .unwrap_or(if smoke { 1.0 } else { 28.0 });
    let trace = match args.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let out = args.value("--out")?;
    args.finish()?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds expects a positive number".into());
    }
    let chosen: Vec<&Workload> = match &only {
        Some(name) => vec![workload(name).ok_or_else(|| {
            format!(
                "unknown workload {name:?}; one of: {}",
                manifest().workloads.join(", ")
            )
        })?],
        None => WORKLOADS.iter().collect(),
    };

    let root = PathBuf::from("target/bench");
    let mut results = Results {
        seed,
        trace,
        smoke,
        seconds,
        outcomes: Vec::new(),
    };
    for w in chosen {
        let dir = root.join(format!("{}-{}", w.name, std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let ctx = RunCtx {
            seed,
            seconds,
            smoke,
            dir: dir.clone(),
        };
        let mut outcome = if trace {
            trace::run(w, &ctx)
        } else {
            e2e::run(w, &ctx)
        };
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = outcome.check_complete(trace) {
            outcome.fail(e);
        }
        print!("{}", outcome.table());
        for problem in &outcome.problems {
            eprintln!("{}: {problem}", w.name);
        }
        if !outcome.problems.is_empty() {
            eprintln!("repro: {}", repro(w, seed, seconds, trace, smoke));
        }
        results.outcomes.push(outcome);
    }

    let path = out.unwrap_or_else(|| {
        let mut name = String::from("results");
        if let Some(w) = &only {
            name += &format!("-{w}");
        }
        name += &format!("-seed{seed}");
        if trace {
            name += "-trace";
        }
        if smoke {
            name += "-smoke";
        }
        root.join(name + ".json").display().to_string()
    });
    std::fs::write(&path, results.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let ok = results.outcomes.iter().all(|o| o.correct && o.failed == 0);
    match &results.outcomes[..] {
        [single] if only.is_some() => println!("{}", single.summary_line()),
        _ => println!("{}", results.summary_line(&path)),
    }
    Ok(if ok { 0 } else { 1 })
}

/// One side of `compare`: the results files of one commit.
fn load_side(paths: &[String]) -> Result<Vec<Results>, String> {
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {p}: {e}"))
                .and_then(|t| Results::parse(&t))
        })
        .collect()
}

/// The samples one side has of `metric` on `workload`: with one file, that
/// run's samples; with several, each run's reported value.
fn side_samples(side: &[Results], workload: &str, metric: &str) -> Option<Vec<f64>> {
    let found: Vec<&results::Metric> = side
        .iter()
        .filter_map(|r| r.outcomes.iter().find(|o| o.workload == workload))
        .filter_map(|o| o.metrics.iter().find(|m| m.name == metric))
        .collect();
    match found[..] {
        [] => None,
        [one] => Some(one.samples.clone()),
        _ => Some(found.iter().map(|m| m.value()).collect()),
    }
}

/// `amulet-bench compare`.
fn cmd_compare(argv: &[String]) -> Result<i32, String> {
    let (parent, change) = match argv.iter().position(|a| a == "--") {
        Some(i) => (&argv[..i], &argv[i + 1..]),
        None if argv.len() == 2 => (&argv[..1], &argv[1..]),
        None => (&argv[..0], &argv[..0]),
    };
    if parent.is_empty() || change.is_empty() {
        return Err(format!(
            "compare expects results files on both sides\n\n{USAGE}"
        ));
    }
    let (a, b) = (load_side(parent)?, load_side(change)?);
    println!(
        "{:<14} {:<16} {:>6}  {:<34} {:<34} verdict",
        "workload", "metric", "bound", "parent median [q1, q3]", "change median [q1, q3]"
    );
    let cell = |samples: &[f64]| {
        let (q1, q3) = stats::quartiles(samples);
        format!("{:.6} [{q1:.6}, {q3:.6}]", stats::median(samples))
    };
    let mut worse = false;
    for workload in &manifest().workloads {
        for spec in &manifest().end_to_end {
            let (Some(pa), Some(pb), Some(bound)) = (
                side_samples(&a, workload, &spec.name),
                side_samples(&b, workload, &spec.name),
                spec.bound,
            ) else {
                continue;
            };
            let v = stats::verdict(&pa, &pb, spec.higher_is_better, bound);
            worse |= v == stats::Verdict::Worse;
            println!(
                "{:<14} {:<16} {:>5.0}%  {:<34} {:<34} {}",
                workload,
                spec.name,
                bound * 100.0,
                cell(&pa),
                cell(&pb),
                v.word()
            );
        }
    }
    Ok(if worse { 1 } else { 0 })
}
