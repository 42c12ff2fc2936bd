//! The traced mirror: a single-threaded copy of the campaign scan loop
//! (`run_programs` in `amulet_core::campaign`, as `Campaign::run` drives it
//! — one fresh runtime and RNG stream per instance) built only from public
//! calls, with a span around each call into a layer.
//!
//! `Detector::scan` hides two layers inside one call: contract traces and
//! the simulator. A replay pass splits it from outside: before each scan it
//! recomputes every input's contract trace on a separate scratch, and runs
//! every input on a shadow executor started from the real executor's
//! predictor state, timing both. What the scan spent beyond those two is
//! grouping and validation. Replay time is excluded from the pass's wall
//! time, and the replayed simulated cycles must equal the scan's.

use amulet_contracts::{LeakageModel, ModelScratch};
use amulet_core::{
    boosted_inputs_into, classify, CampaignConfig, Detector, Executor, ExecutorConfig, Generator,
    ScanStats,
};
use amulet_sim::UarchContext;
use amulet_util::Xoshiro256;
use std::hint::black_box;
use std::time::Instant;

/// How much a pass records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No spans: the reference for the tracing overhead.
    Plain,
    /// Spans around every layer call.
    Spans,
    /// Spans plus the contract-trace and simulator replays that split the
    /// scan.
    Replay,
}

/// The top-level layer spans; together they should cover the pass.
pub const LAYERS: [&str; 4] = ["generator", "inputs", "detect", "analyze"];

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer (`generator`, `inputs`, `detect`, `analyze`) or replay
    /// (`replay`, with children `contracts` and `executor`).
    pub name: &'static str,
    /// The program the call worked on; the spans of one program share it.
    pub program: u32,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the pass began.
    pub end_ns: u64,
}

/// What one pass did and how long it took.
#[derive(Debug, Default)]
pub struct Pass {
    /// Detector counters, which must equal `Campaign::run`'s.
    pub stats: ScanStats,
    /// Wall time of the pass without replays, seconds.
    pub wall_s: f64,
    /// Spans, in order (empty for [`Mode::Plain`]).
    pub spans: Vec<Span>,
    /// Programs generated.
    pub programs: u64,
    /// Inputs generated.
    pub inputs: u64,
    /// Violations kept by the filter and classified.
    pub classified: u64,
    /// Simulated cycles of the shadow executor's replay.
    pub replay_cycles: u64,
}

impl Pass {
    /// Total seconds of the spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }
}

/// The executor configuration a campaign worker builds (`executor_for` in
/// `amulet_core::campaign`).
fn executor_config(cfg: &CampaignConfig) -> ExecutorConfig {
    ExecutorConfig {
        mode: cfg.mode,
        defense: cfg.defense,
        format: cfg.format,
        include_l1i: cfg.include_l1i,
        sim: cfg.sim.clone(),
        keep_sandbox: false,
        log_hot_path: cfg.log_hot_path,
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn push(&mut self, name: &'static str, program: u32, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            program,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    fn time<T>(&mut self, name: &'static str, program: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.push(name, program, start, Instant::now());
        out
    }
}

/// Runs every instance of `cfg` on this thread.
pub fn run(cfg: &CampaignConfig, mode: Mode) -> Pass {
    let mut rec = Recorder {
        on: mode != Mode::Plain,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let model = LeakageModel::new(cfg.contract);
    let mut pass = Pass::default();
    let mut shadow = (mode == Mode::Replay).then(|| Executor::new(executor_config(cfg)));
    let mut replay_scratch = ModelScratch::new();
    let mut replay_ctx = UarchContext::default();
    let mut program = 0u32;
    for instance in 0..cfg.instances {
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed.wrapping_add(instance as u64));
        let mut generator = Generator::new(cfg.generator.clone(), rng.next_u64());
        let mut detector = Detector::new(model.clone());
        detector.skip_singletons = cfg.skip_singletons;
        let mut executor = Executor::new(executor_config(cfg));
        let mut boost = ModelScratch::new();
        let mut inputs = Vec::new();
        for _ in 0..cfg.programs_per_instance {
            program += 1;
            let (prog, flat) = rec.time("generator", program, || {
                let prog = generator.program();
                let flat = prog.flatten_shared();
                (prog, flat)
            });
            rec.time("inputs", program, || {
                boosted_inputs_into(
                    &model,
                    &flat,
                    &cfg.inputs,
                    &mut rng,
                    &mut boost,
                    &mut inputs,
                )
            });
            if let Some(shadow) = shadow.as_mut() {
                let t0 = Instant::now();
                shadow.simulator_mut().set_context(&executor.context());
                let t1 = Instant::now();
                for input in &inputs {
                    black_box(model.ctrace_with(&flat, input, &mut replay_scratch));
                }
                let t2 = Instant::now();
                for input in &inputs {
                    let run = shadow.run_case_ctx(&flat, input, &mut replay_ctx);
                    pass.replay_cycles += run.result.cycles;
                }
                let t3 = Instant::now();
                rec.push("replay", program, t0, t3);
                rec.push("contracts", program, t1, t2);
                rec.push("executor", program, t2, t3);
            }
            let (violations, stats) = rec.time("detect", program, || {
                detector.scan(&prog, &flat, &inputs, &mut executor)
            });
            pass.stats.merge(&stats);
            pass.programs += 1;
            pass.inputs += inputs.len() as u64;
            let kept = rec.time("analyze", program, || {
                let mut kept = 0;
                for v in violations.iter().filter(|v| cfg.filter.keep(v)) {
                    black_box(classify(v));
                    kept += 1;
                }
                kept
            });
            pass.classified += kept as u64;
            if cfg.stop_on_first && kept > 0 {
                break;
            }
        }
    }
    let elapsed = rec.origin.elapsed().as_secs_f64();
    pass.spans = rec.spans;
    pass.wall_s = elapsed - pass.busy_s("replay");
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Path, WORKLOADS};
    use amulet_core::Campaign;

    /// The mirror must stay the scan loop `Campaign::run` runs: equal
    /// counters on every campaign configuration the benchmark times, in
    /// every mode, and a replay that reproduces the scan's simulated
    /// cycles.
    #[test]
    fn mirror_matches_campaign_run_on_every_campaign_config() {
        for w in WORKLOADS.iter().filter(|w| w.path == Path::Campaign) {
            let mut cfg = w.config(11, w.smoke_scale);
            cfg.instances = cfg.instances.min(2);
            cfg.programs_per_instance = cfg.programs_per_instance.min(6);
            let reference = Campaign::new(cfg.clone()).run().stats;
            for mode in [Mode::Plain, Mode::Spans, Mode::Replay] {
                let pass = run(&cfg, mode);
                assert_eq!(pass.stats, reference, "{} in {mode:?}", w.name);
            }
            let replay = run(&cfg, Mode::Replay);
            assert_eq!(replay.replay_cycles, reference.sim_cycles, "{}", w.name);
            assert!(replay.busy_s("contracts") > 0.0 && replay.busy_s("executor") > 0.0);
        }
    }
}
