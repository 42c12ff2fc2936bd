//! Throughput trajectory bench — the number every perf PR is measured
//! against.
//!
//! Two measurements, both fixed-seed:
//!
//! 1. **Hot-path throughput** — the detector's per-case pipeline
//!    (quick-campaign shape, single instance: logging off, streaming
//!    digest, shared program).
//! 2. **Campaign cases/sec per defense** — a fixed-seed quick campaign per
//!    defense, the end-to-end number future PRs must not regress.
//!
//! Results are printed and appended as one machine-readable JSON line each
//! to `BENCH_throughput.json` at the workspace root (schema:
//! `{"bench":"throughput","kind":...,"name":...,"cases_per_sec":...}`).

use amulet_bench::{banner, env_usize};
use amulet_cli::{
    run_driver, serve_session, DriveConfig, FaultCounters, FaultPlan, FaultyLink, TcpLink,
};
use amulet_contracts::{ContractKind, LeakageModel, ModelScratch};
use amulet_core::{
    boosted_inputs, boosted_inputs_and_classes_into, minimize, Campaign, CampaignConfig, Detector,
    ExecMode, Executor, ExecutorConfig, Generator, GeneratorConfig, InputGenConfig, ShardConfig,
    SpecSource,
};
use amulet_defenses::DefenseKind;
use amulet_emu::Sandbox;
use amulet_isa::{MemImage, SeededImage, TestInput, LINE_SIZE, PAGE_SIZE};
use amulet_util::{EventLog, Xoshiro256};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Measures per-case throughput of the hot path over a fixed-seed
/// quick-campaign workload. Program/input generation is untimed — this
/// isolates the per-test-case pipeline. Returns (cases, median secs) over
/// five passes.
fn per_case_throughput(programs: usize) -> (usize, f64) {
    let model = LeakageModel::new(ContractKind::CtSeq);
    let mut generator = Generator::new(GeneratorConfig::default(), 11);
    let mut rng = Xoshiro256::seed_from_u64(12);
    let input_cfg = InputGenConfig {
        base_inputs: 4,
        mutations: 6,
        pages: 1,
    };
    let workload: Vec<_> = (0..programs)
        .map(|_| {
            let program = generator.program();
            let flat = program.flatten_shared();
            let inputs = boosted_inputs(&model, &flat, &input_cfg, &mut rng);
            (flat, inputs)
        })
        .collect();

    // Median of 5 passes — single-shot timing is too noisy on shared
    // machines.
    let cases = workload.iter().map(|(_, inputs)| inputs.len()).sum();
    let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        for (flat, inputs) in &workload {
            for input in inputs {
                black_box(executor.run_case(flat, input));
            }
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    (cases, samples[2])
}

/// The full detector workload (scan + validation) at the quick-campaign
/// shape — the number that includes contract traces and validation re-runs.
fn detector_workload(programs: usize) -> (usize, f64, usize) {
    let model = LeakageModel::new(ContractKind::CtSeq);
    let mut detector = Detector::new(model.clone());
    let mut generator = Generator::new(GeneratorConfig::default(), 11);
    let mut rng = Xoshiro256::seed_from_u64(12);
    let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
    let input_cfg = InputGenConfig {
        base_inputs: 4,
        mutations: 6,
        pages: 1,
    };
    let mut cases = 0usize;
    let mut confirmed = 0usize;
    let t0 = Instant::now();
    for _ in 0..programs {
        let program = generator.program();
        let flat = program.flatten_shared();
        let inputs = boosted_inputs(&model, &flat, &input_cfg, &mut rng);
        let (violations, stats) = detector.scan(&program, &flat, &inputs, &mut executor);
        cases += stats.cases;
        confirmed += violations.len();
    }
    (cases, t0.elapsed().as_secs_f64(), confirmed)
}

/// Event-driven cycle scheduler bench: identical fixed-seed per-case
/// workloads run through the warped cycle loop and the stepped one
/// (`SimConfig::cycle_skip` off). Reports cases/sec, simulated cycles/sec,
/// and the warp ratio per arm — simulated cycles are bit-identical across
/// arms by construction (the differential tests enforce it), so the
/// cases/sec gap is pure scheduler win. Median of 5 passes, and the pass
/// rates at the quartiles, so each row shows its own spread.
///
/// Two workloads: the quick-campaign shape under Baseline × CT-SEQ (rows
/// `warped`/`stepped`), and DelayAll × CT-SEQ under the STL source with
/// paper-scaled inputs (10 base inputs × 13 mutations; rows
/// `stl_delayall_warped`/`stl_delayall_stepped`), where the simulator's
/// store-disambiguation path dominates. A pre/post pair of a simulator
/// change must report the same `sim_cycles`.
fn cycle_loop_bench(json: &mut String, programs: usize) {
    let quick = CampaignConfig {
        generator: GeneratorConfig::default(),
        inputs: InputGenConfig {
            base_inputs: 4,
            mutations: 6,
            pages: 1,
        },
        ..CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq)
    };
    cycle_loop_arm(json, "", &quick, programs, 11);
    let mut stl = CampaignConfig::quick(DefenseKind::DelayAll, ContractKind::CtSeq)
        .with_source(SpecSource::Stl);
    stl.inputs.base_inputs = 10;
    stl.inputs.mutations = 13;
    cycle_loop_arm(json, "stl_delayall_", &stl, (programs / 6).max(1), 31);
}

fn cycle_loop_arm(
    json: &mut String,
    prefix: &str,
    cfg: &CampaignConfig,
    programs: usize,
    seed: u64,
) {
    let model = LeakageModel::new(cfg.contract);
    let mut generator = Generator::new(cfg.generator.clone(), seed);
    let mut rng = Xoshiro256::seed_from_u64(seed + 1);
    let workload: Vec<_> = (0..programs)
        .map(|_| {
            let flat = generator.program().flatten_shared();
            let inputs = boosted_inputs(&model, &flat, &cfg.inputs, &mut rng);
            (flat, inputs)
        })
        .collect();
    let cases: usize = workload.iter().map(|(_, inputs)| inputs.len()).sum();
    for (arm, skip) in [("warped", true), ("stepped", false)] {
        let label = format!("{prefix}{arm}");
        let mut executor = Executor::new(ExecutorConfig {
            sim: cfg.sim.clone().with_cycle_skip(skip),
            ..ExecutorConfig::new(cfg.defense)
        });
        let mut samples = Vec::new();
        let mut sim_cycles = 0u64;
        let mut warped_cycles = 0u64;
        for _ in 0..5 {
            sim_cycles = 0;
            warped_cycles = 0;
            let t0 = Instant::now();
            for (flat, inputs) in &workload {
                for input in inputs {
                    let run = black_box(executor.run_case(flat, input));
                    sim_cycles += run.result.cycles;
                    warped_cycles += run.result.warped_cycles;
                }
            }
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        let secs = samples[2];
        let case_rate = cases as f64 / secs;
        let (q1, q3) = (cases as f64 / samples[3], cases as f64 / samples[1]);
        let cycle_rate = sim_cycles as f64 / secs;
        let warp_ratio = warped_cycles as f64 / sim_cycles.max(1) as f64;
        println!(
            "cycle loop ({label:>20}): {case_rate:>9.0} [{q1:.0}, {q3:.0}] cases/s  {cycle_rate:>11.0} sim-cycles/s  {sim_cycles} sim-cycles  warp ratio {warp_ratio:.3}"
        );
        let _ = writeln!(
            json,
            "{{\"bench\":\"throughput\",\"kind\":\"cycle_loop\",\"name\":\"{label}\",\"cases\":{cases},\"cases_per_sec\":{case_rate:.1},\"cases_per_sec_q1\":{q1:.1},\"cases_per_sec_q3\":{q3:.1},\"sim_cycles_per_sec\":{cycle_rate:.1},\"sim_cycles\":{sim_cycles},\"warp_ratio\":{warp_ratio:.4}}}"
        );
    }
}

/// Taint-engine microbench: `relevant_labels` calls/sec over a fixed-seed
/// workload of generated programs at 1/8/128 sandbox pages, under ARCH-SEQ
/// (the value-observing contract STT campaigns boost with — the worst case
/// for the taint engine, since every loaded value's taint reaches
/// `mark_relevant`). Median of 5 passes.
fn taint_microbench(json: &mut String) {
    for pages in [1usize, 8, 128] {
        let model = LeakageModel::new(ContractKind::ArchSeq);
        let mut generator = Generator::new(
            GeneratorConfig {
                pages,
                ..GeneratorConfig::default()
            },
            21,
        );
        let mut rng = Xoshiro256::seed_from_u64(22);
        let workload: Vec<_> = (0..8)
            .map(|_| {
                (
                    generator.program().flatten_shared(),
                    TestInput::random(&mut rng, pages),
                )
            })
            .collect();
        let reps = if pages >= 128 { 2 } else { 10 };
        let mut scratch = ModelScratch::new();
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..reps {
                for (flat, input) in &workload {
                    black_box(model.relevant_labels_with(flat, input, &mut scratch));
                }
            }
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        let calls = reps * workload.len();
        let rate = calls as f64 / samples[2];
        println!("taint relevant_labels ({pages:>3} pages): {rate:>9.0} calls/s");
        let _ = writeln!(
            json,
            "{{\"bench\":\"throughput\",\"kind\":\"taint\",\"name\":\"relevant_labels\",\"contract\":\"ARCH-SEQ\",\"pages\":{pages},\"calls_per_sec\":{rate:.1}}}"
        );
    }
}

/// The STT ARCH-SEQ per-case hot path (boosting + contract traces + µarch
/// scan on the 128-page sandbox) over a fixed-seed single-threaded workload
/// — the pipeline a sharded STT campaign worker runs, without orchestration.
fn stt_hot_path(json: &mut String, programs: usize) {
    let model = LeakageModel::new(ContractKind::ArchSeq);
    let mut detector = Detector::new(model.clone());
    let pages = DefenseKind::Stt.harness_hints().sandbox_pages;
    let mut generator = Generator::new(
        GeneratorConfig {
            pages,
            ..GeneratorConfig::default()
        },
        31,
    );
    let mut rng = Xoshiro256::seed_from_u64(32);
    let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Stt));
    let input_cfg = InputGenConfig {
        base_inputs: 4,
        mutations: 6,
        pages,
    };
    // The campaign worker loop: one boost scratch + recycled input and
    // class-digest slots across all programs, and contract-trace classes
    // taken from boosting (no per-input contract-trace emulation).
    let mut scratch = ModelScratch::new();
    let (mut inputs, mut classes) = (Vec::new(), Vec::new());
    let mut cases = 0usize;
    let t0 = Instant::now();
    for _ in 0..programs {
        let program = generator.program();
        let flat = program.flatten_shared();
        boosted_inputs_and_classes_into(
            &model,
            &flat,
            &input_cfg,
            &mut rng,
            &mut scratch,
            &mut inputs,
            &mut classes,
        );
        let (_, stats) = detector.scan_classes(&program, &flat, &inputs, &classes, &mut executor);
        cases += stats.cases;
    }
    let secs = t0.elapsed().as_secs_f64();
    let rate = cases as f64 / secs;
    println!("STT hot path: {cases} cases in {secs:.3}s = {rate:.0} cases/s");
    let _ = writeln!(
        json,
        "{{\"bench\":\"throughput\",\"kind\":\"stt_hot_path\",\"name\":\"STT\",\"contract\":\"ARCH-SEQ\",\"pages\":{pages},\"cases\":{cases},\"cases_per_sec\":{rate:.1}}}"
    );
}

/// Candidate validation: scans of one candidate pair each. The workload
/// (untimed) collects pairs of inputs that share a contract-trace class of
/// a fixed-seed program stream yet differ in their hot-path digests, with
/// the predictor state the first one started from; each timed scan
/// restores that state and runs the pair (two hot-path cases plus the
/// pair's validation). Reports candidates/s, Baseline × CT-SEQ and STT ×
/// ARCH-SEQ on the defenses' harness sandboxes, median of 5 passes.
fn validate_bench(json: &mut String) {
    for (defense, contract) in [
        (DefenseKind::Baseline, ContractKind::CtSeq),
        (DefenseKind::Stt, ContractKind::ArchSeq),
    ] {
        let model = LeakageModel::new(contract);
        let pages = defense.harness_hints().sandbox_pages;
        let mut generator = Generator::new(
            GeneratorConfig {
                pages,
                ..GeneratorConfig::default()
            },
            51,
        );
        let mut rng = Xoshiro256::seed_from_u64(52);
        let input_cfg = InputGenConfig {
            base_inputs: 4,
            mutations: 6,
            pages,
        };
        let mut scratch = ModelScratch::new();
        let mut detector = Detector::new(model.clone());
        let mut executor = Executor::new(ExecutorConfig::new(defense));
        let (mut inputs, mut classes) = (Vec::new(), Vec::new());
        let mut ctxs = Vec::new();
        let mut pairs = Vec::new();
        for _ in 0..2_000 {
            if pairs.len() >= 24 {
                break;
            }
            let program = generator.program();
            let flat = program.flatten_shared();
            boosted_inputs_and_classes_into(
                &model,
                &flat,
                &input_cfg,
                &mut rng,
                &mut scratch,
                &mut inputs,
                &mut classes,
            );
            ctxs.resize_with(inputs.len(), Default::default);
            let digests: Vec<u64> = inputs
                .iter()
                .zip(&mut ctxs)
                .map(|(input, ctx)| executor.run_case_ctx(&flat, input, ctx).digest)
                .collect();
            let Some((a, b)) = (0..inputs.len())
                .flat_map(|a| (a + 1..inputs.len()).map(move |b| (a, b)))
                .find(|&(a, b)| classes[a] == classes[b] && digests[a] != digests[b])
            else {
                continue;
            };
            let pair = [inputs[a].clone(), inputs[b].clone()];
            executor.simulator_mut().set_context(&ctxs[a]);
            let (_, stats) = detector.scan_classes(&program, &flat, &pair, &[0, 0], &mut executor);
            if stats.candidates == 1 {
                pairs.push((program, flat, pair, ctxs[a].clone()));
            }
        }
        let (mut confirmed, mut runs) = (0, 0);
        let mut samples = Vec::new();
        for _ in 0..5 {
            (confirmed, runs) = (0, 0);
            let t0 = Instant::now();
            for (program, flat, pair, ctx) in &pairs {
                executor.simulator_mut().set_context(ctx);
                let (_, stats) = detector.scan_classes(program, flat, pair, &[0, 0], &mut executor);
                confirmed += stats.confirmed;
                runs += stats.validation_runs;
            }
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        let candidates = pairs.len();
        let rate = candidates as f64 / samples[2];
        let name = defense.name();
        println!(
            "validate {name:<10}: {candidates} candidates ({confirmed} confirmed, {runs} validation runs) = {rate:.0} candidates/s"
        );
        let _ = writeln!(
            json,
            "{{\"bench\":\"throughput\",\"kind\":\"validate\",\"name\":\"{name}\",\"contract\":\"{}\",\"pages\":{pages},\"candidates\":{candidates},\"confirmed\":{confirmed},\"validation_runs\":{runs},\"candidates_per_sec\":{rate:.1}}}",
            contract.name()
        );
    }
}

/// Sandbox line draws at the `stt_taint` mix: a load of a seeded image
/// (8 or 128 pages; 128 is the STT harness sandbox) draws 3.5 lines on
/// average, one per page (3.4–3.6 lines per drawing load and 1.02 lines per
/// page measured on that campaign). So each load here is followed by first
/// reads of one random line in each of 3 or 4 distinct random pages,
/// alternately; the first draw of a load also walks the image's basis.
/// Reports draws/s, median of 5 passes.
fn line_draw_bench(json: &mut String) {
    const LINES: u64 = (PAGE_SIZE / LINE_SIZE) as u64;
    let mut rng = Xoshiro256::seed_from_u64(61);
    for pages in [8usize, 128] {
        let images: Vec<MemImage> = (0..32)
            .map(|_| MemImage::Seeded(SeededImage::draw(&mut rng, pages * PAGE_SIZE)))
            .collect();
        let mut order: Vec<u64> = (0..pages as u64).collect();
        let mut reads: Vec<Vec<u64>> = Vec::new();
        for i in 0..images.len() {
            rng.shuffle(&mut order);
            let addrs = order[..3 + i % 2]
                .iter()
                .map(|&page| page * PAGE_SIZE as u64 + rng.range(0, LINES) * LINE_SIZE as u64 + 8)
                .collect();
            reads.push(addrs);
        }
        let mut sandbox = Sandbox::new(0, pages * PAGE_SIZE);
        let reps = 20;
        let mut samples = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..reps {
                for (image, addrs) in images.iter().zip(&reads) {
                    sandbox.load_image(image);
                    for &addr in addrs {
                        black_box(sandbox.read_u8(addr));
                    }
                }
            }
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        let draws = reps * reads.iter().map(Vec::len).sum::<usize>();
        let rate = draws as f64 / samples[2];
        println!("line_draw ({pages} pages, 3.5 lines/load): {rate:.0} draws/s");
        let _ = writeln!(
            json,
            "{{\"bench\":\"throughput\",\"kind\":\"line_draw\",\"name\":\"seeded_image\",\"pages\":{pages},\"lines_per_load\":3.5,\"draws\":{draws},\"draws_per_sec\":{rate:.1}}}"
        );
    }
}

/// The violation minimiser (the per-batch corpus pass of a corpus-backed
/// `amulet serve`): every confirmed violation of one fixed-seed quick
/// Baseline × CT-SEQ campaign is minimised with the executor configuration
/// that found it. Reports
/// violations/sec and reduction attempts/sec, median of 5 passes.
fn minimize_bench(json: &mut String) {
    let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    let report = Campaign::new(cfg.clone()).run();
    let detector = Detector::new(LeakageModel::new(cfg.contract));
    let mut executor = Executor::new(ExecutorConfig {
        mode: cfg.mode,
        format: cfg.format,
        include_l1i: cfg.include_l1i,
        sim: cfg.sim.clone(),
        ..ExecutorConfig::new(cfg.defense)
    });
    let violations = report.violations.len();
    let mut attempts = 0usize;
    let mut samples = Vec::new();
    for _ in 0..5 {
        attempts = 0;
        let t0 = Instant::now();
        for (violation, _) in &report.violations {
            attempts += black_box(minimize(violation, &detector, &mut executor)).attempts;
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    let secs = samples[2];
    let (vrate, arate) = (violations as f64 / secs, attempts as f64 / secs);
    println!(
        "minimize: {violations} violations, {attempts} attempts in {secs:.3}s = {vrate:.1} violations/s, {arate:.0} attempts/s"
    );
    let _ = writeln!(
        json,
        "{{\"bench\":\"throughput\",\"kind\":\"minimize\",\"name\":\"Baseline\",\"contract\":\"CT-SEQ\",\"violations\":{violations},\"attempts\":{attempts},\"violations_per_sec\":{vrate:.1},\"attempts_per_sec\":{arate:.1}}}"
    );
}

/// The cross-host fleet overhead, measured: the full `amulet drive` driver
/// loop (handshake, heartbeat, batch round trips, reduction) over loopback
/// TCP workers, clean and under hostile seeded fault injection (drops,
/// truncations, severed links, delays — recovery re-runs batches, so this
/// arm prices the robustness ladder). Both arms must reduce to one
/// fingerprint; the workers are in-process accept loops standing in for
/// remote hosts, detached threads that die with the bench. Median of 3
/// runs per arm.
fn fleet_bench(json: &mut String) {
    let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    let workers = 2usize;
    let mut addrs = Vec::new();
    for _ in 0..workers {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().unwrap().to_string());
        let worker_cfg = cfg.clone();
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let reader = std::io::BufReader::new(clone);
                let _ = serve_session(&worker_cfg, reader, &stream, &EventLog::off());
            }
        });
    }
    // Deadlines sized for a bench: hostile drops resolve through timeouts,
    // and a spurious expiry is safe (it costs a retry, never the result).
    let drive = DriveConfig {
        procs: workers,
        liveness: std::time::Duration::from_millis(500),
        batch_timeout: std::time::Duration::from_secs(5),
        backoff_base: std::time::Duration::from_millis(1),
        backoff_max: std::time::Duration::from_millis(8),
        ..DriveConfig::default()
    };
    let addrs = std::sync::Arc::new(addrs);
    let mut fingerprints = Vec::new();
    for (label, hostile) in [("clean", false), ("hostile", true)] {
        let counters = Arc::new(FaultCounters::default());
        let mut samples = Vec::new();
        let mut cases = 0usize;
        for round in 0..3u64 {
            let connections = std::sync::atomic::AtomicUsize::new(0);
            let t0 = Instant::now();
            let report = if hostile {
                run_driver(
                    &cfg,
                    &drive,
                    |slot| {
                        // Fresh fault schedule per connection, or a
                        // first-send sever would repeat forever.
                        let n =
                            connections.fetch_add(1, std::sync::atomic::Ordering::SeqCst) as u64;
                        let plan = FaultPlan::hostile(
                            0xBE7C ^ (round << 32) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        let link = TcpLink::connect(&addrs[slot % addrs.len()], drive.liveness)?;
                        Ok(FaultyLink::new(link, plan, counters.clone()))
                    },
                    None,
                    &EventLog::off(),
                )
            } else {
                run_driver(
                    &cfg,
                    &drive,
                    |slot| TcpLink::connect(&addrs[slot % addrs.len()], drive.liveness),
                    None,
                    &EventLog::off(),
                )
            }
            .expect("fleet bench campaign");
            samples.push(t0.elapsed().as_secs_f64());
            cases = report.stats.cases;
            fingerprints.push(report.fingerprint());
        }
        samples.sort_by(f64::total_cmp);
        let rate = cases as f64 / samples[1];
        let injected = counters.total();
        println!(
            "fleet ({label:>7}): {workers} tcp workers  {rate:>9.0} cases/s  {injected} injected faults"
        );
        let _ = writeln!(
            json,
            "{{\"bench\":\"throughput\",\"kind\":\"fleet\",\"name\":\"{label}\",\"transport\":\"tcp-loopback\",\"workers\":{workers},\"injected_faults\":{injected},\"cases\":{cases},\"cases_per_sec\":{rate:.1}}}"
        );
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "fleet fingerprint moved across transports/faults: {fingerprints:?}"
    );
}

/// End-to-end quick-campaign throughput through `Campaign::run_sharded`
/// on `AMULET_WORKERS` slots (default: all hardware threads). Median of 3
/// runs.
fn sharded_campaign() -> (usize, ShardConfig, f64) {
    let workers = ShardConfig {
        workers: env_usize("AMULET_WORKERS", 0),
        ..ShardConfig::default()
    };
    let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    let mut samples = Vec::new();
    let mut cases = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = Campaign::new(cfg.clone()).run_sharded(workers);
        samples.push(t0.elapsed().as_secs_f64());
        cases = report.stats.cases;
    }
    samples.sort_by(f64::total_cmp);
    (cases, workers, cases as f64 / samples[1])
}

fn main() {
    banner(
        "Throughput",
        "hot-path speedup + campaign cases/sec trajectory",
    );
    let mut json = String::new();
    let programs = env_usize("AMULET_PROGRAMS", 60);

    // 1. Per-case hot-path throughput at fixed seed.
    let (cases, hot_secs) = per_case_throughput(programs);
    let hot_rate = cases as f64 / hot_secs;
    println!("hot path:    {cases} cases in {hot_secs:.3}s = {hot_rate:.0} cases/s");
    let _ = writeln!(
        json,
        "{{\"bench\":\"throughput\",\"kind\":\"hot_path\",\"name\":\"baseline_ctseq\",\"cases_per_sec\":{hot_rate:.1}}}"
    );

    // 1a. Cycle-scheduler comparison (warped vs stepped loop), then the
    // taint-engine and STT hot-path trajectory lines.
    cycle_loop_bench(&mut json, programs);
    taint_microbench(&mut json);
    stt_hot_path(&mut json, env_usize("AMULET_STT_PROGRAMS", 6));
    validate_bench(&mut json);
    line_draw_bench(&mut json);
    minimize_bench(&mut json);

    // 1b. Full detector workload (scan + ctraces + validation re-runs).
    let (dcases, dsecs, confirmed) = detector_workload(programs);
    let drate = dcases as f64 / dsecs;
    println!(
        "detector workload: {dcases} cases in {dsecs:.3}s = {drate:.0} cases/s ({confirmed} violations)"
    );
    let _ = writeln!(
        json,
        "{{\"bench\":\"throughput\",\"kind\":\"detector\",\"name\":\"baseline_ctseq\",\"cases_per_sec\":{drate:.1},\"confirmed\":{confirmed}}}"
    );

    // 1c. The end-to-end sharded quick campaign.
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (scases, shard, sharded_rate) = sharded_campaign();
    let (workers, batch) = (shard.resolved_workers(), shard.batch_programs);
    println!(
        "sharded campaign: {scases} cases, {sharded_rate:.0} cases/s ({workers} workers, {host_threads} host threads)"
    );
    let _ = writeln!(
        json,
        "{{\"bench\":\"throughput\",\"kind\":\"sharded_campaign\",\"name\":\"Baseline\",\"contract\":\"CT-SEQ\",\"workers\":{workers},\"batch_programs\":{batch},\"host_threads\":{host_threads},\"cases\":{scases},\"cases_per_sec\":{sharded_rate:.1}}}"
    );

    // 1d. The cross-host fleet: the same campaign through real loopback TCP
    // links, clean and under hostile fault injection.
    fleet_bench(&mut json);

    // 2. Fixed-seed quick campaign per defense, with the warp win made
    // observable per defense (cycles/case is timing-model output and thus
    // scheduler-independent; the warp ratio says how much of it was
    // skipped). Median wall time of 3 runs per defense — single-shot
    // campaign timing is too noisy on shared 1-core machines for a
    // regression bar.
    println!(
        "\n{:<22} {:>9} {:>12} {:>12} {:>6} {:>10}",
        "Defense", "Cases", "Cases/sec", "Cycles/case", "Warp", "Violation"
    );
    for (defense, contract) in [
        (DefenseKind::Baseline, ContractKind::CtSeq),
        (DefenseKind::InvisiSpec, ContractKind::CtSeq),
        (DefenseKind::CleanupSpec, ContractKind::CtSeq),
        (DefenseKind::SpecLfb, ContractKind::CtSeq),
        (DefenseKind::Stt, ContractKind::ArchSeq),
    ] {
        let mut cfg = CampaignConfig::quick(defense, contract);
        cfg.mode = ExecMode::Opt;
        let mut rates = Vec::new();
        let mut report = Campaign::new(cfg.clone()).run();
        rates.push(report.throughput());
        for _ in 0..2 {
            let next = Campaign::new(cfg.clone()).run();
            rates.push(next.throughput());
            report = next;
        }
        rates.sort_by(f64::total_cmp);
        let rate = rates[1];
        println!(
            "{:<22} {:>9} {:>12.0} {:>12.0} {:>5.0}% {:>10}",
            defense.name(),
            report.stats.cases,
            rate,
            report.cycles_per_case(),
            100.0 * report.warp_ratio(),
            if report.violation_found() {
                "YES"
            } else {
                "no"
            },
        );
        let _ = writeln!(
            json,
            "{{\"bench\":\"throughput\",\"kind\":\"campaign\",\"name\":\"{}\",\"contract\":\"{}\",\"cases\":{},\"cases_per_sec\":{rate:.1},\"cycles_per_case\":{:.1},\"warp_ratio\":{:.4},\"violation\":{}}}",
            defense.name(),
            contract.name(),
            report.stats.cases,
            report.cycles_per_case(),
            report.warp_ratio(),
            report.violation_found(),
        );
    }

    // 3. The second speculation source: the same fixed-seed quick campaign
    // with store→load gadgets and the disambiguation window armed
    // (`with_source(Stl)`). One detecting defense, one missing one, plus
    // STT (which the window slips past). The PHT `campaign` rows above are
    // the same-shape comparison baseline: the STL stream trades branchy
    // control flow for aliasing store→load pairs, so its cases/sec is a
    // different — tracked, not compared — trajectory line.
    println!(
        "\n{:<22} {:>9} {:>12} {:>12} {:>6} {:>10}",
        "Defense (STL)", "Cases", "Cases/sec", "Cycles/case", "Warp", "Violation"
    );
    for (defense, contract) in [
        (DefenseKind::Baseline, ContractKind::CtSeq),
        (DefenseKind::Stt, ContractKind::CtSeq),
        (DefenseKind::DelayAll, ContractKind::CtSeq),
    ] {
        let mut cfg = CampaignConfig::quick(defense, contract).with_source(SpecSource::Stl);
        cfg.mode = ExecMode::Opt;
        let mut rates = Vec::new();
        let mut report = Campaign::new(cfg.clone()).run();
        rates.push(report.throughput());
        for _ in 0..2 {
            let next = Campaign::new(cfg.clone()).run();
            rates.push(next.throughput());
            report = next;
        }
        rates.sort_by(f64::total_cmp);
        let rate = rates[1];
        println!(
            "{:<22} {:>9} {:>12.0} {:>12.0} {:>5.0}% {:>10}",
            defense.name(),
            report.stats.cases,
            rate,
            report.cycles_per_case(),
            100.0 * report.warp_ratio(),
            if report.violation_found() {
                "YES"
            } else {
                "no"
            },
        );
        let _ = writeln!(
            json,
            "{{\"bench\":\"throughput\",\"kind\":\"stl_campaign\",\"name\":\"{}\",\"contract\":\"{}\",\"source\":\"STL\",\"cases\":{},\"cases_per_sec\":{rate:.1},\"cycles_per_case\":{:.1},\"warp_ratio\":{:.4},\"violation\":{}}}",
            defense.name(),
            contract.name(),
            report.stats.cases,
            report.cycles_per_case(),
            report.warp_ratio(),
            report.violation_found(),
        );
    }

    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_throughput.json"
        )) {
        Ok(mut f) => {
            let _ = f.write_all(json.as_bytes());
            println!("\nappended results to BENCH_throughput.json");
        }
        Err(e) => eprintln!("could not write BENCH_throughput.json: {e}"),
    }
}
