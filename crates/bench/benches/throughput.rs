//! Throughput trajectory bench — the number every perf PR is measured
//! against.
//!
//! Every arm runs a fixed-seed workload and times it through
//! [`amulet_bench::sample`]: [`PASSES`] passes, with the variants of one
//! workload alternating pass by pass. Every row is an
//! [`amulet_bench::Row`] carrying each rate at the median pass plus its
//! quartile passes (`<rate>_q1`/`<rate>_q3`). Rows are printed and
//! appended, one JSON line each, to `BENCH_throughput.json` at the
//! workspace root.

use amulet_bench::{env_usize, sample, sample_secs, Passes, Row, PASSES, TRAJECTORY};
use amulet_cli::{
    run_driver, serve_session, DriveConfig, FaultCounters, FaultPlan, FaultyLink, TcpLink,
};
use amulet_contracts::{ContractKind, LeakageModel, ModelScratch};
use amulet_core::proto::CampaignSpec;
use amulet_core::{
    boosted_inputs, boosted_inputs_and_classes_into, minimize, Campaign, CampaignConfig, Detector,
    Executor, ExecutorConfig, Generator, GeneratorConfig, ShardConfig, SpecSource,
};
use amulet_defenses::DefenseKind;
use amulet_emu::Sandbox;
use amulet_isa::{MemImage, SeededImage, SharedProgram, TestInput, LINE_SIZE, PAGE_SIZE};
use amulet_sim::{DigestKind, LogMode, SimConfig, SimResult, Simulator};
use amulet_util::{EventLog, Xoshiro256};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Programs in the quick per-case workload (seeds 11/12: 1,680 cases).
const PROGRAMS: usize = 60;

/// Programs in the STT scan workload (128-page sandbox: 168 cases).
const STT_PROGRAMS: usize = 6;

/// Quick campaigns per `campaign`/`stl_campaign` pass. One takes a few
/// milliseconds, too short for its passes' quartiles to resolve anything,
/// so each pass times this many runs of it.
const CAMPAIGN_REPS: usize = 32;

/// Generated programs with their boosted inputs.
type Workload = Vec<(SharedProgram, Vec<TestInput>)>;

/// `programs` programs of `cfg`'s generator stream at `seed`, with inputs
/// boosted from the stream at `seed + 1`.
fn workload(cfg: &CampaignConfig, programs: usize, seed: u64) -> Workload {
    let model = LeakageModel::new(cfg.contract);
    let mut generator = Generator::new(cfg.generator.clone(), seed);
    let mut rng = Xoshiro256::seed_from_u64(seed + 1);
    (0..programs)
        .map(|_| {
            let flat = generator.program().flatten_shared();
            let inputs = boosted_inputs(&model, &flat, &cfg.inputs, &mut rng);
            (flat, inputs)
        })
        .collect()
}

fn cases(workload: &Workload) -> usize {
    workload.iter().map(|(_, inputs)| inputs.len()).sum()
}

/// What one pass over a workload looked like to the cycle loop.
#[derive(Clone, Copy, Default)]
struct Shape {
    fetched: u64,
    committed: u64,
    cycles: u64,
    warped: u64,
    squashes: u64,
}

impl Shape {
    fn add(&mut self, result: &SimResult) {
        self.fetched += result.fetched as u64;
        self.committed += result.committed as u64;
        self.cycles += result.cycles;
        self.warped += result.warped_cycles;
        self.squashes += result.squashes as u64;
    }
}

/// Prints a row and keeps it for the trajectory file.
fn emit(rows: &mut Vec<String>, row: Row) {
    let line = row.finish();
    println!("{line}");
    rows.push(line);
}

/// Event-driven cycle scheduler: the workload through the warped cycle
/// loop and the stepped one (`SimConfig::cycle_skip` off), alternating.
/// Simulated cycles are bit-identical across the two by construction (the
/// differential tests enforce it), so the cases/sec gap is pure scheduler
/// win, and a pre/post pair of a simulator change must report the same
/// `sim_cycles`. Returns the warped passes and shape.
fn cycle_loop(
    rows: &mut Vec<String>,
    prefix: &str,
    cfg: &CampaignConfig,
    workload: &Workload,
) -> (Passes, Shape) {
    let mut executors = [true, false].map(|skip| {
        Executor::new(ExecutorConfig {
            sim: cfg.sim.clone().with_cycle_skip(skip),
            ..ExecutorConfig::new(cfg.defense)
        })
    });
    let mut shapes = [Shape::default(); 2];
    let passes = sample(|arm| {
        shapes[arm] = Shape::default();
        for (flat, inputs) in workload {
            for input in inputs {
                shapes[arm].add(&black_box(executors[arm].run_case(flat, input)).result);
            }
        }
    });
    let cases = cases(workload);
    for ((arm, passes), shape) in ["warped", "stepped"].iter().zip(&passes).zip(&shapes) {
        let warp_ratio = shape.warped as f64 / shape.cycles.max(1) as f64;
        let row = Row::new("cycle_loop", &format!("{prefix}{arm}"))
            .int("cases", cases)
            .spread("cases_per_sec", passes.rate(cases as f64))
            .spread("sim_cycles_per_sec", passes.rate(shape.cycles as f64))
            .int("sim_cycles", shape.cycles)
            .fixed("warp_ratio", warp_ratio, 4);
        emit(rows, row);
    }
    let [warped, _] = passes;
    (warped, shapes[0])
}

/// The quick Baseline × CT-SEQ per-case workload: the `cycle_loop` rows,
/// the `hot_path` row (the `warped` passes: the executor's per-case
/// pipeline with logging off, streaming digest, shared program) and the
/// `case_split` row.
fn quick_per_case(rows: &mut Vec<String>) {
    let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    let workload = workload(&cfg, PROGRAMS, 11);
    let (warped, shape) = cycle_loop(rows, "", &cfg, &workload);
    let cases = cases(&workload);
    let hot_path = Row::new("hot_path", "baseline_ctseq")
        .int("cases", cases)
        .spread("cases_per_sec", warped.rate(cases as f64));
    emit(rows, hot_path);
    case_split(rows, &workload, shape);
}

/// The per-case split of the hot path on a bare simulator: flush +
/// prefill, `load_test_shared`, `sim.run()` and `trace_digest`, in ns per
/// case. Every pass runs all four stages and times one of them. The bare
/// reset is the plain flush + full prefill restore, while the executor's
/// keeps the L1D tracking baseline and restores touched sets only, so the
/// stage sum can exceed the `hot_path` cost. The per-case counts are the
/// hot path's (`shape`, from the `warped` passes).
fn case_split(rows: &mut Vec<String>, workload: &Workload, shape: Shape) {
    let mut sim = Simulator::new(SimConfig::default(), DefenseKind::Baseline.build());
    sim.set_log_mode(LogMode::Off);
    let stages: [Passes; 4] = sample_secs(|stage| {
        let mut secs = 0.0;
        for (flat, inputs) in workload {
            for input in inputs {
                let t0 = Instant::now();
                sim.flush_caches();
                sim.prefill_l1d_conflicting();
                let t1 = Instant::now();
                sim.load_test_shared(flat, input);
                let t2 = Instant::now();
                black_box(sim.run());
                let t3 = Instant::now();
                black_box(sim.trace_digest(DigestKind::L1dTlb { include_l1i: false }));
                let laps = [t0, t1, t2, t3, Instant::now()];
                secs += (laps[stage + 1] - laps[stage]).as_secs_f64();
            }
        }
        secs
    });
    let cases = cases(workload);
    let per_case = |count: u64| count as f64 / cases as f64;
    let mut row = Row::new("case_split", "baseline_ctseq")
        .int("cases", cases)
        .fixed("fetched_per_case", per_case(shape.fetched), 1)
        .fixed("committed_per_case", per_case(shape.committed), 1)
        .fixed("cycles_per_case", per_case(shape.cycles), 1)
        .fixed("stepped_per_case", per_case(shape.cycles - shape.warped), 1)
        .fixed("squashes_per_case", per_case(shape.squashes), 2);
    for (stage, passes) in ["reset", "load", "run", "digest"].iter().zip(&stages) {
        row = row.spread(&format!("{stage}_ns_per_case"), passes.ns_per(cases as f64));
    }
    emit(rows, row);
}

/// Taint-engine microbench: `relevant_labels` calls/sec over a fixed-seed
/// workload of generated programs at 1/8/128 sandbox pages, under ARCH-SEQ
/// (the value-observing contract STT campaigns boost with — the worst case
/// for the taint engine, since every loaded value's taint reaches
/// `mark_relevant`).
fn taint(rows: &mut Vec<String>) {
    let model = LeakageModel::new(ContractKind::ArchSeq);
    for pages in [1usize, 8, 128] {
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
                let flat = generator.program().flatten_shared();
                (flat, TestInput::random(&mut rng, pages))
            })
            .collect();
        let reps = if pages >= 128 { 2 } else { 10 };
        let mut scratch = ModelScratch::new();
        let [passes] = sample(|_| {
            for _ in 0..reps {
                for (flat, input) in &workload {
                    black_box(model.relevant_labels_with(flat, input, &mut scratch));
                }
            }
        });
        let row = Row::new("taint", "relevant_labels")
            .str("contract", ContractKind::ArchSeq.name())
            .int("pages", pages)
            .spread("calls_per_sec", passes.rate((reps * workload.len()) as f64));
        emit(rows, row);
    }
}

/// The campaign's per-program detection loop, single-threaded: generate,
/// boost with contract-trace classes (`boosted_inputs_and_classes_into`,
/// one scratch and recycled input and class slots), then
/// `Detector::scan_classes` with its validation re-runs — what a campaign
/// worker runs, without orchestration. Every pass starts from the same
/// seeds with a fresh detector and executor. Returns (cases, confirmed,
/// passes).
fn scan_loop(
    defense: DefenseKind,
    contract: ContractKind,
    programs: usize,
    seed: u64,
) -> (usize, usize, Passes) {
    let cfg = CampaignConfig::quick(defense, contract);
    let model = LeakageModel::new(contract);
    // Built up front, so that their allocation stays out of the passes.
    let mut fresh: Vec<_> = (0..PASSES)
        .map(|_| {
            let detector = Detector::new(model.clone());
            (detector, Executor::new(ExecutorConfig::new(defense)))
        })
        .collect();
    let mut scratch = ModelScratch::new();
    let (mut inputs, mut classes) = (Vec::new(), Vec::new());
    let (mut cases, mut confirmed) = (0, 0);
    let [passes] = sample(|_| {
        let (mut detector, mut executor) = fresh.pop().expect("one per pass");
        let mut generator = Generator::new(cfg.generator.clone(), seed);
        let mut rng = Xoshiro256::seed_from_u64(seed + 1);
        (cases, confirmed) = (0, 0);
        for _ in 0..programs {
            let program = generator.program();
            let flat = program.flatten_shared();
            boosted_inputs_and_classes_into(
                &model,
                &flat,
                &cfg.inputs,
                &mut rng,
                &mut scratch,
                &mut inputs,
                &mut classes,
            );
            let (violations, stats) =
                detector.scan_classes(&program, &flat, &inputs, &classes, &mut executor);
            cases += stats.cases;
            confirmed += violations.len();
        }
    });
    (cases, confirmed, passes)
}

/// The scan loop twice: the full Baseline × CT-SEQ detector workload on
/// the quick seeds (`detector`), and STT × ARCH-SEQ on the 128-page
/// sandbox (`stt_hot_path`), the path the sparse taint engine exists for.
fn scans(rows: &mut Vec<String>) {
    let (cases, confirmed, passes) =
        scan_loop(DefenseKind::Baseline, ContractKind::CtSeq, PROGRAMS, 11);
    let detector = Row::new("detector", "baseline_ctseq")
        .str("scan", "classes")
        .int("cases", cases)
        .int("confirmed", confirmed)
        .spread("cases_per_sec", passes.rate(cases as f64));
    emit(rows, detector);
    let (cases, _, passes) = scan_loop(DefenseKind::Stt, ContractKind::ArchSeq, STT_PROGRAMS, 31);
    let stt = Row::new("stt_hot_path", "STT")
        .str("contract", ContractKind::ArchSeq.name())
        .int("pages", DefenseKind::Stt.harness_hints().sandbox_pages)
        .int("cases", cases)
        .spread("cases_per_sec", passes.rate(cases as f64));
    emit(rows, stt);
}

/// Candidate validation: scans of one candidate pair each. The workload
/// (untimed) collects pairs of inputs that share a contract-trace class of
/// a fixed-seed program stream yet differ in their hot-path digests, with
/// the predictor state the first one started from; each timed scan
/// restores that state and runs the pair (two hot-path cases plus the
/// pair's validation). Reports candidates/s, Baseline × CT-SEQ and STT ×
/// ARCH-SEQ on the defenses' harness sandboxes.
fn validate(rows: &mut Vec<String>) {
    for (defense, contract) in [
        (DefenseKind::Baseline, ContractKind::CtSeq),
        (DefenseKind::Stt, ContractKind::ArchSeq),
    ] {
        let cfg = CampaignConfig::quick(defense, contract);
        let model = LeakageModel::new(contract);
        let mut generator = Generator::new(cfg.generator.clone(), 51);
        let mut rng = Xoshiro256::seed_from_u64(52);
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
                &cfg.inputs,
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
        let [passes] = sample(|_| {
            (confirmed, runs) = (0, 0);
            for (program, flat, pair, ctx) in &pairs {
                executor.simulator_mut().set_context(ctx);
                let (_, stats) = detector.scan_classes(program, flat, pair, &[0, 0], &mut executor);
                confirmed += stats.confirmed;
                runs += stats.validation_runs;
            }
        });
        let row = Row::new("validate", defense.name())
            .str("contract", contract.name())
            .int("pages", cfg.inputs.pages)
            .int("candidates", pairs.len())
            .int("confirmed", confirmed)
            .int("validation_runs", runs)
            .spread("candidates_per_sec", passes.rate(pairs.len() as f64));
        emit(rows, row);
    }
}

/// Sandbox line draws at the `stt_taint` mix: a load of a seeded image
/// (8 or 128 pages; 128 is the STT harness sandbox) draws 3.5 lines on
/// average, one per page (3.4–3.6 lines per drawing load and 1.02 lines per
/// page measured on that campaign). So each load here is followed by first
/// reads of one random line in each of 3 or 4 distinct random pages,
/// alternately; the first draw of a load also walks the image's basis.
fn line_draw(rows: &mut Vec<String>) {
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
        let [passes] = sample(|_| {
            for _ in 0..reps {
                for (image, addrs) in images.iter().zip(&reads) {
                    sandbox.load_image(image);
                    for &addr in addrs {
                        black_box(sandbox.read_u8(addr));
                    }
                }
            }
        });
        let draws = reps * reads.iter().map(Vec::len).sum::<usize>();
        let row = Row::new("line_draw", "seeded_image")
            .int("pages", pages)
            .fixed("lines_per_load", 3.5, 1)
            .int("draws", draws)
            .spread("draws_per_sec", passes.rate(draws as f64));
        emit(rows, row);
    }
}

/// The violation minimiser (the per-batch corpus pass of a corpus-backed
/// `amulet serve`): every confirmed violation of one fixed-seed quick
/// Baseline × CT-SEQ campaign is minimised with the executor configuration
/// that found it. Reports violations/sec and reduction attempts/sec.
fn minimize_arm(rows: &mut Vec<String>) {
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
    let mut attempts = 0;
    let [passes] = sample(|_| {
        attempts = 0;
        for (violation, _) in &report.violations {
            attempts += black_box(minimize(violation, &detector, &mut executor)).attempts;
        }
    });
    let violations = report.violations.len();
    let row = Row::new("minimize", "Baseline")
        .str("contract", cfg.contract.name())
        .int("violations", violations)
        .int("attempts", attempts)
        .spread("violations_per_sec", passes.rate(violations as f64))
        .spread("attempts_per_sec", passes.rate(attempts as f64));
    emit(rows, row);
}

/// End-to-end quick-campaign throughput through `Campaign::run_sharded`
/// on `AMULET_WORKERS` slots (default: all hardware threads).
fn sharded_campaign(rows: &mut Vec<String>) {
    let shard = ShardConfig {
        workers: env_usize("AMULET_WORKERS", 0),
        ..ShardConfig::default()
    };
    let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    let mut cases = 0;
    let [passes] = sample(|_| cases = Campaign::new(cfg.clone()).run_sharded(shard).stats.cases);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let row = Row::new("sharded_campaign", "Baseline")
        .str("contract", cfg.contract.name())
        .int("workers", shard.resolved_workers())
        .int("batch_programs", shard.batch_programs)
        .int("host_threads", host_threads)
        .int("cases", cases)
        .spread("cases_per_sec", passes.rate(cases as f64));
    emit(rows, row);
}

/// The cross-host fleet overhead, measured: the full `amulet drive` driver
/// loop (handshake, submit, heartbeat, batch round trips, reduction) over
/// loopback TCP workers, clean and under hostile seeded fault injection
/// (drops, truncations, severed links, delays — recovery re-runs batches,
/// so this arm prices the robustness ladder). The campaign is Baseline ×
/// CT-SEQ at scale 0.1 (10 × 63 programs × 140 inputs = 88,200 cases in
/// 160 batches), long enough that one run is not a handful of batches.
/// Both arms must reduce to one fingerprint; the workers are in-process
/// accept loops standing in for remote hosts, detached threads that die
/// with the bench.
fn fleet(rows: &mut Vec<String>) {
    let spec = CampaignSpec {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        source: "PHT".into(),
        seed: 2025,
        scale: Some(0.1),
        find_first: false,
        batch_programs: ShardConfig::default().batch_programs,
        cycle_skip: true,
    };
    let workers = 2usize;
    let mut addrs = Vec::new();
    for _ in 0..workers {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        addrs.push(listener.local_addr().unwrap().to_string());
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let _ = stream.set_nodelay(true);
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let reader = std::io::BufReader::new(clone);
                let _ = serve_session(reader, &stream, &EventLog::off(), None);
            }
        });
    }
    // Deadlines sized for a bench: a batch here takes milliseconds, hostile
    // drops resolve through timeouts, and a spurious expiry is safe (it
    // costs a retry, never the result).
    let drive = DriveConfig {
        procs: workers,
        liveness: std::time::Duration::from_millis(100),
        batch_timeout: std::time::Duration::from_millis(500),
        backoff_base: std::time::Duration::from_millis(1),
        backoff_max: std::time::Duration::from_millis(8),
        ..DriveConfig::default()
    };
    let arms = ["clean", "hostile"];
    let counters = arms.map(|_| Arc::new(FaultCounters::default()));
    let mut rounds = [0u64; 2];
    let mut fingerprints = Vec::new();
    let mut cases = 0;
    let passes: [Passes; 2] = sample(|arm| {
        let round = rounds[arm];
        rounds[arm] += 1;
        let connections = std::sync::atomic::AtomicUsize::new(0);
        let connect = |slot: usize| {
            let link = TcpLink::connect(&addrs[slot % addrs.len()], drive.liveness)?;
            // Fresh fault schedule per connection, or a first-send sever
            // would repeat forever.
            let n = connections.fetch_add(1, std::sync::atomic::Ordering::SeqCst) as u64;
            let seed = 0xBE7C ^ (round << 32) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let plan = if arms[arm] == "hostile" {
                FaultPlan::hostile(seed)
            } else {
                FaultPlan::none(seed)
            };
            Ok(FaultyLink::new(link, plan, counters[arm].clone()))
        };
        let report = run_driver(&spec, &drive, connect, None, &EventLog::off())
            .expect("fleet bench campaign");
        cases = report.stats.cases;
        fingerprints.push(report.fingerprint());
    });
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "fleet fingerprint moved across transports/faults: {fingerprints:?}"
    );
    // Each fault kind's count beside the total: a drop that lands on a
    // send waits out `batch_timeout`, so the hostile rate follows the drops.
    let count = |n: &std::sync::atomic::AtomicUsize| n.load(std::sync::atomic::Ordering::Relaxed);
    for ((label, passes), counters) in arms.iter().zip(&passes).zip(&counters) {
        let row = Row::new("fleet", label)
            .str("transport", "tcp-loopback")
            .int("workers", workers)
            .fixed("scale", 0.1, 1)
            .int("rounds", PASSES)
            .int("injected_faults", counters.total())
            .int("dropped", count(&counters.dropped))
            .int("truncated", count(&counters.truncated))
            .int("severed", count(&counters.severed))
            .int("delayed", count(&counters.delayed))
            .int("cases", cases)
            .spread("cases_per_sec", passes.rate(cases as f64));
        emit(rows, row);
    }
}

/// Fixed-seed quick campaigns per defense, under both speculation
/// sources. `cycles_per_case` is timing-model output and thus
/// scheduler-independent; `warp_ratio` says how much of it the event-driven
/// scheduler skipped. The STL rows (`stl_campaign`: store→load gadgets and
/// the disambiguation window armed) trade branchy control flow for
/// aliasing store→load pairs, so their cases/sec is a separate trajectory
/// line from the PHT `campaign` rows: one detecting defense, one the
/// window slips past (STT), one that misses (DelayAll). Each pass runs the
/// campaign [`CAMPAIGN_REPS`] times; `cases` is one run's.
fn campaigns(rows: &mut Vec<String>) {
    use ContractKind::{ArchSeq, CtSeq};
    use DefenseKind::{Baseline, CleanupSpec, DelayAll, InvisiSpec, SpecLfb, Stt};
    use SpecSource::{Pht, Stl};
    for (source, defense, contract) in [
        (Pht, Baseline, CtSeq),
        (Pht, InvisiSpec, CtSeq),
        (Pht, CleanupSpec, CtSeq),
        (Pht, SpecLfb, CtSeq),
        (Pht, Stt, ArchSeq),
        (Stl, Baseline, CtSeq),
        (Stl, Stt, CtSeq),
        (Stl, DelayAll, CtSeq),
    ] {
        let cfg = CampaignConfig::quick(defense, contract).with_source(source);
        let mut report = None;
        let [passes] = sample(|_| {
            for _ in 0..CAMPAIGN_REPS {
                report = Some(Campaign::new(cfg.clone()).run());
            }
        });
        let report = report.expect("sampled");
        let mut row = match source {
            Pht => Row::new("campaign", defense.name()).str("contract", contract.name()),
            Stl => Row::new("stl_campaign", defense.name())
                .str("contract", contract.name())
                .str("source", "STL"),
        };
        row = row
            .int("cases", report.stats.cases)
            .int("reps", CAMPAIGN_REPS)
            .spread(
                "cases_per_sec",
                passes.rate((CAMPAIGN_REPS * report.stats.cases) as f64),
            )
            .fixed("cycles_per_case", report.cycles_per_case(), 1)
            .fixed("warp_ratio", report.warp_ratio(), 4)
            .bool("violation", report.violation_found());
        emit(rows, row);
    }
}

fn main() {
    println!(
        "throughput: fixed-seed arms, median [q1, q3] of {PASSES} passes \
         (AMULET_WORKERS sets the sharded_campaign workers)"
    );
    let started = Instant::now();
    let mut rows = Vec::new();
    quick_per_case(&mut rows);
    // DelayAll × CT-SEQ under the STL source with paper-scaled inputs
    // (10 base inputs × 13 mutations), where the simulator's
    // store-disambiguation path dominates.
    let mut stl = CampaignConfig::quick(DefenseKind::DelayAll, ContractKind::CtSeq)
        .with_source(SpecSource::Stl);
    stl.inputs.base_inputs = 10;
    stl.inputs.mutations = 13;
    let stl_workload = workload(&stl, PROGRAMS / 6, 31);
    cycle_loop(&mut rows, "stl_delayall_", &stl, &stl_workload);
    taint(&mut rows);
    scans(&mut rows);
    validate(&mut rows);
    line_draw(&mut rows);
    minimize_arm(&mut rows);
    sharded_campaign(&mut rows);
    fleet(&mut rows);
    campaigns(&mut rows);
    println!(
        "\n{} rows in {:.1}s",
        rows.len(),
        started.elapsed().as_secs_f64()
    );

    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(TRAJECTORY)
        .and_then(|mut f| f.write_all((rows.join("\n") + "\n").as_bytes()));
    match appended {
        Ok(()) => println!("appended results to BENCH_throughput.json"),
        Err(e) => eprintln!("could not write BENCH_throughput.json: {e}"),
    }
}
