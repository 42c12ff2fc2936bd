//! Validation from hot-path digests is the four-run validation it
//! replaces.
//!
//! `Detector` validates a candidate pair by simulating only the input that
//! did not start from the context under test, as a digest, and re-runs both
//! inputs with logging on only once the pair is confirmed. The reference
//! below is the full form of §3.2: every candidate re-runs both inputs with
//! logging on and full traces, first under the first input's starting
//! context and then, if the traces agree, under the second's. Both scan the
//! same campaign-shaped program streams on their own executors, and every
//! scan must agree on the violations (traces, logs, contexts), on
//! `ScanStats`, and on the predictor state it leaves behind.
//!
//! The shortcut rests on one property, asserted here for every candidate:
//! replaying an input under its own starting context reproduces its
//! hot-path digest.

use amulet::contracts::{ContractKind, LeakageModel, ModelScratch};
use amulet::defenses::DefenseKind;
use amulet::fuzz::{
    boosted_inputs_and_classes_into, CampaignConfig, CaseDigest, Detector, ExecMode, Executor,
    ExecutorConfig, Generator, ScanStats, SpecSource, Violation,
};
use amulet::isa::{Program, SharedProgram, TestInput};
use amulet::sim::UarchContext;
use amulet::util::Xoshiro256;
use std::collections::HashMap;

/// The four-run scan: `Detector::scan_classes` as it reads with every
/// validation run logged and materialised.
struct Reference {
    model: LeakageModel,
    scratch: ModelScratch,
    max_per_program: usize,
    log_cap: usize,
    skip_singletons: bool,
    ctxs: Vec<UarchContext>,
    /// Rejected pairs whose two inputs left different predictor state
    /// under the second context: only these make a skipped final run
    /// observable.
    divergent_rejections: usize,
}

impl Reference {
    fn new(detector: &Detector) -> Self {
        Reference {
            model: detector.model().clone(),
            scratch: ModelScratch::new(),
            max_per_program: detector.max_per_program,
            log_cap: detector.log_cap,
            skip_singletons: detector.skip_singletons,
            ctxs: Vec::new(),
            divergent_rejections: 0,
        }
    }

    /// Scans like `Detector::scan_classes`; `replay` checks the replay
    /// property of every candidate on its own executor.
    #[allow(clippy::too_many_arguments)]
    fn scan(
        &mut self,
        program: &Program,
        flat: &SharedProgram,
        inputs: &[TestInput],
        class_digests: &[u64],
        executor: &mut Executor,
        replay: &mut Executor,
        at: &str,
    ) -> (Vec<Violation>, ScanStats) {
        let mut stats = ScanStats::default();
        let mut violations = Vec::new();
        let mut classes: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &digest) in class_digests.iter().enumerate() {
            classes.entry(digest).or_default().push(i);
        }
        stats.classes = classes.len();
        self.ctxs
            .resize_with(inputs.len().max(self.ctxs.len()), Default::default);
        let runs: Vec<Option<CaseDigest>> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                (!self.skip_singletons || classes[&class_digests[i]].len() >= 2)
                    .then(|| executor.run_case_ctx(flat, input, &mut self.ctxs[i]))
            })
            .collect();
        stats.cases = runs.iter().flatten().count();
        for r in runs.iter().flatten() {
            stats.sim_cycles += r.result.cycles;
            stats.warped_cycles += r.result.warped_cycles;
        }
        let mut ordered: Vec<(u64, Vec<usize>)> = classes.into_iter().collect();
        ordered.sort_by_key(|(_, members)| members[0]);
        for (_, members) in ordered {
            if members.len() < 2 || violations.len() >= self.max_per_program {
                continue;
            }
            let rep = members[0];
            for &other in &members[1..] {
                if violations.len() >= self.max_per_program {
                    break;
                }
                let (a, b) = (runs[rep].as_ref().unwrap(), runs[other].as_ref().unwrap());
                if a.digest == b.digest {
                    continue;
                }
                for (i, hot) in [(rep, a), (other, b)] {
                    let again = replay.run_case_digest_with_ctx(flat, &inputs[i], &self.ctxs[i]);
                    assert_eq!(
                        again.digest, hot.digest,
                        "{at}: replaying input {i} under its own context"
                    );
                }
                stats.candidates += 1;
                if let Some(v) =
                    self.validate(program, flat, inputs, rep, other, executor, &mut stats)
                {
                    stats.confirmed += 1;
                    violations.push(v);
                }
            }
        }
        (violations, stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn validate(
        &mut self,
        program: &Program,
        flat: &SharedProgram,
        inputs: &[TestInput],
        a: usize,
        b: usize,
        executor: &mut Executor,
        stats: &mut ScanStats,
    ) -> Option<Violation> {
        let digest = self
            .model
            .ctrace_with(flat, &inputs[a], &mut self.scratch)
            .digest();
        if digest
            != self
                .model
                .ctrace_with(flat, &inputs[b], &mut self.scratch)
                .digest()
        {
            return None;
        }
        let mut ends_differ = false;
        for ctx in [&self.ctxs[a], &self.ctxs[b]] {
            let ra = executor.run_case_with_ctx(flat, &inputs[a], ctx);
            let log_a = executor.last_log_capped(self.log_cap);
            let after_a = executor.context();
            let rb = executor.run_case_with_ctx(flat, &inputs[b], ctx);
            ends_differ = executor.context() != after_a;
            let log_b = executor.last_log_capped(self.log_cap);
            stats.validation_runs += 2;
            if ra.utrace != rb.utrace {
                return Some(Violation {
                    program: program.clone(),
                    input_a: inputs[a].clone(),
                    input_b: inputs[b].clone(),
                    ctrace_digest: digest,
                    utrace_a: ra.utrace,
                    utrace_b: rb.utrace,
                    ctx_a: ctx.clone(),
                    ctx_b: ctx.clone(),
                    log_a,
                    log_b,
                });
            }
        }
        self.divergent_rejections += ends_differ as usize;
        None
    }
}

fn assert_same_violation(got: &Violation, want: &Violation, at: &str) {
    assert_eq!(got.program, want.program, "{at}: program");
    assert_eq!(got.input_a, want.input_a, "{at}: input A");
    assert_eq!(got.input_b, want.input_b, "{at}: input B");
    assert_eq!(
        got.ctrace_digest, want.ctrace_digest,
        "{at}: contract trace"
    );
    assert_eq!(got.utrace_a, want.utrace_a, "{at}: µtrace A");
    assert_eq!(got.utrace_b, want.utrace_b, "{at}: µtrace B");
    assert_eq!(got.ctx_a, want.ctx_a, "{at}: context A");
    assert_eq!(got.ctx_b, want.ctx_b, "{at}: context B");
    assert_eq!(got.log_a, want.log_a, "{at}: log A");
    assert_eq!(got.log_b, want.log_b, "{at}: log B");
}

/// One campaign-shaped stream: the quick campaign's generator and input
/// boosting for `defense` × `source`, on a sandbox of `pages` pages.
struct Stream {
    defense: DefenseKind,
    contract: ContractKind,
    source: SpecSource,
    pages: usize,
    mode: ExecMode,
    skip_singletons: bool,
}

/// Scans `programs` programs of the stream both ways; returns the summed
/// stats and the reference's divergent rejections.
fn check(stream: &Stream, seed: u64, programs: usize) -> (ScanStats, usize) {
    let mut cfg = CampaignConfig::quick(stream.defense, stream.contract).with_source(stream.source);
    cfg.generator.pages = stream.pages;
    cfg.inputs.pages = stream.pages;
    let executor = || {
        Executor::new(ExecutorConfig {
            mode: stream.mode,
            sim: cfg.sim.clone().with_sandbox_pages(stream.pages),
            keep_sandbox: true,
            ..ExecutorConfig::new(stream.defense)
        })
    };
    let (mut fast_exec, mut ref_exec, mut replay) = (executor(), executor(), executor());
    let model = LeakageModel::new(cfg.contract);
    let mut detector = Detector::new(model.clone());
    detector.skip_singletons = stream.skip_singletons;
    let mut reference = Reference::new(&detector);

    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut generator = Generator::new(cfg.generator.clone(), rng.next_u64());
    let mut boost = ModelScratch::new();
    let (mut inputs, mut classes) = (Vec::new(), Vec::new());
    let mut total = ScanStats::default();
    for index in 0..programs {
        let at = format!(
            "seed {seed}, {} {:?} {} pages {:?} skip_singletons={}, program {index}",
            stream.defense.name(),
            stream.source,
            stream.pages,
            stream.mode,
            stream.skip_singletons,
        );
        let program = generator.program();
        let flat = program.flatten_shared();
        boosted_inputs_and_classes_into(
            &model,
            &flat,
            &cfg.inputs,
            &mut rng,
            &mut boost,
            &mut inputs,
            &mut classes,
        );
        let (got, stats) =
            detector.scan_classes(&program, &flat, &inputs, &classes, &mut fast_exec);
        let (want, want_stats) = reference.scan(
            &program,
            &flat,
            &inputs,
            &classes,
            &mut ref_exec,
            &mut replay,
            &at,
        );
        assert_eq!(stats, want_stats, "{at}: stats");
        assert_eq!(got.len(), want.len(), "{at}: violation count");
        for (g, w) in got.iter().zip(&want) {
            assert_same_violation(g, w, &at);
        }
        // Naive mode resets the predictors at every hot case, so only Opt
        // mode carries the state a scan leaves behind.
        if stream.mode == ExecMode::Opt {
            assert_eq!(
                fast_exec.context(),
                ref_exec.context(),
                "{at}: executor context"
            );
        }
        total.merge(&stats);
    }
    (total, reference.divergent_rejections)
}

#[test]
fn digest_validation_matches_four_run_validation() {
    let mut streams = Vec::new();
    for defense in [
        DefenseKind::Baseline,
        DefenseKind::Stt,
        DefenseKind::InvisiSpec,
        DefenseKind::DelayAll,
    ] {
        let contract = if defense == DefenseKind::Stt {
            ContractKind::ArchSeq
        } else {
            ContractKind::CtSeq
        };
        for source in [SpecSource::Pht, SpecSource::Stl] {
            for pages in [1, 128] {
                streams.push(Stream {
                    defense,
                    contract,
                    source,
                    pages,
                    mode: ExecMode::Opt,
                    skip_singletons: false,
                });
            }
        }
    }
    // Skipped singletons move the "next executed case" a rejected pair's
    // predictor state is restored from; Naive mode never restores.
    for (defense, contract, pages) in [
        (DefenseKind::Baseline, ContractKind::CtSeq, 1),
        (DefenseKind::Stt, ContractKind::ArchSeq, 128),
    ] {
        streams.push(Stream {
            defense,
            contract,
            source: SpecSource::Pht,
            pages,
            mode: ExecMode::Opt,
            skip_singletons: true,
        });
    }
    streams.push(Stream {
        defense: DefenseKind::Baseline,
        contract: ContractKind::CtSeq,
        source: SpecSource::Pht,
        pages: 1,
        mode: ExecMode::Naive,
        skip_singletons: false,
    });

    let mut total = ScanStats::default();
    for (i, stream) in streams.iter().enumerate() {
        total.merge(&check(stream, 0xA11D + i as u64, 6).0);
    }
    // The matrix exercises both outcomes of validation.
    assert!(total.confirmed > 0, "{total:?}");
    assert!(total.candidates > total.confirmed, "{total:?}");
}

/// A rejected pair whose inputs end in different predictor state is rare
/// (it needs a wrong-path branch or store→load squash that depends on the
/// inputs' differing data yet leaves both traces equal). This stream's
/// program 33 holds one, so the predictor state restored after a rejected
/// pair is checked against the skipped run's, not only against itself.
#[test]
fn rejected_pairs_leave_the_state_of_the_skipped_run() {
    let stream = Stream {
        defense: DefenseKind::Baseline,
        contract: ContractKind::CtSeq,
        source: SpecSource::Stl,
        pages: 1,
        mode: ExecMode::Opt,
        skip_singletons: false,
    };
    let (_, divergent) = check(&stream, 52_247, 34);
    assert!(
        divergent > 0,
        "the stream must contain a divergent rejection"
    );
}
