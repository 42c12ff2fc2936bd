//! Violation minimisation — the Revizor-style post-processing pass that
//! shrinks a violating test program before manual root-causing (§3.3's
//! "identifying the mis-speculated instruction sequence" is far easier on a
//! minimal program).
//!
//! Greedy delta-debugging: repeatedly try deleting one instruction; keep the
//! deletion when the program still validates, the two inputs still have
//! equal contract traces, and their µarch traces still differ under the
//! violation's shared starting context. Sound by construction (the result
//! is still a confirmed violation); best-effort in coverage (deleting an
//! instruction shifts PCs, which can de-train the predictor context and
//! block a reduction).
//!
//! Attempts compare digests, as the detector's scan does: contract-trace
//! digests from one reused emulator scratch, and streaming simulator
//! digests with logging off. Unequal digests imply unequal traces, so the
//! loop takes the same path a full-trace loop would up to a 64-bit
//! collision. The reduced program is then confirmed once with full traces;
//! if that fails, the unreduced program is returned.

use crate::detect::{Detector, Violation};
use crate::executor::Executor;
use amulet_contracts::ModelScratch;
use amulet_isa::{Program, SharedProgram};

/// Result of a minimisation pass.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The reduced program (still a confirmed violation for the original
    /// input pair and context).
    pub program: Program,
    /// Instructions removed.
    pub removed: usize,
    /// Reduction checks executed (2 simulator runs + 2 contract traces per
    /// attempt).
    pub attempts: usize,
}

/// Shrinks `violation.program` while preserving the violation.
///
/// The `executor` must be configured identically to the one that found the
/// violation (same defense, trace format, and simulator config).
pub fn minimize(violation: &Violation, detector: &Detector, executor: &mut Executor) -> Minimized {
    let mut scratch = ModelScratch::new();
    let model = detector.model();
    let (a, b, ctx) = (&violation.input_a, &violation.input_b, &violation.ctx_a);
    reduce(violation, detector, executor, |flat, executor| {
        model.ctrace_with(flat, a, &mut scratch).digest()
            == model.ctrace_with(flat, b, &mut scratch).digest()
            && executor.run_case_digest_with_ctx(flat, a, ctx).digest
                != executor.run_case_digest_with_ctx(flat, b, ctx).digest
    })
}

/// The greedy loop, with `reproduces` judging each valid candidate. The
/// reduced program must then pass the full-trace check; if it does not,
/// the unreduced program is returned with `removed: 0`, so a digest
/// collision can never hand out an unconfirmed program.
fn reduce(
    violation: &Violation,
    detector: &Detector,
    executor: &mut Executor,
    mut reproduces: impl FnMut(&SharedProgram, &mut Executor) -> bool,
) -> Minimized {
    let mut program = violation.program.clone();
    let mut removed = 0usize;
    let mut attempts = 0usize;

    let mut still_violates = |p: &Program, executor: &mut Executor| -> bool {
        attempts += 1;
        p.validate().is_ok() && reproduces(&p.flatten_shared(), executor)
    };

    // The violation must reproduce before we start shrinking; otherwise
    // return it untouched (e.g. executor configured differently).
    if still_violates(&program, executor) {
        loop {
            let mut changed = false;
            'scan: for bi in 0..program.blocks.len() {
                for ii in 0..program.blocks[bi].instrs.len() {
                    let mut candidate = program.clone();
                    candidate.blocks[bi].instrs.remove(ii);
                    if still_violates(&candidate, executor) {
                        program = candidate;
                        removed += 1;
                        changed = true;
                        break 'scan; // indices shifted; rescan from the top
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    if removed > 0 && !confirmed(&program, violation, detector, executor) {
        program = violation.program.clone();
        removed = 0;
    }
    Minimized {
        program,
        removed,
        attempts,
    }
}

/// The full-trace check: equal contract traces, and µarch traces that
/// differ under the violation's context A.
fn confirmed(
    program: &Program,
    violation: &Violation,
    detector: &Detector,
    executor: &mut Executor,
) -> bool {
    let flat = program.flatten_shared();
    let model = detector.model();
    if model.ctrace(&flat, &violation.input_a) != model.ctrace(&flat, &violation.input_b) {
        return false;
    }
    let ra = executor.run_case_with_ctx(&flat, &violation.input_a, &violation.ctx_a);
    let rb = executor.run_case_with_ctx(&flat, &violation.input_b, &violation.ctx_a);
    ra.utrace != rb.utrace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorConfig;
    use amulet_contracts::{ContractKind, LeakageModel};
    use amulet_defenses::gadgets;
    use amulet_defenses::DefenseKind;
    use amulet_isa::parse_program;

    /// The full-trace minimiser this module replaced, copied as the
    /// reference for [`digest_minimizer_matches_the_full_trace_reference`]:
    /// every attempt materialises both contract traces and both µarch
    /// traces.
    fn minimize_full_trace(
        violation: &Violation,
        detector: &Detector,
        executor: &mut Executor,
    ) -> Minimized {
        let mut program = violation.program.clone();
        let mut removed = 0usize;
        let mut attempts = 0usize;

        let still_violates = |p: &Program, executor: &mut Executor, attempts: &mut usize| -> bool {
            *attempts += 1;
            if p.validate().is_err() {
                return false;
            }
            let flat = p.flatten_shared();
            let model = detector.model();
            if model.ctrace(&flat, &violation.input_a) != model.ctrace(&flat, &violation.input_b) {
                return false;
            }
            let a = executor.run_case_with_ctx(&flat, &violation.input_a, &violation.ctx_a);
            let b = executor.run_case_with_ctx(&flat, &violation.input_b, &violation.ctx_a);
            a.utrace != b.utrace
        };

        if !still_violates(&program, executor, &mut attempts) {
            return Minimized {
                program,
                removed: 0,
                attempts,
            };
        }
        loop {
            let mut changed = false;
            'scan: for bi in 0..program.blocks.len() {
                for ii in 0..program.blocks[bi].instrs.len() {
                    let mut candidate = program.clone();
                    candidate.blocks[bi].instrs.remove(ii);
                    if still_violates(&candidate, executor, &mut attempts) {
                        program = candidate;
                        removed += 1;
                        changed = true;
                        break 'scan;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Minimized {
            program,
            removed,
            attempts,
        }
    }

    /// The digest-driven minimiser reduces violations of a spread of quick
    /// campaigns (the first six of each, to bound the unoptimised test
    /// profile) exactly as the full-trace reference does: same program
    /// text, same `removed`, same `attempts`.
    #[test]
    fn digest_minimizer_matches_the_full_trace_reference() {
        use crate::campaign::{executor_for, Campaign, CampaignConfig, SpecSource};
        let mut compared = 0usize;
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::CleanupSpec,
            DefenseKind::Stt,
        ] {
            for source in SpecSource::ALL {
                for seed in [2025, 2026] {
                    let mut cfg =
                        CampaignConfig::quick(defense, ContractKind::CtSeq).with_source(source);
                    cfg.seed = seed;
                    let report = Campaign::new(cfg.clone()).run();
                    let detector = Detector::new(LeakageModel::new(cfg.contract));
                    let mut executor = executor_for(&cfg);
                    for (i, (v, _)) in report.violations.iter().take(6).enumerate() {
                        let repro = format!(
                            "repro: CampaignConfig::quick({defense:?}, CtSeq)\
                             .with_source({source:?}), seed {seed}, violation {i}"
                        );
                        let got = minimize(v, &detector, &mut executor);
                        let want = minimize_full_trace(v, &detector, &mut executor);
                        assert_eq!(got.program.to_string(), want.program.to_string(), "{repro}");
                        assert_eq!(got.removed, want.removed, "{repro}");
                        assert_eq!(got.attempts, want.attempts, "{repro}");
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 0, "the quick campaigns must yield violations");
    }

    /// A confirmed v1 violation whose program is padded with junk that
    /// contributes nothing to the leak, with the detector and executor
    /// that found it.
    fn padded_v1_violation() -> (Violation, Detector, Executor) {
        let payload = "AND RBX, 0b111111111111
             MOV RDX, qword ptr [R14 + RBX]
             ADD RSI, 17
             XOR RDI, RDI
             INC R9";
        let src = gadgets::spectre_v1(payload).replace(
            "JMP .exit\n         .exit:",
            "JMP .exit\n         .exit:\n         ADD R12, 5\n         SUB R13, 3",
        );
        let program = parse_program(&src).unwrap();
        let flat = program.flatten_shared();
        let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        for _ in 0..12 {
            executor.run_case(&flat, &gadgets::train_input(1));
        }
        let mut a = gadgets::victim_input(1);
        a.regs[1] = 0x740;
        let mut b = gadgets::victim_input(1);
        b.regs[1] = 0x340;
        let mut detector = Detector::new(LeakageModel::new(ContractKind::CtSeq));
        let (mut violations, _) = detector.scan(&program, &flat, &[a, b], &mut executor);
        assert!(!violations.is_empty(), "padded gadget violates");
        (violations.swap_remove(0), detector, executor)
    }

    #[test]
    fn minimizer_shrinks_a_padded_v1_gadget() {
        let (violation, detector, mut executor) = padded_v1_violation();
        let v = &violation;
        let before = v.program.len();
        let result = minimize(v, &detector, &mut executor);
        assert!(
            result.removed > 0,
            "at least the junk instructions must go (attempts: {})",
            result.attempts
        );
        assert_eq!(result.program.len(), before - result.removed);
        // The reduced program is still a confirmed violation.
        let flat = result.program.flatten_shared();
        let model = detector.model();
        assert_eq!(
            model.ctrace(&flat, &v.input_a),
            model.ctrace(&flat, &v.input_b)
        );
        let ra = executor.run_case_with_ctx(&flat, &v.input_a, &v.ctx_a);
        let rb = executor.run_case_with_ctx(&flat, &v.input_b, &v.ctx_a);
        assert_ne!(ra.utrace, rb.utrace);
        // The transmitter load must have survived minimisation.
        let text = result.program.to_string();
        assert!(text.contains("qword ptr [R14 + RBX]"), "{text}");
    }

    /// A reduction that fails the full-trace check falls back to the
    /// unreduced program: an attempt predicate that accepts every deletion
    /// shrinks the gadget past the leak, and the final confirmation must
    /// reject the result.
    #[test]
    fn unconfirmed_reductions_fall_back_to_the_unreduced_program() {
        let (v, detector, mut executor) = padded_v1_violation();
        let kept = reduce(&v, &detector, &mut executor, |_, _| true);
        assert_eq!(kept.program, v.program);
        assert_eq!(kept.removed, 0);
        assert!(kept.attempts > v.program.len(), "{}", kept.attempts);
    }

    #[test]
    fn minimizer_is_a_noop_when_nothing_reproduces() {
        // A fabricated "violation" that does not reproduce (identical
        // inputs): the minimiser must return the program untouched.
        let src = gadgets::spectre_v1("AND RBX, 0b1");
        let program = parse_program(&src).unwrap();
        let input = gadgets::victim_input(1);
        let mut executor = Executor::new(ExecutorConfig::new(DefenseKind::Baseline));
        let run = executor.run_case_traced(&program.flatten_shared(), &input);
        let fake = Violation {
            program: program.clone(),
            input_a: input.clone(),
            input_b: input,
            ctrace_digest: 0,
            utrace_a: run.utrace.clone(),
            utrace_b: run.utrace,
            ctx_a: run.start_ctx.clone(),
            ctx_b: run.start_ctx,
            log_a: Vec::new(),
            log_b: Vec::new(),
        };
        let detector = Detector::new(LeakageModel::new(ContractKind::CtSeq));
        let result = minimize(&fake, &detector, &mut executor);
        assert_eq!(result.removed, 0);
        assert_eq!(result.program, program);
    }
}
