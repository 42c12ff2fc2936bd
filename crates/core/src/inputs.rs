//! Input generation and contract-preserving boosting.
//!
//! Base inputs are seeded pseudo-random blobs (registers + sandbox memory,
//! §2.4). *Boosting* asks the leakage model which input labels influence the
//! contract trace (dynamic taint over the contract's execution clause) and
//! mutates only the rest — yielding, for each base input, a class of inputs
//! with **provably identical contract traces** but fresh values everywhere
//! the contract does not look. Those are exactly the inputs that expose
//! speculative leaks as Definition 2.1 violations.
//!
//! The tainted run also yields the base's contract-trace digest, which every
//! mutant shares by construction, so boosting hands the detector each
//! input's contract-trace class ([`boosted_inputs_and_classes_into`]) and
//! the campaign never re-emulates a mutant.

use amulet_contracts::{LeakageModel, ModelScratch};
use amulet_isa::{FlatProgram, Gpr, TestInput};
use amulet_util::Xoshiro256;

/// Configuration for input generation.
#[derive(Debug, Clone, Copy)]
pub struct InputGenConfig {
    /// Number of independent base inputs per program.
    pub base_inputs: usize,
    /// Contract-preserving mutations derived from each base input. Total
    /// inputs per program = `base_inputs * (1 + mutations)` — the paper uses
    /// 140 inputs/program.
    pub mutations: usize,
    /// Sandbox pages.
    pub pages: usize,
}

impl Default for InputGenConfig {
    fn default() -> Self {
        InputGenConfig {
            base_inputs: 10,
            mutations: 13,
            pages: 1,
        }
    }
}

impl InputGenConfig {
    /// Total inputs generated per program.
    pub fn total(&self) -> usize {
        self.base_inputs * (1 + self.mutations)
    }
}

/// Labels the harness pins regardless of input content (`R14` = sandbox
/// base, `RSP` unused): mutating them would be meaningless.
fn is_pinned(label: usize) -> bool {
    label == Gpr::SANDBOX_BASE.index() || label == Gpr::Rsp.index()
}

/// Generates `cfg.base_inputs` random inputs plus `cfg.mutations`
/// contract-preserving mutants of each (input boosting).
///
/// The returned vector groups each base input with its mutants
/// consecutively; all members of a group have equal contract traces under
/// `model` (guaranteed by taint soundness, property-tested in
/// `tests/boosting.rs`).
pub fn boosted_inputs(
    model: &LeakageModel,
    flat: &FlatProgram,
    cfg: &InputGenConfig,
    rng: &mut Xoshiro256,
) -> Vec<TestInput> {
    let mut out = Vec::new();
    boosted_inputs_into(model, flat, cfg, rng, &mut ModelScratch::new(), &mut out);
    out
}

/// [`boosted_inputs`] with caller-owned scratch; the class digests of
/// [`boosted_inputs_and_classes_into`] are dropped.
pub fn boosted_inputs_into(
    model: &LeakageModel,
    flat: &FlatProgram,
    cfg: &InputGenConfig,
    rng: &mut Xoshiro256,
    scratch: &mut ModelScratch,
    out: &mut Vec<TestInput>,
) {
    boosted_inputs_and_classes_into(model, flat, cfg, rng, scratch, out, &mut Vec::new());
}

/// [`boosted_inputs`] with caller-owned scratch that also reports each
/// input's contract-trace class — the campaign hot path.
///
/// `classes[i]` is the contract-trace digest of `out[i]`: the base's
/// digest from its tainted run, repeated for its mutants (equal by taint
/// soundness; `tests/boosting_soundness.rs` checks it against full
/// re-emulation). It is the `class_digests` argument of
/// [`Detector::scan_classes`](crate::Detector::scan_classes).
///
/// `scratch` carries the taint engine, sandbox image and relevant-label
/// buffer across calls (see [`ModelScratch`]); `out`'s slots are recycled
/// across programs.
///
/// Mutants are built word-at-a-time: every *free* (non-relevant,
/// non-pinned) register and the whole sandbox image get fresh randomness,
/// then the contract-observed words are restored from the base. A
/// multi-page image is drawn seeded (see [`TestInput::randomize_mem`]), so
/// a mutant costs O(relevant words), not a draw per 8-byte word.
pub fn boosted_inputs_and_classes_into(
    model: &LeakageModel,
    flat: &FlatProgram,
    cfg: &InputGenConfig,
    rng: &mut Xoshiro256,
    scratch: &mut ModelScratch,
    out: &mut Vec<TestInput>,
    classes: &mut Vec<u64>,
) {
    let group = 1 + cfg.mutations;
    let mut restored = Vec::new();
    out.truncate(cfg.total());
    classes.clear();
    for b in 0..cfg.base_inputs {
        let base_idx = b * group;
        if out.len() <= base_idx {
            out.push(TestInput::zeroed(0));
        }
        out[base_idx].randomize(rng, cfg.pages);
        let (relevant, digest) =
            model.relevant_labels_and_ctrace_with(flat, &out[base_idx], scratch);
        classes.extend(std::iter::repeat_n(digest, group));
        restored.clear();
        restored.extend(
            relevant
                .iter()
                .filter_map(|label| label.checked_sub(16))
                .map(|word| (word, out[base_idx].word(word))),
        );
        for m in 1..group {
            let idx = base_idx + m;
            if out.len() <= idx {
                out.push(TestInput::zeroed(0));
            }
            let (head, tail) = out.split_at_mut(idx);
            let base = &head[base_idx];
            let mutant = &mut tail[0];
            // No base copy: registers are 128 bytes, and every memory byte
            // is either freshly drawn below or restored from the base
            // afterwards (the relevant words — a handful, not the image).
            mutant.regs = base.regs;
            mutant.flags_bits = base.flags_bits;
            for label in 0..16 {
                if !relevant.contains(label) && !is_pinned(label) {
                    mutant.regs[label] = rng.next_u64();
                }
            }
            mutant.randomize_mem(rng, base.pages());
            for &(word, value) in &restored {
                mutant.set_word(word, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_contracts::ContractKind;
    use amulet_isa::parse_program;

    const PROGRAM: &str = "
        AND RAX, 0b111111111111
        MOV RBX, qword ptr [R14 + RAX]
        CMP RBX, 5
        JNZ .skip
        AND RCX, 0b111111111111
        MOV RDX, qword ptr [R14 + RCX]
        .skip:
        EXIT";

    #[test]
    fn boosting_preserves_contract_traces() {
        let flat = parse_program(PROGRAM).unwrap().flatten();
        let cfg = InputGenConfig {
            base_inputs: 4,
            mutations: 5,
            pages: 1,
        };
        for kind in ContractKind::ALL {
            let model = LeakageModel::new(kind);
            let mut rng = Xoshiro256::seed_from_u64(42);
            let (mut inputs, mut classes) = (Vec::new(), Vec::new());
            let mut scratch = ModelScratch::new();
            boosted_inputs_and_classes_into(
                &model,
                &flat,
                &cfg,
                &mut rng,
                &mut scratch,
                &mut inputs,
                &mut classes,
            );
            assert_eq!(inputs.len(), cfg.total());
            assert_eq!(classes.len(), cfg.total());
            for (group, digests) in inputs
                .chunks(1 + cfg.mutations)
                .zip(classes.chunks(1 + cfg.mutations))
            {
                let reference = model.ctrace(&flat, &group[0]);
                for (m, &digest) in group.iter().zip(digests) {
                    assert_eq!(
                        model.ctrace(&flat, m),
                        reference,
                        "boosting broke contract equivalence under {kind}"
                    );
                    assert_eq!(digest, reference.digest(), "class digest under {kind}");
                }
            }
        }
    }

    #[test]
    fn mutants_actually_differ() {
        let flat = parse_program(PROGRAM).unwrap().flatten();
        let model = LeakageModel::new(ContractKind::CtSeq);
        let cfg = InputGenConfig {
            base_inputs: 2,
            mutations: 4,
            pages: 1,
        };
        let mut rng = Xoshiro256::seed_from_u64(7);
        let inputs = boosted_inputs(&model, &flat, &cfg, &mut rng);
        let mut distinct = 0;
        for group in inputs.chunks(1 + cfg.mutations) {
            for m in &group[1..] {
                if m != &group[0] {
                    distinct += 1;
                }
            }
        }
        assert!(distinct >= cfg.base_inputs * cfg.mutations / 2);
    }

    #[test]
    fn pinned_registers_untouched() {
        let flat = parse_program(PROGRAM).unwrap().flatten();
        let model = LeakageModel::new(ContractKind::CtSeq);
        let cfg = InputGenConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(3);
        for input in boosted_inputs(&model, &flat, &cfg, &mut rng) {
            assert_eq!(input.regs[Gpr::R14.index()], 0);
            assert_eq!(input.regs[Gpr::Rsp.index()], 0);
        }
    }
}
