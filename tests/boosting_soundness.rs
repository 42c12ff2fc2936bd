//! Property tests for the taint-based input-boosting soundness guarantee:
//! mutating input elements the taint engine marks non-relevant must preserve
//! the contract trace, for random programs, inputs, and every contract.
//!
//! This is the property the whole detection pipeline rests on — if it broke,
//! "same contract trace" classes would be polluted and every violation
//! suspect. (Seeded-loop property tests; the workspace carries no external
//! dependencies.)

use amulet::contracts::{ContractKind, LeakageModel};
use amulet::fuzz::{boosted_inputs, Generator, GeneratorConfig, InputGenConfig};
use amulet::isa::TestInput;
use amulet::util::Xoshiro256;

/// Derives `n` pseudo-random property seeds from a fixed meta-seed.
fn seeds(n: usize) -> Vec<u64> {
    let mut rng = Xoshiro256::seed_from_u64(0x0B00_57E6);
    (0..n).map(|_| rng.next_u64() % 1_000_000).collect()
}

/// Checks boosting at one sandbox size: 1 page (byte images) and 128 pages
/// (seeded images, page-addressed word labels, the STT shape).
fn check_seed(seed: u64, kind: ContractKind, pages: usize) {
    let mut generator = Generator::new(
        GeneratorConfig {
            pages,
            ..GeneratorConfig::default()
        },
        seed,
    );
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xABCD);
    let model = LeakageModel::new(kind);
    let cfg = InputGenConfig {
        base_inputs: 2,
        mutations: 3,
        pages,
    };
    for _ in 0..3 {
        let program = generator.program();
        let flat = program.flatten();
        let inputs = boosted_inputs(&model, &flat, &cfg, &mut rng);
        for group in inputs.chunks(1 + cfg.mutations) {
            let reference = model.ctrace(&flat, &group[0]);
            for (mi, mutant) in group[1..].iter().enumerate() {
                assert_eq!(
                    model.ctrace(&flat, mutant).digest(),
                    reference.digest(),
                    "boosting broke {kind} on seed {seed} ({pages} pages) mutant {mi}\n{program}"
                );
            }
        }
    }
}

#[test]
fn boosting_preserves_ct_seq() {
    for seed in seeds(12) {
        check_seed(seed, ContractKind::CtSeq, 1);
        check_seed(seed, ContractKind::CtSeq, 128);
    }
}

#[test]
fn boosting_preserves_ct_cond() {
    for seed in seeds(12) {
        check_seed(seed, ContractKind::CtCond, 1);
        check_seed(seed, ContractKind::CtCond, 128);
    }
}

#[test]
fn boosting_preserves_arch_seq() {
    for seed in seeds(12) {
        check_seed(seed, ContractKind::ArchSeq, 1);
        check_seed(seed, ContractKind::ArchSeq, 128);
    }
}

#[test]
fn boosting_preserves_ct_bpas() {
    for seed in seeds(12) {
        check_seed(seed, ContractKind::CtBpas, 1);
        check_seed(seed, ContractKind::CtBpas, 128);
    }
}

/// Fully random (non-boosted) mutation of a *relevant* label generally
/// changes the contract trace — boosting is not vacuous.
#[test]
fn relevant_labels_matter() {
    for seed in seeds(12) {
        let mut generator = Generator::new(GeneratorConfig::default(), seed);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let model = LeakageModel::new(ContractKind::CtSeq);
        let mut changed = 0usize;
        let mut total = 0usize;
        for _ in 0..3 {
            let program = generator.program();
            let flat = program.flatten();
            let base = TestInput::random(&mut rng, 1);
            let relevant = model.relevant_labels(&flat, &base);
            let reference = model.ctrace(&flat, &base);
            for label in relevant.iter().take(4) {
                if label == 14 || label == 7 {
                    continue; // pinned by the harness
                }
                let mut m = base.clone();
                m.set_label(label, m.label_value(label) ^ 0xFFFF_FFFF);
                total += 1;
                if model.ctrace(&flat, &m) != reference {
                    changed += 1;
                }
            }
        }
        // Not every relevant label flips the trace for every value, but at
        // least one should across a few programs (sanity of the taint).
        assert!(
            total == 0 || changed > 0,
            "seed {seed}: no relevant label affected any trace"
        );
    }
}
