//! Cross-engine architectural equivalence: for random generated programs and
//! inputs, the out-of-order simulator's committed state must be
//! bit-identical to the architectural emulator's — otherwise contract
//! violations could stem from semantic drift instead of speculation.
//!
//! Also the seeded-image differential: an input whose sandbox image is
//! seeded (drawn page by page on demand) must be indistinguishable from its
//! materialised byte copy to every consumer.

use amulet::contracts::{ContractKind, LeakageModel};
use amulet::defenses::DefenseKind;
use amulet::emu::{Emulator, NullObserver};
use amulet::fuzz::{Executor, ExecutorConfig, Generator, GeneratorConfig, SpecSource, STL_WINDOW};
use amulet::isa::{FlatProgram, MemImage, SeededImage, TestInput};
use amulet::sim::{InsecureBaseline, SimConfig, Simulator};
use amulet::util::Xoshiro256;

fn check_equivalence(seed: u64, programs: usize, inputs_per: usize) {
    let mut generator = Generator::new(GeneratorConfig::default(), seed);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut sim = Simulator::new(SimConfig::default(), Box::new(InsecureBaseline));
    for p in 0..programs {
        let program = generator.program();
        let flat = program.flatten();
        for i in 0..inputs_per {
            let input = TestInput::random(&mut rng, 1);

            let mut emu = Emulator::new(&flat, 0x4000, &input);
            emu.run(&mut NullObserver, 100_000).expect("emulator runs");

            sim.load_test(&flat, &input);
            let res = sim.run();
            assert!(
                res.exit_cycle.is_some(),
                "seed {seed} program {p} input {i}: simulator hit the cycle cap\n{program}"
            );

            assert_eq!(
                sim.arch_regs(),
                &emu.machine.regs,
                "seed {seed} program {p} input {i}: registers diverged\n{program}"
            );
            assert_eq!(
                sim.arch_flags(),
                emu.machine.flags,
                "seed {seed} program {p} input {i}: flags diverged\n{program}"
            );
            assert_eq!(
                sim.sandbox_bytes(),
                emu.machine.sandbox.bytes(),
                "seed {seed} program {p} input {i}: memory diverged\n{program}"
            );
        }
    }
}

#[test]
fn random_programs_agree_across_engines_seed1() {
    check_equivalence(1, 40, 4);
}

#[test]
fn random_programs_agree_across_engines_seed2() {
    check_equivalence(20_260_610, 40, 4);
}

#[test]
fn random_programs_agree_across_engines_large_sandbox() {
    let cfg = GeneratorConfig {
        pages: 8,
        ..GeneratorConfig::default()
    };
    let mut generator = Generator::new(cfg, 77);
    let mut rng = Xoshiro256::seed_from_u64(78);
    let sim_cfg = SimConfig::default().with_sandbox_pages(8);
    let mut sim = Simulator::new(sim_cfg, Box::new(InsecureBaseline));
    for _ in 0..20 {
        let program = generator.program();
        let flat = program.flatten();
        let input = TestInput::random(&mut rng, 8);
        let mut emu = Emulator::new(&flat, 0x4000, &input);
        emu.run(&mut NullObserver, 100_000).expect("emulator runs");
        sim.load_test(&flat, &input);
        sim.run();
        assert_eq!(sim.arch_regs(), &emu.machine.regs, "{program}");
        assert_eq!(
            sim.sandbox_bytes(),
            emu.machine.sandbox.bytes(),
            "{program}"
        );
    }
}

/// `input`'s registers over a freshly drawn seeded image, and over an
/// eager byte image built independently of the seeded read path: the
/// `fill_bytes` output of the same generator state with the same word
/// overrides written on top. The overrides land on the memory words the
/// value-observing ARCH-SEQ contract reports for `input`, so the program
/// really reads them.
fn seeded_and_bytes(
    flat: &FlatProgram,
    input: &TestInput,
    rng: &mut Xoshiro256,
) -> (TestInput, TestInput) {
    let observed = LeakageModel::new(ContractKind::ArchSeq).relevant_labels(flat, input);
    let mut eager = vec![0; input.mem_len()];
    rng.clone().fill_bytes(&mut eager);
    let mut image = SeededImage::draw(rng, input.mem_len());
    for word in observed.iter().filter_map(|label| label.checked_sub(16)) {
        let value = rng.next_u64();
        image.set_word(word, value);
        eager[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
    }
    let mut seeded = input.clone();
    seeded.set_mem_image(MemImage::Seeded(image));
    let mut bytes = input.clone();
    bytes.set_mem_image(MemImage::Bytes(eager));
    (seeded, bytes)
}

/// 12 defenses × {PHT, STL} × {1, 128} pages: a seeded input and its byte
/// copy give equal contract-trace digests and relevant labels under every
/// contract, and equal trace digests and `SimResult`s under every defense.
#[test]
fn seeded_images_are_indistinguishable_from_their_bytes() {
    for pages in [1usize, 128] {
        for source in [SpecSource::Pht, SpecSource::Stl] {
            let stl = source == SpecSource::Stl;
            let what = format!("{pages} pages, {source:?}");
            let mut generator = Generator::new(
                GeneratorConfig {
                    pages,
                    stl_gadgets: stl,
                    ..GeneratorConfig::default()
                },
                91,
            );
            let mut rng = Xoshiro256::seed_from_u64(92 ^ pages as u64);
            let mut cases = Vec::new();
            for _ in 0..3 {
                let flat = generator.program().flatten_shared();
                for _ in 0..4 {
                    let input = TestInput::random(&mut rng, pages);
                    let (seeded, bytes) = seeded_and_bytes(&flat, &input, &mut rng);
                    assert_eq!(seeded, bytes, "{what}: content equality");
                    cases.push((flat.clone(), seeded, bytes));
                }
            }

            for kind in ContractKind::ALL {
                let model = LeakageModel::new(kind);
                for (flat, seeded, bytes) in &cases {
                    assert_eq!(
                        model.ctrace(flat, seeded).digest(),
                        model.ctrace(flat, bytes).digest(),
                        "{what}: {kind} contract trace"
                    );
                    assert_eq!(
                        model.relevant_labels(flat, seeded),
                        model.relevant_labels(flat, bytes),
                        "{what}: {kind} relevant labels"
                    );
                }
            }

            for defense in DefenseKind::ALL {
                let cfg = ExecutorConfig {
                    sim: SimConfig {
                        stl_window: if stl { STL_WINDOW } else { 0 },
                        ..SimConfig::default()
                    }
                    .with_sandbox_pages(pages),
                    keep_sandbox: true,
                    ..ExecutorConfig::new(defense)
                };
                let mut on_seeded = Executor::new(cfg.clone());
                let mut on_bytes = Executor::new(cfg);
                for (flat, seeded, bytes) in &cases {
                    let s = on_seeded.run_case(flat, seeded);
                    let b = on_bytes.run_case(flat, bytes);
                    assert_eq!(s.digest, b.digest, "{what}: {} digest", defense.name());
                    assert_eq!(s.result, b.result, "{what}: {} SimResult", defense.name());
                }
            }
        }
    }
}
