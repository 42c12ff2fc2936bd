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
use amulet::isa::{Flags, FlatProgram, MemImage, Program, SeededImage, TestInput};
use amulet::sim::{SimConfig, Simulator};
use amulet::util::Xoshiro256;

/// Runs `programs` generated programs × `inputs_per` random inputs on a
/// `pages`-page sandbox through the emulator once, then through the
/// simulator under every defense × {PHT, STL} × {warped, stepped}: the
/// committed registers, flags and memory must match the emulator's. The
/// delay defenses hold speculative loads (DelayAll, STT) and stores
/// (STT-Patched) until they are safe, so a hold that is never released
/// fails here at the cycle cap instead of posing as a leak. A failure
/// prints a one-line seeded repro, then the program.
/// An emulator run's committed state: registers, flags, sandbox bytes.
type Arch = ([u64; 16], Flags, Vec<u8>);
/// A generated program with each of its inputs and their emulator state.
type Case = (Program, FlatProgram, Vec<(TestInput, Arch)>);

fn check_equivalence(seed: u64, rng_seed: u64, pages: usize, programs: usize, inputs_per: usize) {
    for source in [SpecSource::Pht, SpecSource::Stl] {
        let stl = source == SpecSource::Stl;
        let gen_cfg = GeneratorConfig {
            pages,
            stl_gadgets: stl,
            ..GeneratorConfig::default()
        };
        let mut generator = Generator::new(gen_cfg, seed);
        let mut rng = Xoshiro256::seed_from_u64(rng_seed);
        let mut cases: Vec<Case> = Vec::new();
        for _ in 0..programs {
            let program = generator.program();
            let flat = program.flatten();
            let runs = (0..inputs_per)
                .map(|_| {
                    let input = TestInput::random(&mut rng, pages);
                    let mut emu = Emulator::new(&flat, 0x4000, &input);
                    emu.run(&mut NullObserver, 100_000).expect("emulator runs");
                    let m = &mut emu.machine;
                    let arch = (m.regs, m.flags, m.sandbox.bytes().to_vec());
                    (input, arch)
                })
                .collect();
            cases.push((program, flat, runs));
        }

        for defense in DefenseKind::ALL {
            for warp in [true, false] {
                let sim_cfg = SimConfig {
                    stl_window: if stl { STL_WINDOW } else { 0 },
                    ..SimConfig::default()
                }
                .with_sandbox_pages(pages)
                .with_cycle_skip(warp);
                let mut sim = Simulator::new(sim_cfg, defense.build());
                for (p, (program, flat, runs)) in cases.iter().enumerate() {
                    for (i, (input, (regs, flags, bytes))) in runs.iter().enumerate() {
                        let repro = format!(
                            "defense {} source {source:?} warp {warp} pages {pages} \
                             seed {seed} inputs {rng_seed} program {p} input {i}",
                            defense.name()
                        );
                        sim.load_test(flat, input);
                        let res = sim.run();
                        assert!(
                            res.exit_cycle.is_some(),
                            "{repro}: simulator hit the cycle cap\n{program}"
                        );
                        assert_eq!(
                            sim.arch_regs(),
                            regs,
                            "{repro}: registers diverged\n{program}"
                        );
                        assert_eq!(
                            sim.arch_flags(),
                            *flags,
                            "{repro}: flags diverged\n{program}"
                        );
                        assert!(
                            sim.sandbox_bytes() == bytes.as_slice(),
                            "{repro}: memory diverged\n{program}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn random_programs_agree_across_engines_seed1() {
    check_equivalence(1, 1 ^ 0xDEAD_BEEF, 1, 40, 4);
}

#[test]
fn random_programs_agree_across_engines_seed2() {
    check_equivalence(20_260_610, 20_260_610 ^ 0xDEAD_BEEF, 1, 40, 4);
}

#[test]
fn random_programs_agree_across_engines_large_sandbox() {
    check_equivalence(77, 78, 8, 20, 1);
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
