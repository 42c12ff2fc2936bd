//! Micro-benchmarks of the substrate: simulator cycles/second, emulator
//! throughput, contract-trace extraction, taint-based boosting, program
//! generation, and seeded sandbox images — the per-component costs that the
//! paper's Table 2 breaks down for gem5.
//!
//! Self-timed (median-of-batches) harness; the workspace carries no
//! external benchmarking dependency.

use amulet_bench::time_fn;
use amulet_contracts::{ContractKind, LeakageModel};
use amulet_core::{boosted_inputs, Generator, GeneratorConfig, InputGenConfig};
use amulet_defenses::DefenseKind;
use amulet_emu::{Emulator, NullObserver};
use amulet_isa::{SeededImage, TestInput, LINE_SIZE, PAGE_SIZE};
use amulet_sim::{SimConfig, Simulator};
use amulet_util::{Basis, Xoshiro256};
use std::hint::black_box;
use std::time::Instant;

fn fixture() -> (amulet_isa::SharedProgram, TestInput) {
    let mut generator = Generator::new(GeneratorConfig::default(), 7);
    let program = generator.program();
    let mut rng = Xoshiro256::seed_from_u64(8);
    let input = TestInput::random(&mut rng, 1);
    (program.flatten_shared(), input)
}

fn bench_simulator() {
    let (flat, input) = fixture();
    let mut sim = Simulator::new(SimConfig::default(), DefenseKind::Baseline.build());
    time_fn("simulator_run_one_case", || {
        sim.load_test_shared(black_box(&flat), black_box(&input));
        black_box(sim.run());
    });

    let mut stt = Simulator::new(
        SimConfig::default().with_sandbox_pages(128),
        DefenseKind::Stt.build(),
    );
    let input128 = TestInput::random(&mut Xoshiro256::seed_from_u64(9), 128);
    time_fn("simulator_run_one_case_stt", || {
        stt.load_test_shared(black_box(&flat), black_box(&input128));
        black_box(stt.run());
    });
}

fn bench_emulator() {
    let (flat, input) = fixture();
    time_fn("emulator_run_one_case", || {
        let mut emu = Emulator::new(black_box(&flat), 0x4000, black_box(&input));
        black_box(emu.run(&mut NullObserver, 100_000).unwrap());
    });
}

fn bench_contracts() {
    let (flat, input) = fixture();
    for kind in [ContractKind::CtSeq, ContractKind::CtCond] {
        let model = LeakageModel::new(kind);
        time_fn(&format!("ctrace_{}", kind.name()), || {
            black_box(model.ctrace(black_box(&flat), black_box(&input)));
        });
    }
    let model = LeakageModel::new(ContractKind::CtSeq);
    time_fn("taint_relevant_labels", || {
        black_box(model.relevant_labels(black_box(&flat), black_box(&input)));
    });
}

fn bench_generation() {
    let mut generator = Generator::new(GeneratorConfig::default(), 1);
    time_fn("generate_program", || {
        black_box(generator.program());
    });
    let (flat, _) = fixture();
    let model = LeakageModel::new(ContractKind::CtSeq);
    let mut rng = Xoshiro256::seed_from_u64(2);
    let cfg = InputGenConfig {
        base_inputs: 4,
        mutations: 6,
        pages: 1,
    };
    time_fn("boosted_inputs_4x6", || {
        black_box(boosted_inputs(&model, &flat, &cfg, &mut rng));
    });
}

/// Seeded sandbox images: the one-off build of the jump-ladder rungs a
/// 128-page image uses (0–7), one rung application, the basis walk a load
/// pays on its first line draw, one line jump through that basis against
/// the same jump along the ladder, and filling a page eagerly against
/// copying it.
fn bench_images() {
    let t0 = Instant::now();
    Xoshiro256::seed_from_u64(1).advance(512 * 255);
    println!(
        "{:<32} {:>10.2} µs once per process",
        "jump_ladder_build_128p",
        t0.elapsed().as_secs_f64() * 1e6
    );
    let mut rng = Xoshiro256::seed_from_u64(3);
    time_fn("rng_advance_one_table", || {
        black_box(&mut rng).advance(black_box(1 << 16));
    });
    let start = rng.clone();
    let image = SeededImage::draw(&mut rng, 128 * PAGE_SIZE);
    let mut basis = Basis::new();
    time_fn("basis_walk", || {
        black_box(&image).walk_basis(&mut basis);
    });
    let mut line = 0;
    time_fn("basis_line_jump_128p", || {
        line = (line + 4099) % (128 * PAGE_SIZE / LINE_SIZE);
        black_box(basis.line(black_box(line)));
    });
    time_fn("ladder_line_jump_128p", || {
        line = (line + 4099) % (128 * PAGE_SIZE / LINE_SIZE);
        let mut jumped = start.clone();
        jumped.advance(black_box(8 * line as u64));
        black_box(jumped);
    });
    let mut page = vec![0u8; PAGE_SIZE];
    time_fn("eager_page_fill", || {
        rng.fill_bytes(black_box(&mut page));
    });
    let source = page.clone();
    time_fn("page_copy", || {
        page.copy_from_slice(black_box(&source));
    });
}

fn main() {
    println!("micro: per-component costs (median [quartiles] of batches)");
    bench_images();
    bench_simulator();
    bench_emulator();
    bench_contracts();
    bench_generation();
}
