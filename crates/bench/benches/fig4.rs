//! Figure 4 — the InvisiSpec UV1 example, with the paper's assembly
//! verbatim: a mis-speculated access evicts a conflicting line from a full
//! L1D set, leaking its address through the eviction.

use amulet_bench::banner;
use amulet_defenses::{gadgets::FIG4, InvisiSpec};
use amulet_isa::{parse_program, TestInput};
use amulet_sim::{SimConfig, Simulator};

fn run(defense: InvisiSpec, secret: u64) -> Vec<u64> {
    let flat = parse_program(FIG4).unwrap().flatten();
    let mut sim = Simulator::new(SimConfig::default(), Box::new(defense));
    for _ in 0..12 {
        let mut t = TestInput::zeroed(1);
        t.regs[0] = 1; // AL=1 keeps ZF clear -> LOOPNE taken
        t.regs[2] = 40;
        sim.load_test(&flat, &t);
        sim.run();
    }
    sim.flush_caches();
    sim.prefill_l1d_conflicting();
    let mut v = TestInput::zeroed(1);
    v.regs[2] = 1; // LOOPNE falls through, predicted taken
    v.regs[3] = 0x200; // the OR's RMW load misses: long window
    v.regs[1] = secret;
    sim.load_test(&flat, &v);
    sim.run();
    sim.snapshot().l1d
}

fn main() {
    banner(
        "Figure 4",
        "InvisiSpec UV1: speculative L1D eviction leak (paper asm)",
    );
    println!("{}", parse_program(FIG4).unwrap());
    for (name, defense) in [
        ("InvisiSpec (published)", InvisiSpec::published()),
        ("InvisiSpec (patched)", InvisiSpec::patched()),
    ] {
        let a = run(defense, 0xA00);
        let b = run(defense, 0x100);
        let evicted_in_a: Vec<u64> = b.iter().filter(|x| !a.contains(x)).copied().collect();
        let evicted_in_b: Vec<u64> = a.iter().filter(|x| !b.contains(x)).copied().collect();
        println!(
            "{name}: input A evicts {evicted_in_a:x?}, input B evicts {evicted_in_b:x?}  => {}",
            if a == b { "no leak" } else { "LEAKS (UV1)" }
        );
    }
    println!("\nPaper: the speculative address is leaked via the evicted line (Fig. 4b).");
}
