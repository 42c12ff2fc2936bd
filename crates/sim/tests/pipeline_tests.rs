//! Integration tests for the out-of-order pipeline: architectural
//! equivalence with the emulator, determinism, and the speculation
//! mechanisms (Spectre-v1 via branch misprediction, Spectre-v4 via
//! memory-dependence speculation) that the whole paper rests on.

use amulet_emu::{Emulator, NullObserver};
use amulet_isa::{parse_program, TestInput};
use amulet_sim::{DebugEvent, InsecureBaseline, SimConfig, Simulator, SquashReason};

fn fresh_sim() -> Simulator {
    Simulator::new(SimConfig::default(), Box::new(InsecureBaseline))
}

/// Runs program+input on both engines and asserts identical committed
/// architectural state.
fn assert_equivalent(src: &str, input: &TestInput) {
    let flat = parse_program(src).unwrap().flatten();

    let mut emu = Emulator::new(&flat, 0x4000, input);
    emu.run(&mut NullObserver, 100_000).unwrap();

    let mut sim = fresh_sim();
    sim.load_test(&flat, input);
    let res = sim.run();
    assert!(res.exit_cycle.is_some(), "simulator must reach EXIT: {src}");

    assert_eq!(
        sim.arch_regs(),
        &emu.machine.regs,
        "register state diverged for:\n{src}"
    );
    assert_eq!(
        sim.arch_flags(),
        emu.machine.flags,
        "flags diverged for:\n{src}"
    );
    assert_eq!(
        sim.sandbox_bytes(),
        emu.machine.sandbox.bytes(),
        "memory diverged for:\n{src}"
    );
}

#[test]
fn equivalence_straight_line_alu() {
    let mut input = TestInput::zeroed(1);
    input.regs[0] = 1000;
    input.regs[1] = 77;
    assert_equivalent(
        "MOV RAX, 10
         ADD RAX, RBX
         SUB RAX, 5
         XOR RBX, RAX
         SHL RBX, 2
         NOT RAX
         NEG RBX
         INC RAX
         IMUL RAX, RBX
         EXIT",
        &input,
    );
}

#[test]
fn equivalence_partial_width_writes() {
    let mut input = TestInput::zeroed(1);
    input.regs[0] = 0x1122_3344_5566_7788;
    input.regs[1] = 0xFFFF_FFFF_FFFF_FFFF;
    assert_equivalent(
        "MOV BL, 0x12
         AND BL, 34
         MOV EAX, EBX
         ADD AX, BX
         CMOVNZ SI, BX
         SETZ DL
         EXIT",
        &input,
    );
}

#[test]
fn equivalence_memory_ops() {
    let mut input = TestInput::zeroed(1);
    input.regs[0] = 16;
    input.regs[5] = 0xAB;
    input.set_word(2, 0x1234_5678);
    assert_equivalent(
        "MOV RBX, qword ptr [R14 + RAX]
         ADD RBX, 1
         MOV qword ptr [R14 + 32], RBX
         XOR qword ptr [R14 + 32], RDI
         OR byte ptr [R14 + 8], AL
         MOV RCX, qword ptr [R14 + 32]
         EXIT",
        &input,
    );
}

#[test]
fn equivalence_branches_and_loops() {
    for rax in [0u64, 1, 5] {
        let mut input = TestInput::zeroed(1);
        input.regs[0] = rax;
        input.regs[2] = 3; // RCX for LOOP
        assert_equivalent(
            "CMP RAX, 1
             JZ .one
             JNLE .big
             MOV RBX, 100
             JMP .end
             .one:
             MOV RBX, 111
             JMP .end
             .big:
             MOV RBX, 222
             .loop:
             ADD RBX, 1
             LOOP .loop
             .end:
             EXIT",
            &input,
        );
    }
}

#[test]
fn equivalence_store_load_forwarding() {
    let mut input = TestInput::zeroed(1);
    input.regs[1] = 0xDEAD;
    input.set_word(8, 0xBEEF);
    assert_equivalent(
        "MOV qword ptr [R14 + 64], RBX
         MOV RAX, qword ptr [R14 + 64]
         ADD RAX, 1
         MOV qword ptr [R14 + 64], RAX
         MOV RDX, qword ptr [R14 + 64]
         EXIT",
        &input,
    );
}

#[test]
fn equivalence_store_bypass_and_squash() {
    // The store address depends on a slow load; the younger load bypasses it
    // and must be squashed and re-executed with the correct value.
    let mut input = TestInput::zeroed(1);
    input.set_word(64, 64); // store address = 64
    input.set_word(8, 0x0AAA); // stale value at [64]
    input.regs[1] = 0x0BBB; // value the store writes
    assert_equivalent(
        "MOV RAX, qword ptr [R14 + 512]
         AND RAX, 0b111111111
         MOV qword ptr [R14 + RAX], RBX
         MOV RCX, qword ptr [R14 + 64]
         AND RCX, 0b111111111111
         MOV RDX, qword ptr [R14 + RCX]
         EXIT",
        &input,
    );
}

#[test]
fn equivalence_cmov_always_loads() {
    let mut input = TestInput::zeroed(1);
    input.set_word(1, 0x42);
    assert_equivalent(
        "CMP RAX, 1
         CMOVZ RBX, qword ptr [R14 + 8]
         CMOVNZ RCX, qword ptr [R14 + 8]
         EXIT",
        &input,
    );
}

#[test]
fn equivalence_fence() {
    let mut input = TestInput::zeroed(1);
    input.regs[0] = 3;
    assert_equivalent(
        "MOV RBX, qword ptr [R14 + 8]
         LFENCE
         ADD RBX, RAX
         EXIT",
        &input,
    );
}

#[test]
fn determinism_same_input_same_snapshot() {
    let src = "
        CMP RAX, 0
        JNZ .a
        MOV RBX, qword ptr [R14 + 128]
        .a:
        AND RBX, 0b111111111111
        MOV RDX, qword ptr [R14 + RBX]
        EXIT";
    let flat = parse_program(src).unwrap().flatten();
    let mut input = TestInput::zeroed(1);
    input.regs[1] = 0x300;

    let run = || {
        let mut sim = fresh_sim();
        sim.load_test(&flat, &input);
        let r = sim.run();
        (r, sim.snapshot())
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1, r2);
    assert_eq!(s1, s2);
}

#[test]
fn cache_and_tlb_footprint_recorded() {
    let flat = parse_program("MOV RAX, qword ptr [R14 + 8]\nEXIT")
        .unwrap()
        .flatten();
    let mut sim = fresh_sim();
    sim.load_test(&flat, &TestInput::zeroed(1));
    sim.run();
    let snap = sim.snapshot();
    assert!(snap.l1d.contains(&0x4000), "accessed line cached");
    assert!(snap.dtlb.contains(&4), "page 4 (0x4000) in TLB");
    assert!(!snap.l1i.is_empty(), "code lines fetched");
    assert!(snap
        .mem_order
        .iter()
        .any(|&(pc, addr, st)| pc == 0 && addr == 0x4000 && !st));
}

/// Spectre-v1 on the insecure baseline: after training the branch taken, a
/// run where it falls through mis-speculates into the leaking block, and the
/// wrong-path load's line lands in the cache.
#[test]
fn spectre_v1_leaks_on_baseline() {
    // The branch condition hides behind a cache miss, opening the
    // speculation window (as in real Spectre-v1 gadgets).
    let src = "
        MOV RAX, qword ptr [R14 + 256]
        CMP RAX, 0
        JNZ .body
        JMP .exit
        .body:
        AND RBX, 0b111111111111
        MOV RDX, qword ptr [R14 + RBX]
        JMP .exit
        .exit:
        EXIT";
    let flat = parse_program(src).unwrap().flatten();
    let mut sim = fresh_sim();

    // Train: branch taken repeatedly (mem word 32 != 0), benign RBX. Each
    // run shifts one outcome into the GHR; after ghr_bits runs the history
    // saturates, so later runs train the same PHT entry the victim run will
    // consult.
    for _ in 0..12 {
        let mut t = TestInput::zeroed(1);
        t.set_word(32, 1);
        t.regs[1] = 0; // loads [R14+0]
        sim.load_test(&flat, &t);
        sim.run();
    }

    // Victim: word 32 == 0 (architecturally skips .body), secret-dependent
    // RBX.
    let mut secret_a = TestInput::zeroed(1);
    secret_a.regs[1] = 0x740; // line 0x4740
    sim.flush_caches();
    sim.load_test(&flat, &secret_a);
    let res = sim.run();
    assert!(res.squashes > 0, "must mispredict after training");
    let snap = sim.snapshot();
    assert!(
        snap.l1d.contains(&0x4740),
        "wrong-path load leaked its address into L1D: {:x?}",
        snap.l1d
    );
    assert!(sim.log().any(|e| matches!(
        e,
        DebugEvent::Squash {
            reason: SquashReason::BranchMispredict,
            ..
        }
    )));
}

/// Spectre-v4 on the insecure baseline: a load bypasses an older store with
/// an unresolved address, reads the stale value, and a dependent load leaks
/// it before the squash.
#[test]
fn spectre_v4_leaks_on_baseline() {
    // Warm [64] so the stale load hits L1 and the transmitter issues long
    // before the store's (slow, cache-missing) address resolves.
    let src = "
        MOV R9, qword ptr [R14 + 64]
        LFENCE
        MOV RAX, qword ptr [R14 + 512]
        AND RAX, 0b111111111
        MOV qword ptr [R14 + RAX], RBX
        MOV RCX, qword ptr [R14 + 64]
        AND RCX, 0b111111111111
        MOV RDX, qword ptr [R14 + RCX]
        EXIT";
    let flat = parse_program(src).unwrap().flatten();
    let mut input = TestInput::zeroed(1);
    input.set_word(64, 64); // store address resolves to 64
    input.set_word(8, 0xA80); // stale secret at [64] -> leaks line 0x4A80
    input.regs[1] = 0x123; // value the store writes (architectural)

    let mut sim = fresh_sim();
    sim.load_test(&flat, &input);
    let res = sim.run();
    assert!(
        sim.log().any(|e| matches!(
            e,
            DebugEvent::Squash {
                reason: SquashReason::MemOrderViolation,
                ..
            }
        )),
        "store-bypass violation must squash (squashes={})",
        res.squashes
    );
    let snap = sim.snapshot();
    assert!(
        snap.l1d.contains(&0x4A80),
        "stale-value-derived line leaked: {:x?}",
        snap.l1d
    );
}

#[test]
fn post_exit_fetch_ahead_touches_icache() {
    // One giant-latency load delays EXIT commit; fetch-ahead keeps touching
    // I-lines past the end of the program (the KV2 channel).
    let src = "MOV RAX, qword ptr [R14 + 8]\nADD RAX, 1\nEXIT";
    let flat = parse_program(src).unwrap().flatten();
    let mut sim = fresh_sim();
    sim.load_test(&flat, &TestInput::zeroed(1));
    sim.run();
    let snap = sim.snapshot();
    assert!(
        snap.l1i.len() > 1,
        "fetch-ahead should touch lines past EXIT: {:x?}",
        snap.l1i
    );
}

#[test]
fn prefill_fills_every_set() {
    let mut sim = fresh_sim();
    sim.prefill_l1d_conflicting();
    let snap = sim.snapshot();
    let cfg = SimConfig::default();
    assert_eq!(snap.l1d.len(), cfg.l1d.sets * cfg.l1d.ways);
    // A sandbox access now causes an eviction (visible in the snapshot).
    let flat = parse_program("MOV RAX, qword ptr [R14 + 8]\nEXIT")
        .unwrap()
        .flatten();
    sim.load_test(&flat, &TestInput::zeroed(1));
    sim.run();
    let after = sim.snapshot();
    assert!(after.l1d.contains(&0x4000));
    assert_eq!(
        after.l1d.len(),
        cfg.l1d.sets * cfg.l1d.ways,
        "set still full"
    );
}

#[test]
fn context_roundtrip_reproduces_runs() {
    let src = "
        CMP RAX, 0
        JNZ .a
        MOV RBX, qword ptr [R14 + 64]
        .a:
        EXIT";
    let flat = parse_program(src).unwrap().flatten();
    let mut sim = fresh_sim();
    // Perturb predictor state.
    for i in 0..3 {
        let mut t = TestInput::zeroed(1);
        t.regs[0] = i % 2;
        sim.load_test(&flat, &t);
        sim.run();
    }
    let ctx = sim.context();
    let mut input = TestInput::zeroed(1);
    input.regs[0] = 0;

    sim.flush_caches();
    sim.load_test(&flat, &input);
    sim.run();
    let snap1 = sim.snapshot();

    // New simulator, restored context: identical behaviour.
    let mut sim2 = fresh_sim();
    sim2.set_context(&ctx);
    sim2.flush_caches();
    sim2.load_test(&flat, &input);
    sim2.run();
    assert_eq!(snap1, sim2.snapshot());
}

#[test]
fn rcx_register_pressure_loop_terminates() {
    // LOOP with a big RCX exercises the backward-branch path; the cycle cap
    // must not trigger for a reasonable count.
    let mut input = TestInput::zeroed(1);
    input.regs[2] = 50;
    assert_equivalent(
        ".top:
         ADD RAX, 2
         LOOP .top
         EXIT",
        &input,
    );
}

#[test]
fn wrong_path_never_corrupts_architectural_state() {
    // Mispredicted path writes registers and stores; squash must erase all
    // architectural effects (memory journal equivalent in the sim: stores
    // only commit in order).
    for (rax, rbx) in [(0u64, 0x10u64), (1, 0x20), (0, 0x30)] {
        let mut input = TestInput::zeroed(1);
        input.regs[0] = rax;
        input.regs[1] = rbx;
        assert_equivalent(
            "CMP RAX, 0
             JNZ .wrong
             JMP .exit
             .wrong:
             MOV RCX, 0xFF
             AND RBX, 0b1111111111
             MOV qword ptr [R14 + RBX], RCX
             .exit:
             EXIT",
            &input,
        );
    }
}

/// Two mispredicted branches on the same flags resolve in the same cycle.
/// Completion visits them oldest first, as a walk of the window would: the
/// older one squashes the younger before it can resolve, so the case sees
/// exactly one squash.
#[test]
fn same_cycle_mispredicts_resolve_oldest_first() {
    // The load misses, so both branches wait on the CMP and issue together.
    // An untrained predictor says not-taken; RAX = 0 makes both taken.
    let src = "
        MOV RAX, qword ptr [R14 + 256]
        CMP RAX, 0
        JZ .a
        JZ .b
        EXIT
        .a:
        EXIT
        .b:
        EXIT";
    let flat = parse_program(src).unwrap().flatten();
    let mut sim = fresh_sim();
    sim.load_test(&flat, &TestInput::zeroed(1));
    let res = sim.run();
    assert!(res.exit_cycle.is_some());
    assert_eq!(res.squashes, 1, "the younger branch must die unresolved");
    let predicts = sim
        .log()
        .events()
        .iter()
        .filter(|e| matches!(e, DebugEvent::Predict { .. }))
        .count();
    assert_eq!(predicts, 2, "both branches were fetched before resolving");
}
