//! Reusable Spectre gadget builders for tests, examples, and benches.
//!
//! The shared shape is a **long-window Spectre-v1 victim**: the branch
//! condition hides behind a two-level dependent cache-miss chain
//! (≈2× memory latency), so mis-speculated payloads have ample time to
//! issue, complete, and change µarch state before the squash — mirroring
//! the windows that make real Spectre gadgets exploitable.

use amulet_isa::TestInput;

/// Builds a long-window Spectre-v1 victim around `payload` (the
/// mis-speculated block). The prelude only uses `R10`/`R11`, so payloads
/// may clobber `RAX`–`RDI` and `R9`, `R12`, `R13` freely.
///
/// Structure:
///
/// ```text
///   R10 <- [R14+256]            ; miss
///   R11 <- [R14+R10+512]        ; dependent miss (the slow condition)
///   if R11 != 0 goto .body      ; trained taken; victim falls through
///   goto .exit
/// .body:                        ; mis-speculated on victim inputs
///   <payload>
/// .exit:
///   EXIT
/// ```
pub fn spectre_v1(payload: &str) -> String {
    format!(
        "MOV R10, qword ptr [R14 + 256]
         AND R10, 0b111111
         MOV R11, qword ptr [R14 + R10 + 512]
         CMP R11, 0
         JNZ .body
         JMP .exit
         .body:
         {payload}
         JMP .exit
         .exit:
         EXIT"
    )
}

/// A training input: the branch resolves *taken* ([`spectre_v1`]'s `.body`
/// runs architecturally with benign registers).
pub fn train_input(pages: usize) -> TestInput {
    let mut t = TestInput::zeroed(pages);
    t.set_word(32, 1); // [256] = 1  -> RAX = 1
    t.set_word(64, 0xFF00); // byte 513 = 0xFF -> RCX != 0 -> taken
    t
}

/// A victim input: the branch resolves *not taken* (zeroed condition chain),
/// so a taken-trained predictor sends fetch down `.body` speculatively.
pub fn victim_input(pages: usize) -> TestInput {
    TestInput::zeroed(pages)
}

/// Standard payloads, named after what they exercise.
pub mod payload {
    /// A single masked load whose address is the (register) secret `RBX` —
    /// the paper's Fig. 8(b) shape (UV6) and the basic Spectre-v1
    /// transmitter.
    pub const SINGLE_LOAD: &str = "AND RBX, 0b111111111111
         MOV RDX, qword ptr [R14 + RBX]";

    /// Access load + dependent transmitter load: the secret is
    /// *speculatively loaded* from memory (`[R14+RBX]`), then encoded in a
    /// second load's address — what STT must block.
    pub const DOUBLE_LOAD: &str = "AND RBX, 0b111111111111
         MOV RDX, qword ptr [R14 + RBX]
         AND RDX, 0b111111111111
         MOV RSI, qword ptr [R14 + RDX]";

    /// A store transmitter: the secret register addresses a speculative
    /// store (CleanupSpec UV3 shape).
    pub const STORE: &str = "AND RBX, 0b111111111111
         MOV qword ptr [R14 + RBX], RDI";

    /// Speculatively loaded secret encoded in a *store* address — the STT
    /// KV3 shape (paper Fig. 9).
    pub const LOAD_THEN_STORE: &str = "AND RCX, 0b1111111111111111111
         CMOVP AX, word ptr [R14 + RCX]
         AND RAX, 0b1111111111111111111
         MOV dword ptr [R14 + RAX], EBX";
}

/// Paper Figure 4(a), verbatim: the InvisiSpec UV1 eviction leak. The
/// `.bb_main.2` block is architectural; `.bb_main.3` is mis-speculated; the
/// XOR's RMW load is the transmitter.
pub const FIG4: &str = "
.bb_main.2:
    OR byte ptr [R14 + RDX], AL
    LOOPNE .bb_main.3
    JMP .bb_main.exit

.bb_main.3: # misspeculated
    AND BL, 34
    AND RAX, 0b111111111111
    CMOVNBE SI, word ptr [R14 + RAX]
    AND RBX, 0b111111111111
    XOR qword ptr [R14 + RBX], RDI
    JMP .bb_main.exit

.bb_main.exit:
    EXIT";

/// Builds a store→load aliasing (Spectre-STL) victim: a store whose address
/// sits behind `distance` dependent ALU ops (the attacker-controlled
/// disambiguation distance), statically aliased by a displacement-only load
/// whose address is ready immediately. Under a non-zero
/// `SimConfig::stl_window` the load speculatively bypasses the unresolved
/// store, reads the **stale** pre-store value at `STL_OFFSET`, and encodes
/// it in a dependent transmit load before the mis-forwarding squash.
///
/// The prelude only uses `R10`/`R11` plus `RAX`/`RBX`, mirroring
/// [`spectre_v1`]'s register discipline. No branch training is needed: an
/// untrained memory-dependence predictor predicts "no conflict".
///
/// ```text
///   R10 <- STL_OFFSET            ; store offset, behind a dependency chain
///   R10 <- R10 + 0    (× distance)
///   R10 <- R10 & 0xFFF
///   [R14+R10] <- 0               ; store: address late, data benign
///   RAX <- [R14+STL_OFFSET]      ; aliasing load: address ready at once
///   RAX <- RAX & 0xFFF
///   RBX <- [R14+RAX]             ; transmit: encodes the stale value
///   EXIT
/// ```
pub fn spectre_stl(distance: usize) -> String {
    let mut chain = String::new();
    for _ in 0..distance {
        chain.push_str("ADD R10, 0\n         ");
    }
    format!(
        "MOV R10, {STL_OFFSET}
         {chain}AND R10, 0b111111111111
         MOV qword ptr [R14 + R10], 0
         MOV RAX, qword ptr [R14 + {STL_OFFSET}]
         AND RAX, 0b111111111111
         MOV RBX, qword ptr [R14 + RAX]
         EXIT"
    )
}

/// Sandbox offset of [`spectre_stl`]'s aliasing store→load pair.
pub const STL_OFFSET: u64 = 1344;

/// An input for [`spectre_stl`] whose *stale* (pre-store) word at
/// [`STL_OFFSET`] is `stale` — architecturally dead (the store overwrites it
/// before the sequential load), but transmitted under store-bypass
/// misspeculation.
pub fn stl_input(pages: usize, stale: u64) -> TestInput {
    let mut t = TestInput::zeroed(pages);
    t.set_word(STL_OFFSET as usize / 8, stale);
    t
}

/// Runs the standard train-then-victim protocol on a simulator: trains the
/// gadget's branch until the global history saturates, flushes caches, then
/// runs `victim`. Returns the number of squashes in the victim run.
pub fn train_then_run(
    sim: &mut amulet_sim::Simulator,
    flat: &amulet_isa::FlatProgram,
    victim: &TestInput,
    prefill: bool,
) -> u64 {
    let pages = victim.pages().max(1);
    for _ in 0..12 {
        sim.load_test(flat, &train_input(pages));
        sim.run();
    }
    sim.flush_caches();
    if prefill {
        sim.prefill_l1d_conflicting();
    }
    sim.load_test(flat, victim);
    let res = sim.run();
    res.squashes as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_isa::parse_program;
    use amulet_sim::{InsecureBaseline, SimConfig, Simulator};

    #[test]
    fn victim_run_mispredicts_with_a_long_window() {
        let src = spectre_v1(payload::SINGLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(InsecureBaseline));
        let mut victim = victim_input(1);
        victim.regs[1] = 0x740;
        let squashes = train_then_run(&mut sim, &flat, &victim, false);
        assert!(squashes > 0, "victim must mispredict");
        // On the insecure baseline the wrong-path line must land: the
        // window is long enough for the fill to apply pre-squash.
        assert!(sim.snapshot().l1d.contains(&0x4740));
    }

    #[test]
    fn stl_gadget_leaks_the_stale_value_under_a_window() {
        let src = spectre_stl(3);
        let flat = parse_program(&src).unwrap().flatten();
        let stale = 0x800;
        let input = stl_input(1, stale);

        // With the disambiguation window on, the aliasing load bypasses the
        // unresolved store: a memory-order squash fires, and the transmit
        // line derived from the *stale* value lands in the L1D pre-squash.
        let cfg = SimConfig::default().with_stl_window(180);
        let mut sim = Simulator::new(cfg, Box::new(InsecureBaseline));
        sim.load_test(&flat, &input);
        let res = sim.run();
        assert!(res.squashes > 0, "mis-forwarding must squash");
        assert!(
            sim.snapshot().l1d.contains(&(0x4000 + stale)),
            "stale-derived transmit line must land pre-squash"
        );

        // With the window off (the default), the store disambiguates as soon
        // as its dependency chain resolves — the bypassing load may still be
        // squashed (that short-window misspeculation predates the STL
        // window), but the squash arrives long before the stale load
        // returns, so the stale-derived transmit line never lands. Only the
        // architectural transmit (stored data 0 -> sandbox base) is seen.
        let mut sim = Simulator::new(SimConfig::default(), Box::new(InsecureBaseline));
        sim.load_test(&flat, &input);
        sim.run();
        assert!(!sim.snapshot().l1d.contains(&(0x4000 + stale)));
        assert!(sim.snapshot().l1d.contains(&0x4000));
    }

    #[test]
    fn training_resolves_taken_victim_not_taken() {
        let src = spectre_v1("AND RBX, 0b1");
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(InsecureBaseline));
        sim.load_test(&flat, &train_input(1));
        sim.run();
        let taken: Vec<bool> = sim
            .snapshot()
            .branch_order
            .iter()
            .map(|&(_, t)| t)
            .collect();
        assert!(!taken.is_empty());
    }
}
