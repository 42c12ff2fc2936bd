//! Execution-clause drivers: produce contract traces (and taint reports) by
//! steering the architectural emulator, exploring speculative paths as the
//! contract prescribes, and rolling back.

use crate::trace::{CTrace, CTraceBuilder, Observation};
use crate::ContractKind;
use amulet_emu::SANDBOX_BASE_VA;
use amulet_emu::{Emulator, Machine, StepError, StepEvent, TaintConfig, TaintEngine};
use amulet_isa::{FlatProgram, Instr, Operand, TestInput};
use amulet_util::BitSet;

/// Reusable per-worker state for driving a [`LeakageModel`]: the emulator
/// machine (sandbox image), the taint engine (word map, journal, interned-set
/// pool), the relevant-label scratch and the tainted drive's trace buffer.
/// Holding one of these across the test cases of a campaign unit makes
/// [`LeakageModel::ctrace_with`] and
/// [`LeakageModel::relevant_labels_and_ctrace_with`] allocation-free after
/// warm-up — on a 128-page sandbox that removes ~1.5 MiB of per-call setup.
#[derive(Debug, Default)]
pub struct ModelScratch {
    machine: Option<Machine>,
    engine: Option<TaintEngine>,
    relevant: BitSet,
    trace: CTraceBuilder,
}

impl ModelScratch {
    /// Creates an empty scratch (parts are built lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A machine initialised for `input`, reusing the previous allocation
    /// when the sandbox geometry matches.
    fn machine_for(&mut self, sandbox_base: u64, input: &TestInput) -> Machine {
        match self.machine.take() {
            Some(mut m) => {
                m.reset_from_input(sandbox_base, input);
                m
            }
            None => Machine::from_input(sandbox_base, input),
        }
    }

    /// A taint engine reset for `cfg`/`sandbox_size`, reusing the previous
    /// allocation (including the interned-set pool) when possible.
    fn engine_for(&mut self, cfg: TaintConfig, sandbox_size: usize) -> TaintEngine {
        match self.engine.take() {
            Some(mut e) => {
                e.reset(cfg, sandbox_size);
                e
            }
            None => TaintEngine::new(cfg, sandbox_size),
        }
    }
}

/// An executable leakage contract: pairs a [`ContractKind`] with execution
/// parameters and produces contract traces / taint reports for test cases.
///
/// This is the paper's "leakage model" component (Figure 1), replacing
/// Revizor's Unicorn-based model.
#[derive(Debug, Clone)]
pub struct LeakageModel {
    kind: ContractKind,
    /// Sandbox base virtual address (must match the executor's).
    pub sandbox_base: u64,
    /// Maximum instructions executed on one speculative path before rollback
    /// (the speculation window).
    pub spec_window: usize,
    /// Maximum nesting depth of speculative exploration.
    pub max_nesting: usize,
    /// Budget of architectural instructions (defence against runaway loops).
    pub max_steps: usize,
}

impl LeakageModel {
    /// Creates a model for `kind` with default parameters (window 64,
    /// nesting 8, 4096 architectural steps, default sandbox base).
    pub fn new(kind: ContractKind) -> Self {
        LeakageModel {
            kind,
            sandbox_base: SANDBOX_BASE_VA,
            spec_window: 64,
            max_nesting: 8,
            max_steps: 4096,
        }
    }

    /// The contract kind.
    pub fn kind(&self) -> ContractKind {
        self.kind
    }

    /// Sets the speculation window.
    pub fn with_spec_window(mut self, window: usize) -> Self {
        self.spec_window = window;
        self
    }

    /// Sets the sandbox base address.
    pub fn with_sandbox_base(mut self, base: u64) -> Self {
        self.sandbox_base = base;
        self
    }

    /// Computes the contract trace for a test case.
    pub fn ctrace(&self, flat: &FlatProgram, input: &TestInput) -> CTrace {
        self.ctrace_with(flat, input, &mut ModelScratch::new())
    }

    /// [`LeakageModel::ctrace`] with caller-owned scratch: the machine (and
    /// its sandbox image) is reused in place across calls.
    pub fn ctrace_with(
        &self,
        flat: &FlatProgram,
        input: &TestInput,
        scratch: &mut ModelScratch,
    ) -> CTrace {
        let machine = scratch.machine_for(self.sandbox_base, input);
        let mut emu = Emulator::from_parts(flat, machine, None);
        let mut builder = CTraceBuilder::default();
        self.start_trace(&mut builder, &emu.machine.regs);
        self.drive(&mut emu, &mut builder);
        let (machine, _) = emu.into_parts();
        scratch.machine = Some(machine);
        builder.finish()
    }

    /// Empties `builder` for one trace under this contract's observation
    /// clause. ARCH-SEQ additionally exposes the initial (architectural)
    /// register state — see [`Observation::InitReg`].
    fn start_trace(&self, builder: &mut CTraceBuilder, regs: &[u64; 16]) {
        builder.reset(self.kind.observes_values());
        if self.kind.observes_values() {
            for (index, &value) in regs.iter().enumerate() {
                builder.push_marker(Observation::InitReg { index, value });
            }
        }
    }

    /// Computes the set of input labels that influence the contract trace.
    ///
    /// Mutating input elements whose labels are *not* in the returned set
    /// provably leaves the contract trace unchanged — the foundation of
    /// input boosting.
    pub fn relevant_labels(&self, flat: &FlatProgram, input: &TestInput) -> BitSet {
        let mut scratch = ModelScratch::new();
        self.relevant_labels_with(flat, input, &mut scratch).clone()
    }

    /// [`LeakageModel::relevant_labels`] with caller-owned scratch: the
    /// taint engine (word map, journal, interned-set pool), sandbox image
    /// and result bitset are all reused in place across calls. The returned
    /// reference lives in `scratch` and is valid until its next use.
    pub fn relevant_labels_with<'s>(
        &self,
        flat: &FlatProgram,
        input: &TestInput,
        scratch: &'s mut ModelScratch,
    ) -> &'s BitSet {
        self.relevant_labels_and_ctrace_with(flat, input, scratch).0
    }

    /// [`LeakageModel::relevant_labels_with`] plus the contract-trace digest
    /// of the same drive: the tainted run executes this contract's
    /// execution clause anyway, so it observes through a trace builder and
    /// yields `ctrace_with(flat, input, ..).digest()` at no extra
    /// emulation. Input boosting uses it to hand every input its
    /// contract-trace class without re-emulating mutants.
    pub fn relevant_labels_and_ctrace_with<'s>(
        &self,
        flat: &FlatProgram,
        input: &TestInput,
        scratch: &'s mut ModelScratch,
    ) -> (&'s BitSet, u64) {
        let engine = scratch.engine_for(self.taint_config(), input.mem_len());
        self.relevant_labels_drive(flat, input, engine, scratch)
    }

    /// [`LeakageModel::relevant_labels`] cross-checked against the dense
    /// reference oracle on every speculative rollback and once at the end —
    /// the differential-test entry point (see `tests/taint_oracle.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the sparse engine and the dense oracle ever disagree.
    pub fn relevant_labels_verified(&self, flat: &FlatProgram, input: &TestInput) -> BitSet {
        let engine = TaintEngine::new(self.taint_config(), input.mem_len()).with_dense_shadow();
        let mut scratch = ModelScratch::new();
        self.relevant_labels_drive(flat, input, engine, &mut scratch)
            .0
            .clone()
    }

    fn taint_config(&self) -> TaintConfig {
        TaintConfig {
            observe_values: self.kind.observes_values(),
            observe_store_values: false,
        }
    }

    fn relevant_labels_drive<'s>(
        &self,
        flat: &FlatProgram,
        input: &TestInput,
        engine: TaintEngine,
        scratch: &'s mut ModelScratch,
    ) -> (&'s BitSet, u64) {
        let machine = scratch.machine_for(self.sandbox_base, input);
        let mut emu = Emulator::from_parts(flat, machine, Some(engine));
        let mut builder = std::mem::take(&mut scratch.trace);
        self.start_trace(&mut builder, &emu.machine.regs);
        self.drive(&mut emu, &mut builder);
        let digest = builder.digest();
        scratch.trace = builder;
        let (machine, engine) = emu.into_parts();
        scratch.machine = Some(machine);
        let engine = engine.expect("taint engine attached above");
        if engine.has_dense_shadow() {
            engine.verify_shadow();
        }
        scratch.relevant.clone_from(engine.relevant());
        scratch.engine = Some(engine);
        if self.kind.observes_values() {
            // Initial registers are observed directly under ARCH-SEQ.
            for label in 0..16 {
                scratch.relevant.insert(label);
            }
        }
        (&scratch.relevant, digest)
    }

    /// Drives one full execution under this contract's execution clause.
    fn drive(&self, emu: &mut Emulator<'_>, obs: &mut CTraceBuilder) {
        for _ in 0..self.max_steps {
            if self.kind.explores_store_bypass() {
                self.maybe_explore_bypass(emu, obs, self.spec_window, self.max_nesting);
            }
            match emu.step(obs) {
                Ok(StepEvent::Exit) => break,
                Ok(StepEvent::Branch {
                    conditional: true,
                    taken,
                    taken_target,
                    fallthrough,
                    ..
                }) if self.kind.explores_branches() => {
                    let wrong = if taken { fallthrough } else { taken_target };
                    self.explore_from(emu, obs, wrong, self.spec_window, self.max_nesting);
                }
                Ok(_) => {}
                // A path fell off the end of the program: treat as exit.
                Err(StepError::PcOutOfRange { .. }) => break,
                Err(_) => break,
            }
        }
    }

    /// Explores a speculative path starting at `start_pc`, then rolls back.
    fn explore_from(
        &self,
        emu: &mut Emulator<'_>,
        obs: &mut CTraceBuilder,
        start_pc: usize,
        window: usize,
        nesting: usize,
    ) {
        if nesting == 0 || window == 0 {
            return;
        }
        let cp = emu.checkpoint();
        obs.push_marker(Observation::SpecEnter);
        emu.machine.pc = start_pc;
        self.spec_path(emu, obs, window, nesting);
        obs.push_marker(Observation::SpecExit);
        emu.restore(&cp);
    }

    /// Runs up to `window` instructions of a speculative path.
    fn spec_path(
        &self,
        emu: &mut Emulator<'_>,
        obs: &mut CTraceBuilder,
        window: usize,
        nesting: usize,
    ) {
        let mut steps = 0;
        while steps < window {
            steps += 1;
            if self.kind.explores_store_bypass() && nesting > 0 {
                self.maybe_explore_bypass(emu, obs, window - steps, nesting - 1);
            }
            match emu.step(obs) {
                Ok(StepEvent::Exit) => break,
                // A fence terminates speculation.
                Ok(StepEvent::Fence) => break,
                Ok(StepEvent::Branch {
                    conditional: true,
                    taken,
                    taken_target,
                    fallthrough,
                    ..
                }) if nesting > 0 => {
                    let wrong = if taken { fallthrough } else { taken_target };
                    self.explore_from(emu, obs, wrong, window - steps, nesting - 1);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }

    /// If the next instruction is a pure store, explores the path where the
    /// store is speculatively bypassed (skipped), then rolls back.
    fn maybe_explore_bypass(
        &self,
        emu: &mut Emulator<'_>,
        obs: &mut CTraceBuilder,
        window: usize,
        nesting: usize,
    ) {
        let pc = emu.machine.pc;
        let Some(instr) = emu.program().instrs.get(pc) else {
            return;
        };
        if is_pure_store(instr) {
            self.explore_from(emu, obs, pc + 1, window, nesting);
        }
    }
}

/// `true` for instructions whose only architectural effect is a memory store
/// (the candidates for store-bypass speculation).
fn is_pure_store(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Mov {
            dst: Operand::Mem(_),
            ..
        } | Instr::Set {
            dst: Operand::Mem(_),
            ..
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_isa::parse_program;
    use amulet_util::Xoshiro256;

    const V1_SHAPE: &str = "
        CMP RAX, 0
        JNZ .spec
        JMP .exit
        .spec:                       # architecturally skipped when RAX == 0
        AND RBX, 0b111111111111
        MOV RDX, qword ptr [R14 + RBX]
        JMP .exit
        .exit:
        EXIT";

    fn v1_inputs() -> (TestInput, TestInput) {
        // RAX = 0 on both: the .spec block never executes architecturally.
        // RBX differs: only the wrong path sees it as an address.
        let mut a = TestInput::zeroed(1);
        let mut b = TestInput::zeroed(1);
        a.regs[1] = 0x100;
        b.regs[1] = 0x200;
        (a, b)
    }

    #[test]
    fn ct_seq_blind_to_wrong_path() {
        let flat = parse_program(V1_SHAPE).unwrap().flatten();
        let (a, b) = v1_inputs();
        let model = LeakageModel::new(ContractKind::CtSeq);
        assert_eq!(model.ctrace(&flat, &a), model.ctrace(&flat, &b));
    }

    #[test]
    fn ct_cond_sees_wrong_path_addresses() {
        let flat = parse_program(V1_SHAPE).unwrap().flatten();
        let (a, b) = v1_inputs();
        let model = LeakageModel::new(ContractKind::CtCond);
        assert_ne!(
            model.ctrace(&flat, &a),
            model.ctrace(&flat, &b),
            "the mis-speculated load address must be exposed by CT-COND"
        );
    }

    #[test]
    fn arch_seq_sees_loaded_values() {
        let src = "MOV RDX, qword ptr [R14 + 8]\nEXIT";
        let flat = parse_program(src).unwrap().flatten();
        let mut a = TestInput::zeroed(1);
        let mut b = TestInput::zeroed(1);
        a.set_word(1, 1);
        b.set_word(1, 2);
        assert_eq!(
            LeakageModel::new(ContractKind::CtSeq).ctrace(&flat, &a),
            LeakageModel::new(ContractKind::CtSeq).ctrace(&flat, &b)
        );
        assert_ne!(
            LeakageModel::new(ContractKind::ArchSeq).ctrace(&flat, &a),
            LeakageModel::new(ContractKind::ArchSeq).ctrace(&flat, &b)
        );
    }

    #[test]
    fn lfence_ends_speculative_exploration() {
        let fenced = "
            CMP RAX, 0
            JNZ .spec
            JMP .exit
            .spec:
            LFENCE
            AND RBX, 0b111111111111
            MOV RDX, qword ptr [R14 + RBX]
            JMP .exit
            .exit:
            EXIT";
        let flat = parse_program(fenced).unwrap().flatten();
        let (a, b) = v1_inputs();
        let model = LeakageModel::new(ContractKind::CtCond);
        assert_eq!(
            model.ctrace(&flat, &a),
            model.ctrace(&flat, &b),
            "LFENCE stops the wrong path before the leaking load"
        );
    }

    #[test]
    fn ct_bpas_sees_bypassed_store_effects() {
        // The load reads what the store just wrote, so CT-COND traces are
        // equal when only the *initial* memory at offset 0 differs. CT-BPAS
        // explores the bypass path where the load reads the old value and
        // uses it as an address.
        let src = "
            MOV qword ptr [R14 + 0], RBX
            MOV RDX, qword ptr [R14 + 0]
            AND RDX, 0b111111111111
            MOV RSI, qword ptr [R14 + RDX]
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let mut a = TestInput::zeroed(1);
        let mut b = TestInput::zeroed(1);
        a.set_word(0, 0x300);
        b.set_word(0, 0x700);
        let cond = LeakageModel::new(ContractKind::CtCond);
        assert_eq!(cond.ctrace(&flat, &a), cond.ctrace(&flat, &b));
        let bpas = LeakageModel::new(ContractKind::CtBpas);
        assert_ne!(bpas.ctrace(&flat, &a), bpas.ctrace(&flat, &b));
    }

    #[test]
    fn spec_window_bounds_exploration() {
        // The leaking load is the second instruction of the wrong path; a
        // window of 1 must not reach it.
        let flat = parse_program(V1_SHAPE).unwrap().flatten();
        let (a, b) = v1_inputs();
        let model = LeakageModel::new(ContractKind::CtCond).with_spec_window(1);
        assert_eq!(model.ctrace(&flat, &a), model.ctrace(&flat, &b));
    }

    #[test]
    fn relevant_labels_cover_contract_inputs() {
        let flat = parse_program(V1_SHAPE).unwrap().flatten();
        let (a, _) = v1_inputs();
        // Under CT-SEQ, RAX decides the branch -> relevant; RBX only matters
        // on the wrong path -> not relevant.
        let seq = LeakageModel::new(ContractKind::CtSeq).relevant_labels(&flat, &a);
        assert!(seq.contains(0));
        assert!(!seq.contains(1));
        // Under CT-COND, RBX feeds a (speculative) load address -> relevant.
        let cond = LeakageModel::new(ContractKind::CtCond).relevant_labels(&flat, &a);
        assert!(cond.contains(1));
    }

    /// The tainted drive's digest is the plain drive's, under every
    /// contract (ARCH-SEQ's initial-register markers included).
    #[test]
    fn tainted_drive_digest_equals_ctrace_digest() {
        let flat = parse_program(V1_SHAPE).unwrap().flatten();
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut scratch = ModelScratch::new();
        for kind in ContractKind::ALL {
            let model = LeakageModel::new(kind);
            for _ in 0..4 {
                let input = TestInput::random(&mut rng, 1);
                let (relevant, digest) =
                    model.relevant_labels_and_ctrace_with(&flat, &input, &mut scratch);
                assert_eq!(relevant, &model.relevant_labels(&flat, &input));
                assert_eq!(digest, model.ctrace(&flat, &input).digest(), "{kind}");
            }
        }
    }

    /// The taint soundness property behind input boosting: randomising
    /// non-relevant labels preserves the contract trace.
    #[test]
    fn mutating_non_relevant_labels_preserves_ctrace() {
        let programs = [
            V1_SHAPE,
            "
            AND RAX, 0b111111111111
            MOV RBX, qword ptr [R14 + RAX]
            AND RBX, 0b111111111111
            XOR qword ptr [R14 + RBX], RDI
            CMP RDI, 55
            JLE .a
            .a:
            EXIT",
        ];
        let mut rng = Xoshiro256::seed_from_u64(99);
        for src in programs {
            let flat = parse_program(src).unwrap().flatten();
            for kind in ContractKind::ALL {
                let model = LeakageModel::new(kind);
                for _ in 0..5 {
                    let base = TestInput::random(&mut rng, 1);
                    let relevant = model.relevant_labels(&flat, &base);
                    let reference = model.ctrace(&flat, &base);
                    let mut mutated = base.clone();
                    for label in 0..mutated.label_count() {
                        if !relevant.contains(label) && label != 14 && label != 7 {
                            mutated.set_label(label, rng.next_u64());
                        }
                    }
                    assert_eq!(
                        model.ctrace(&flat, &mutated),
                        reference,
                        "contract {kind} changed after non-relevant mutation of {src}"
                    );
                }
            }
        }
    }
}
