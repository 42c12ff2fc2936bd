//! The µx86 interpreter with observation hooks and taint propagation.

use crate::machine::{Checkpoint, Machine};
use crate::observer::{MemKind, Observer};
use crate::taint::{TaintCheckpoint, TaintEngine, TaintSet};
use amulet_isa::semantics::{alu, unary};
use amulet_isa::{FlatProgram, Instr, LoopKind, MemRef, Operand, TestInput, Width};
use amulet_isa::{Gpr, UnOp};
use std::fmt;

/// What a single [`Emulator::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An ordinary instruction executed; PC advanced to the next index.
    Executed,
    /// A fence executed (architecturally a no-op; meaningful to contracts
    /// that model speculation barriers).
    Fence,
    /// A control-flow instruction resolved.
    Branch {
        /// Flat index of the branch.
        pc: usize,
        /// `true` for `Jcc`/`LOOPxx`, `false` for `JMP`.
        conditional: bool,
        /// Whether the branch was taken.
        taken: bool,
        /// Flat index of the taken successor.
        taken_target: usize,
        /// Flat index of the fall-through successor.
        fallthrough: usize,
    },
    /// `EXIT` reached; the machine did not advance.
    Exit,
}

/// Errors from [`Emulator::step`] / [`Emulator::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// The PC points outside the program (e.g. a wrong path fell off the
    /// end). Contract drivers treat this as the end of speculation.
    PcOutOfRange {
        /// The offending flat index.
        pc: usize,
    },
    /// An instruction has an operand shape the ISA forbids (e.g. an
    /// immediate destination). Unreachable for parser/generator output.
    MalformedInstr {
        /// The offending flat index.
        pc: usize,
    },
    /// `run` exceeded its step budget.
    StepLimit {
        /// The budget that was exhausted.
        max_steps: usize,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            StepError::MalformedInstr { pc } => write!(f, "malformed instruction at {pc}"),
            StepError::StepLimit { max_steps } => write!(f, "exceeded {max_steps} steps"),
        }
    }
}

impl std::error::Error for StepError {}

/// Result of a completed [`Emulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Instructions executed.
    pub steps: usize,
}

/// Combined machine + taint rollback point.
#[derive(Debug, Clone)]
pub struct EmuCheckpoint {
    machine: Checkpoint,
    taint: Option<TaintCheckpoint>,
}

/// The architectural interpreter.
///
/// Drives a [`Machine`] over a [`FlatProgram`], invoking [`Observer`]
/// callbacks and (optionally) propagating taint. Contract drivers sit on top:
/// they call [`Emulator::step`], inspect [`StepEvent::Branch`], and may
/// redirect `machine.pc` to explore mispredicted paths, using
/// [`Emulator::checkpoint`]/[`Emulator::restore`] to roll back.
#[derive(Debug)]
pub struct Emulator<'p> {
    flat: &'p FlatProgram,
    /// Architectural state (public: contract drivers redirect `pc`).
    pub machine: Machine,
    /// Optional taint engine, mirroring the machine.
    pub taint: Option<TaintEngine>,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator with initial state from `input`, sandbox based at
    /// `sandbox_base`.
    pub fn new(flat: &'p FlatProgram, sandbox_base: u64, input: &TestInput) -> Self {
        Emulator {
            flat,
            machine: Machine::from_input(sandbox_base, input),
            taint: None,
        }
    }

    /// Attaches a taint engine (consuming builder style).
    pub fn with_taint(mut self, engine: TaintEngine) -> Self {
        self.taint = Some(engine);
        self
    }

    /// Assembles an emulator from pre-built parts — the reuse path: a
    /// machine reset via [`Machine::reset_from_input`] and an engine reset
    /// via [`TaintEngine::reset`] make this allocation-free.
    pub fn from_parts(flat: &'p FlatProgram, machine: Machine, taint: Option<TaintEngine>) -> Self {
        Emulator {
            flat,
            machine,
            taint,
        }
    }

    /// Disassembles the emulator into its reusable parts.
    pub fn into_parts(self) -> (Machine, Option<TaintEngine>) {
        (self.machine, self.taint)
    }

    /// The program being executed.
    pub fn program(&self) -> &'p FlatProgram {
        self.flat
    }

    /// Takes a combined machine+taint checkpoint.
    pub fn checkpoint(&self) -> EmuCheckpoint {
        EmuCheckpoint {
            machine: self.machine.checkpoint(),
            taint: self.taint.as_ref().map(|t| t.checkpoint()),
        }
    }

    /// Rolls back to a checkpoint (stack discipline).
    pub fn restore(&mut self, cp: &EmuCheckpoint) {
        self.machine.restore(&cp.machine);
        if let (Some(engine), Some(tcp)) = (self.taint.as_mut(), cp.taint.as_ref()) {
            engine.restore(tcp);
        }
    }

    /// Executes instructions until `EXIT` or `max_steps`.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::StepLimit`] if the budget is exhausted, or any
    /// error from [`Emulator::step`].
    pub fn run(
        &mut self,
        obs: &mut impl Observer,
        max_steps: usize,
    ) -> Result<RunSummary, StepError> {
        for steps in 0..max_steps {
            if let StepEvent::Exit = self.step(obs)? {
                return Ok(RunSummary { steps });
            }
        }
        Err(StepError::StepLimit { max_steps })
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// See [`StepError`].
    pub fn step(&mut self, obs: &mut impl Observer) -> Result<StepEvent, StepError> {
        let pc = self.machine.pc;
        let instr = *self
            .flat
            .instrs
            .get(pc)
            .ok_or(StepError::PcOutOfRange { pc })?;
        obs.on_instr(pc, &instr);

        let malformed = StepError::MalformedInstr { pc };
        match instr {
            Instr::Mov { dst, src } => {
                match dst {
                    Operand::Reg(r, w) => {
                        let (v, t) = self.read_operand(&src, obs);
                        self.machine.write_reg(r, w, v);
                        self.write_reg_taint(r, w, t);
                    }
                    Operand::Mem(m) => {
                        let (v, t) = self.read_operand(&src, obs);
                        self.store(&m, v, t, obs);
                    }
                    Operand::Imm(_) => return Err(malformed),
                }
                self.machine.pc = pc + 1;
                Ok(StepEvent::Executed)
            }
            Instr::Alu { op, dst, src, .. } => {
                let width = dst
                    .width()
                    .or_else(|| src.width())
                    .ok_or(malformed.clone())?;
                let (dst_v, dst_t, dst_mem) = match dst {
                    Operand::Reg(r, w) => (self.machine.read_reg(r, w), self.reg_taint(r), None),
                    Operand::Mem(m) => {
                        let (v, t) = self.load(&m, obs);
                        (v, t, Some(m))
                    }
                    Operand::Imm(_) => return Err(malformed),
                };
                let (src_v, src_t) = self.read_operand(&src, obs);
                let r = alu(op, width, dst_v, src_v, self.machine.flags);

                let mut combined = self.taint_union(dst_t, src_t);
                if op.reads_flags() {
                    combined = self.taint_union(combined, self.flags_taint());
                }
                self.machine.flags = r.flags;
                if let Some(t) = self.taint.as_mut() {
                    t.set_flags_taint(combined);
                }
                if !op.discards_result() {
                    match (dst, dst_mem) {
                        (Operand::Reg(reg, w), _) => {
                            self.machine.write_reg(reg, w, r.value);
                            self.write_reg_taint(reg, w, combined);
                        }
                        (_, Some(m)) => self.store(&m, r.value, combined, obs),
                        _ => return Err(malformed),
                    }
                }
                self.machine.pc = pc + 1;
                Ok(StepEvent::Executed)
            }
            Instr::Un { op, dst, .. } => {
                let (val, mut t, width, mem) = match dst {
                    Operand::Reg(r, w) => (self.machine.read_reg(r, w), self.reg_taint(r), w, None),
                    Operand::Mem(m) => {
                        let (v, t) = self.load(&m, obs);
                        (v, t, m.width, Some(m))
                    }
                    Operand::Imm(_) => return Err(malformed),
                };
                let r = unary(op, width, val, self.machine.flags);
                if matches!(op, UnOp::Inc | UnOp::Dec) {
                    // CF is preserved, so the new flags partly depend on the
                    // old flags taint.
                    t = self.taint_union(t, self.flags_taint());
                }
                self.machine.flags = r.flags;
                if !matches!(op, UnOp::Not) {
                    if let Some(engine) = self.taint.as_mut() {
                        engine.set_flags_taint(t);
                    }
                }
                match (dst, mem) {
                    (Operand::Reg(reg, w), _) => {
                        self.machine.write_reg(reg, w, r.value);
                        self.write_reg_taint(reg, w, t);
                    }
                    (_, Some(m)) => self.store(&m, r.value, t, obs),
                    _ => return Err(malformed),
                }
                self.machine.pc = pc + 1;
                Ok(StepEvent::Executed)
            }
            Instr::Cmov { cond, dst, src } => {
                let Operand::Reg(r, w) = dst else {
                    return Err(malformed);
                };
                // CMOV always performs the source access, taken or not.
                let (src_v, src_t) = self.read_operand(&src, obs);
                let value = if cond.eval(self.machine.flags) {
                    src_v
                } else {
                    self.machine.read_reg(r, w)
                };
                self.machine.write_reg(r, w, value);
                let mut t = self.taint_union(src_t, self.reg_taint(r));
                t = self.taint_union(t, self.flags_taint());
                self.write_reg_taint_full(r, t);
                self.machine.pc = pc + 1;
                Ok(StepEvent::Executed)
            }
            Instr::Set { cond, dst } => {
                let value = cond.eval(self.machine.flags) as u64;
                let t = self.flags_taint();
                match dst {
                    Operand::Reg(r, w) => {
                        self.machine.write_reg(r, w, value);
                        self.write_reg_taint(r, w, t);
                    }
                    Operand::Mem(m) => self.store(&m, value, t, obs),
                    Operand::Imm(_) => return Err(malformed),
                }
                self.machine.pc = pc + 1;
                Ok(StepEvent::Executed)
            }
            Instr::Jcc { cond, target } => {
                let taken = cond.eval(self.machine.flags);
                let taken_target = self.flat.target_index(target);
                let fallthrough = pc + 1;
                if let Some(engine) = self.taint.as_mut() {
                    let ft = engine.flags_taint();
                    engine.mark_relevant(ft);
                }
                let next = if taken { taken_target } else { fallthrough };
                self.machine.pc = next;
                obs.on_branch(pc, taken, next);
                Ok(StepEvent::Branch {
                    pc,
                    conditional: true,
                    taken,
                    taken_target,
                    fallthrough,
                })
            }
            Instr::Jmp { target } => {
                let taken_target = self.flat.target_index(target);
                self.machine.pc = taken_target;
                obs.on_branch(pc, true, taken_target);
                Ok(StepEvent::Branch {
                    pc,
                    conditional: false,
                    taken: true,
                    taken_target,
                    fallthrough: pc + 1,
                })
            }
            Instr::Loop { kind, target } => {
                let rcx = self.machine.regs[Gpr::Rcx.index()].wrapping_sub(1);
                self.machine.regs[Gpr::Rcx.index()] = rcx;
                let zf = self.machine.flags.zf();
                let taken = rcx != 0
                    && match kind {
                        LoopKind::Loop => true,
                        LoopKind::Loope => zf,
                        LoopKind::Loopne => !zf,
                    };
                if let Some(engine) = self.taint.as_mut() {
                    let mut dep = engine.reg_taint(Gpr::Rcx.index());
                    if !matches!(kind, LoopKind::Loop) {
                        dep = engine.union(dep, engine.flags_taint());
                    }
                    engine.mark_relevant(dep);
                }
                let taken_target = self.flat.target_index(target);
                let fallthrough = pc + 1;
                let next = if taken { taken_target } else { fallthrough };
                self.machine.pc = next;
                obs.on_branch(pc, taken, next);
                Ok(StepEvent::Branch {
                    pc,
                    conditional: true,
                    taken,
                    taken_target,
                    fallthrough,
                })
            }
            Instr::Fence => {
                self.machine.pc = pc + 1;
                Ok(StepEvent::Fence)
            }
            Instr::Exit => Ok(StepEvent::Exit),
        }
    }

    fn reg_taint(&self, r: Gpr) -> TaintSet {
        self.taint
            .as_ref()
            .map(|t| t.reg_taint(r.index()))
            .unwrap_or_default()
    }

    fn flags_taint(&self) -> TaintSet {
        self.taint
            .as_ref()
            .map(|t| t.flags_taint())
            .unwrap_or_default()
    }

    /// Unions two taint sets in the engine's pool. With no engine attached
    /// every set is empty, so the identity cases cover it.
    fn taint_union(&mut self, a: TaintSet, b: TaintSet) -> TaintSet {
        if b.is_empty() || a == b {
            return a;
        }
        if a.is_empty() {
            return b;
        }
        match self.taint.as_mut() {
            Some(engine) => engine.union(a, b),
            None => unreachable!("non-empty taint sets require an engine"),
        }
    }

    fn write_reg_taint(&mut self, r: Gpr, w: Width, taint: TaintSet) {
        if let Some(engine) = self.taint.as_mut() {
            if matches!(w, Width::B | Width::W) {
                engine.merge_reg_taint(r.index(), taint);
            } else {
                engine.set_reg_taint(r.index(), taint);
            }
        }
    }

    fn write_reg_taint_full(&mut self, r: Gpr, taint: TaintSet) {
        if let Some(engine) = self.taint.as_mut() {
            engine.set_reg_taint(r.index(), taint);
        }
    }

    /// Reads an operand value (performing a load for memory operands).
    fn read_operand(&mut self, op: &Operand, obs: &mut impl Observer) -> (u64, TaintSet) {
        match op {
            Operand::Reg(r, w) => (self.machine.read_reg(*r, *w), self.reg_taint(*r)),
            Operand::Imm(v) => (*v as u64, TaintSet::default()),
            Operand::Mem(m) => self.load(m, obs),
        }
    }

    fn addr_of(&self, m: &MemRef) -> (u64, u64) {
        let addr = m.effective_addr(|r| self.machine.regs[r.index()]);
        let wrapped = self.machine.sandbox.wrap(addr);
        (addr, wrapped)
    }

    fn addr_taint(&mut self, m: &MemRef) -> TaintSet {
        let mut t = TaintSet::EMPTY;
        if let Some(engine) = self.taint.as_mut() {
            for r in m.addr_regs() {
                t = engine.union(t, engine.reg_taint(r.index()));
            }
        }
        t
    }

    fn load(&mut self, m: &MemRef, obs: &mut impl Observer) -> (u64, TaintSet) {
        let (addr, wrapped) = self.addr_of(m);
        let value = self.machine.read_mem(addr, m.width);
        obs.on_mem(MemKind::Load, wrapped, m.width, value);
        let mut value_taint = TaintSet::default();
        if self.taint.is_some() {
            let at = self.addr_taint(m);
            let off = wrapped.wrapping_sub(self.machine.sandbox.base());
            let engine = self.taint.as_mut().expect("checked above");
            engine.mark_relevant(at);
            value_taint = engine.mem_taint_range(off, m.width.bytes());
            if engine.config().observe_values {
                engine.mark_relevant(value_taint);
            }
        }
        (value, value_taint)
    }

    fn store(&mut self, m: &MemRef, value: u64, data_taint: TaintSet, obs: &mut impl Observer) {
        let (addr, wrapped) = self.addr_of(m);
        self.machine.write_mem(addr, m.width, value);
        obs.on_mem(MemKind::Store, wrapped, m.width, value);
        if self.taint.is_some() {
            let at = self.addr_taint(m);
            let off = wrapped.wrapping_sub(self.machine.sandbox.base());
            let engine = self.taint.as_mut().expect("checked above");
            engine.mark_relevant(at);
            engine.set_mem_taint_range(off, m.width.bytes(), data_taint);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NullObserver, RecordingObserver};
    use crate::taint::TaintConfig;
    use amulet_isa::parse_program;

    fn run_src(src: &str, input: &TestInput) -> (Machine, RecordingObserver) {
        let flat = parse_program(src).unwrap().flatten();
        let mut emu = Emulator::new(&flat, 0x4000, input);
        let mut obs = RecordingObserver::default();
        emu.run(&mut obs, 10_000).unwrap();
        (emu.machine, obs)
    }

    #[test]
    fn arithmetic_and_moves() {
        let (m, _) = run_src(
            "MOV RAX, 10\nMOV RBX, 3\nSUB RAX, RBX\nEXIT",
            &TestInput::zeroed(1),
        );
        assert_eq!(m.regs[0], 7);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut input = TestInput::zeroed(1);
        input.set_word(2, 0xABCD);
        let (mut m, obs) = run_src(
            "MOV RAX, 16\nMOV RBX, qword ptr [R14 + RAX]\nMOV qword ptr [R14 + 24], RBX\nEXIT",
            &input,
        );
        assert_eq!(m.regs[1], 0xABCD);
        assert_eq!(m.read_mem(0x4018, Width::Q), 0xABCD);
        assert_eq!(obs.mems.len(), 2);
        assert_eq!(obs.mems[0], (MemKind::Load, 0x4010, Width::Q, 0xABCD));
        assert_eq!(obs.mems[1], (MemKind::Store, 0x4018, Width::Q, 0xABCD));
    }

    #[test]
    fn conditional_branch_and_observation() {
        let src = "
            CMP RAX, 5
            JZ .taken
            MOV RBX, 1
            JMP .done
            .taken:
            MOV RBX, 2
            .done:
            EXIT";
        let mut input = TestInput::zeroed(1);
        input.regs[0] = 5;
        let (m, obs) = run_src(src, &input);
        assert_eq!(m.regs[1], 2);
        assert!(obs.branches.iter().any(|&(_, taken, _)| taken));

        input.regs[0] = 4;
        let (m, _) = run_src(src, &input);
        assert_eq!(m.regs[1], 1);
    }

    #[test]
    fn cmov_always_loads() {
        // Flags make the CMOV not-taken; the load must still be observed.
        let src = "
            CMP RAX, 1
            CMOVZ RBX, qword ptr [R14 + 8]
            EXIT";
        let mut input = TestInput::zeroed(1);
        input.regs[0] = 0;
        input.regs[1] = 0x99;
        input.set_word(1, 0x42);
        let (m, obs) = run_src(src, &input);
        assert_eq!(m.regs[1], 0x99, "not taken keeps old value");
        assert_eq!(obs.mems.len(), 1, "load happened anyway");
    }

    #[test]
    fn rmw_loads_and_stores() {
        let mut input = TestInput::zeroed(1);
        input.set_word(0, 0xF0);
        input.regs[5] = 0x0F; // RDI
        let (mut m, obs) = run_src("XOR qword ptr [R14 + 0], RDI\nEXIT", &input);
        assert_eq!(m.read_mem(0x4000, Width::Q), 0xFF);
        assert_eq!(obs.mems[0].0, MemKind::Load);
        assert_eq!(obs.mems[1].0, MemKind::Store);
    }

    #[test]
    fn loop_decrements_rcx() {
        let src = "
            .top:
            ADD RAX, 2
            LOOP .top
            EXIT";
        let mut input = TestInput::zeroed(1);
        input.regs[2] = 3; // RCX
        let (m, _) = run_src(src, &input);
        assert_eq!(m.regs[0], 6);
        assert_eq!(m.regs[2], 0);
    }

    #[test]
    fn out_of_sandbox_access_wraps() {
        let mut input = TestInput::zeroed(1);
        input.regs[0] = 0x1_0000_0008; // way out of the 4 KiB sandbox
        input.set_word(1, 0x77);
        let (m, obs) = run_src("MOV RBX, qword ptr [R14 + RAX]\nEXIT", &input);
        assert_eq!(m.regs[1], 0x77, "wrapped to offset 8");
        assert_eq!(obs.mems[0].1, 0x4008, "observer sees the wrapped address");
    }

    #[test]
    fn step_limit_reported() {
        let src = "
            .top:
            JMP .top
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let mut emu = Emulator::new(&flat, 0x4000, &TestInput::zeroed(1));
        let e = emu.run(&mut NullObserver, 100).unwrap_err();
        assert_eq!(e, StepError::StepLimit { max_steps: 100 });
    }

    #[test]
    fn checkpoint_restore_speculative_path() {
        let src = "
            MOV qword ptr [R14 + 0], RAX
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let mut input = TestInput::zeroed(1);
        input.regs[0] = 0xAA;
        let mut emu = Emulator::new(&flat, 0x4000, &input);
        let cp = emu.checkpoint();
        emu.step(&mut NullObserver).unwrap();
        assert_eq!(emu.machine.read_mem(0x4000, Width::Q), 0xAA);
        emu.restore(&cp);
        assert_eq!(emu.machine.read_mem(0x4000, Width::Q), 0);
        assert_eq!(emu.machine.pc, 0);
    }

    #[test]
    fn taint_flows_to_address_relevance() {
        // RAX (label 0) indexes a load -> relevant. RBX (label 1) only flows
        // into a stored value -> not relevant under CT-SEQ-style config.
        let src = "
            AND RAX, 0b111111111111
            MOV RDX, qword ptr [R14 + RAX]
            MOV qword ptr [R14 + 8], RBX
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let input = TestInput::zeroed(1);
        let engine = TaintEngine::new(TaintConfig::default(), input.mem_len());
        let mut emu = Emulator::new(&flat, 0x4000, &input).with_taint(engine);
        emu.run(&mut NullObserver, 1000).unwrap();
        let rel = emu.taint.unwrap();
        let rel = rel.relevant();
        assert!(rel.contains(0), "RAX influences a load address");
        assert!(!rel.contains(1), "RBX only influences a stored value");
        assert!(rel.contains(14), "R14 is an address register");
    }

    #[test]
    fn taint_loaded_value_relevant_only_with_arch_config() {
        let src = "
            MOV RDX, qword ptr [R14 + 16]
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let input = TestInput::zeroed(1);
        let word_label = 16 + 2; // offset 16 -> word 2

        let engine = TaintEngine::new(TaintConfig::default(), input.mem_len());
        let mut emu = Emulator::new(&flat, 0x4000, &input).with_taint(engine);
        emu.run(&mut NullObserver, 1000).unwrap();
        assert!(!emu.taint.unwrap().relevant().contains(word_label));

        let engine = TaintEngine::new(
            TaintConfig {
                observe_values: true,
            },
            input.mem_len(),
        );
        let mut emu = Emulator::new(&flat, 0x4000, &input).with_taint(engine);
        emu.run(&mut NullObserver, 1000).unwrap();
        assert!(emu.taint.unwrap().relevant().contains(word_label));
    }

    #[test]
    fn taint_branch_marks_flag_sources() {
        let src = "
            CMP RBX, 7
            JZ .x
            .x:
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let input = TestInput::zeroed(1);
        let engine = TaintEngine::new(TaintConfig::default(), input.mem_len());
        let mut emu = Emulator::new(&flat, 0x4000, &input).with_taint(engine);
        emu.run(&mut NullObserver, 1000).unwrap();
        let t = emu.taint.unwrap();
        assert!(t.relevant().contains(1), "RBX reaches the branch condition");
        assert!(!t.relevant().contains(0), "RAX is untouched");
    }

    #[test]
    fn taint_through_memory_dataflow() {
        // RBX -> mem[0] -> RDX -> load address: RBX becomes relevant.
        let src = "
            MOV qword ptr [R14 + 0], RBX
            MOV RDX, qword ptr [R14 + 0]
            AND RDX, 0b111111111111
            MOV RSI, qword ptr [R14 + RDX]
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let input = TestInput::zeroed(1);
        let engine = TaintEngine::new(TaintConfig::default(), input.mem_len());
        let mut emu = Emulator::new(&flat, 0x4000, &input).with_taint(engine);
        emu.run(&mut NullObserver, 1000).unwrap();
        assert!(emu.taint.unwrap().relevant().contains(1));
    }
}
