//! Architectural machine state with journal-based checkpointing.

use crate::sandbox::Sandbox;
use amulet_isa::{Flags, Gpr, TestInput, Width};

/// Architectural state: 16 GPRs, FLAGS, a program counter (flat instruction
/// index), and the memory sandbox.
///
/// Memory writes are journalled so the state can be rolled back to a
/// [`Checkpoint`] — how contracts simulate speculative wrong-path execution
/// and squash it again.
#[derive(Debug, Clone)]
pub struct Machine {
    /// General-purpose registers.
    pub regs: [u64; 16],
    /// Flag state.
    pub flags: Flags,
    /// Flat instruction index of the next instruction.
    pub pc: usize,
    /// The memory sandbox.
    pub sandbox: Sandbox,
    journal: Vec<(u64, u8)>,
}

/// A rollback point created by [`Machine::checkpoint`].
///
/// Checkpoints obey stack discipline: restoring a checkpoint invalidates all
/// checkpoints taken after it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    regs: [u64; 16],
    flags: Flags,
    pc: usize,
    journal_len: usize,
}

impl Machine {
    /// Builds the initial machine state for a test case: registers and
    /// sandbox from `input`, `R14` pointed at the sandbox, `RSP` zeroed,
    /// PC at instruction 0.
    pub fn from_input(sandbox_base: u64, input: &TestInput) -> Self {
        let mut regs = input.regs;
        regs[Gpr::SANDBOX_BASE.index()] = sandbox_base;
        regs[Gpr::Rsp.index()] = 0;
        let mut sandbox = Sandbox::new(sandbox_base, input.mem_len());
        sandbox.load_image(input.mem_image());
        Machine {
            regs,
            flags: Flags::from_bits(input.flags_bits),
            pc: 0,
            sandbox,
            journal: Vec::new(),
        }
    }

    /// Rewinds this machine to the initial state for a new test case,
    /// reusing the sandbox allocation when the geometry matches —
    /// behaviourally identical to [`Machine::from_input`] but allocation-free
    /// on the fuzzing hot path (and copy-free for a seeded image).
    pub fn reset_from_input(&mut self, sandbox_base: u64, input: &TestInput) {
        self.regs = input.regs;
        self.regs[Gpr::SANDBOX_BASE.index()] = sandbox_base;
        self.regs[Gpr::Rsp.index()] = 0;
        self.flags = Flags::from_bits(input.flags_bits);
        self.pc = 0;
        self.journal.clear();
        if self.sandbox.size() != input.mem_len() || self.sandbox.base() != sandbox_base {
            self.sandbox = Sandbox::new(sandbox_base, input.mem_len());
        }
        self.sandbox.load_image(input.mem_image());
    }

    /// Reads a register at a width (zero-extended to `u64`).
    pub fn read_reg(&self, reg: Gpr, width: Width) -> u64 {
        width.trunc(self.regs[reg.index()])
    }

    /// Writes a register at a width with x86 merge semantics.
    pub fn write_reg(&mut self, reg: Gpr, width: Width, value: u64) {
        let old = self.regs[reg.index()];
        self.regs[reg.index()] = width.merge_into(old, value);
    }

    /// Reads memory at a (wrapped) virtual address.
    pub fn read_mem(&mut self, addr: u64, width: Width) -> u64 {
        self.sandbox.read(addr, width)
    }

    /// Writes memory, journalling old bytes for rollback.
    pub fn write_mem(&mut self, addr: u64, width: Width, value: u64) {
        for i in 0..width.bytes() {
            let a = addr.wrapping_add(i);
            let old = self.sandbox.write_u8(a, (value >> (8 * i)) as u8);
            self.journal.push((a, old));
        }
    }

    /// Takes a checkpoint of registers, flags, PC and the journal position.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            regs: self.regs,
            flags: self.flags,
            pc: self.pc,
            journal_len: self.journal.len(),
        }
    }

    /// Rolls back to a checkpoint, undoing journalled memory writes.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is stale (journal shorter than recorded),
    /// i.e. stack discipline was violated.
    pub fn restore(&mut self, cp: &Checkpoint) {
        assert!(
            self.journal.len() >= cp.journal_len,
            "stale checkpoint: journal already truncated"
        );
        while self.journal.len() > cp.journal_len {
            let (addr, old) = self.journal.pop().unwrap();
            self.sandbox.write_u8(addr, old);
        }
        self.regs = cp.regs;
        self.flags = cp.flags;
        self.pc = cp.pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::from_input(0x4000, &TestInput::zeroed(1))
    }

    #[test]
    fn from_input_pins_r14() {
        let mut input = TestInput::zeroed(1);
        input.regs[Gpr::R14.index()] = 0xDEAD;
        let m = Machine::from_input(0x4000, &input);
        assert_eq!(m.regs[Gpr::R14.index()], 0x4000);
    }

    #[test]
    fn reg_width_merge() {
        let mut m = machine();
        m.write_reg(Gpr::Rax, Width::Q, 0x1122_3344_5566_7788);
        m.write_reg(Gpr::Rax, Width::B, 0xFF);
        assert_eq!(m.regs[0], 0x1122_3344_5566_77FF);
        m.write_reg(Gpr::Rax, Width::D, 0xAABB_CCDD);
        assert_eq!(m.regs[0], 0xAABB_CCDD, "32-bit write zero-extends");
        assert_eq!(m.read_reg(Gpr::Rax, Width::W), 0xCCDD);
    }

    #[test]
    fn checkpoint_restores_memory_and_regs() {
        let mut m = machine();
        m.write_mem(0x4000, Width::Q, 0x1111);
        let cp = m.checkpoint();
        m.write_mem(0x4000, Width::Q, 0x2222);
        m.write_reg(Gpr::Rbx, Width::Q, 9);
        m.pc = 42;
        m.restore(&cp);
        assert_eq!(m.read_mem(0x4000, Width::Q), 0x1111);
        assert_eq!(m.regs[Gpr::Rbx.index()], 0);
        assert_eq!(m.pc, 0);
    }

    #[test]
    fn nested_checkpoints_stack() {
        let mut m = machine();
        m.write_mem(0x4000, Width::B, 1);
        let cp1 = m.checkpoint();
        m.write_mem(0x4000, Width::B, 2);
        let cp2 = m.checkpoint();
        m.write_mem(0x4000, Width::B, 3);
        m.restore(&cp2);
        assert_eq!(m.read_mem(0x4000, Width::B), 2);
        m.restore(&cp1);
        assert_eq!(m.read_mem(0x4000, Width::B), 1);
    }

    #[test]
    #[should_panic(expected = "stale checkpoint")]
    fn stale_checkpoint_panics() {
        let mut m = machine();
        m.write_mem(0x4000, Width::B, 1);
        let cp_old = m.checkpoint();
        m.write_mem(0x4000, Width::B, 2);
        let cp_new = m.checkpoint();
        m.restore(&cp_old);
        m.restore(&cp_new); // out of order
    }
}
