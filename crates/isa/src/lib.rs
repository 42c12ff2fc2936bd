//! µx86 — the compact x86-flavoured ISA used by AMuLeT-rs test cases.
//!
//! AMuLeT (ASPLOS 2025) fuzzes speculation countermeasures with short x86
//! test programs generated by Revizor. This crate is the Rust substitute for
//! that program representation: registers, flags, condition codes, operands,
//! instructions, basic-block DAG programs, an assembler that accepts the
//! exact syntax of the paper's figures, and — crucially — the *architectural
//! semantics* of every instruction.
//!
//! The semantics live here (rather than in the emulator) so that the leakage
//! model (`amulet-emu`) and the out-of-order simulator (`amulet-sim`)
//! execute byte-identical operations: any divergence between contract trace
//! and µarch trace is then attributable to *speculation*, never to semantic
//! drift between two interpreters.
//!
//! # Examples
//!
//! ```
//! use amulet_isa::parse_program;
//!
//! let program = parse_program(
//!     ".bb_main.0:
//!        AND RAX, 0b111111111111
//!        MOV RBX, qword ptr [R14 + RAX]
//!        EXIT",
//! ).unwrap();
//! assert_eq!(program.flatten().instrs.len(), 3);
//! ```

pub mod decode;
pub mod input;
pub mod instr;
pub mod parse;
pub mod program;
pub mod reg;
pub mod semantics;

pub use decode::{DecodedInstr, DecodedProgram, Flow};
pub use input::{LineDraw, MemImage, SeededImage, TestInput, LINE_SIZE, PAGE_SIZE};
pub use instr::{AluOp, Cond, Instr, LoopKind, MemRef, Operand, UnOp};
pub use parse::{parse_program, ParseProgramError};
pub use program::{BasicBlock, BlockId, FlatProgram, Program, SharedProgram};
pub use reg::{Flags, Gpr, Width};

/// Base virtual address where test-program code is assumed to live.
///
/// Each flat instruction index `i` occupies the 4 bytes at
/// `CODE_BASE + 4 * i`; the simulator's instruction cache works on these
/// addresses. The value is arbitrary but far from the data sandbox.
pub const CODE_BASE: u64 = 0x0040_1000;

/// Returns the synthetic code address for a flat instruction index.
pub fn code_addr(index: usize) -> u64 {
    CODE_BASE + 4 * index as u64
}
