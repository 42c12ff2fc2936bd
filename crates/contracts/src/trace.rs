//! Contract traces: sequences of ISA-level observations.

use amulet_emu::{MemKind, Observer};
use amulet_isa::{Instr, Width};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

/// One ISA-level observation in a contract trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Observation {
    /// The program counter (flat instruction index) of an executed
    /// instruction.
    Pc(usize),
    /// The (wrapped) virtual address of a load or store.
    MemAddr {
        /// Load or store.
        kind: MemKind,
        /// Wrapped virtual address.
        addr: u64,
    },
    /// A value loaded from memory (ARCH-SEQ only).
    LoadValue(u64),
    /// An initial architectural register value (ARCH-SEQ only): committed
    /// register state is architecturally reachable, so register-resident
    /// secrets are expected leakage under STT's contract.
    InitReg {
        /// Register index.
        index: usize,
        /// Initial value.
        value: u64,
    },
    /// Marks entry into a speculative exploration segment (CT-COND /
    /// CT-BPAS); keeps speculative observations from aliasing architectural
    /// ones at segment boundaries.
    SpecEnter,
    /// Marks the rollback at the end of a speculative segment.
    SpecExit,
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::Pc(pc) => write!(f, "pc:{pc}"),
            Observation::MemAddr { kind, addr } => {
                let k = match kind {
                    MemKind::Load => "ld",
                    MemKind::Store => "st",
                };
                write!(f, "{k}:{addr:#x}")
            }
            Observation::LoadValue(v) => write!(f, "val:{v:#x}"),
            Observation::InitReg { index, value } => write!(f, "r{index}={value:#x}"),
            Observation::SpecEnter => write!(f, "spec{{"),
            Observation::SpecExit => write!(f, "}}spec"),
        }
    }
}

/// A complete contract trace for one (program, input) execution.
///
/// Equality of `CTrace`s defines the indistinguishability classes of
/// Definition 2.1. A 64-bit digest is precomputed for fast grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CTrace {
    observations: Vec<Observation>,
    digest: u64,
}

impl CTrace {
    /// Builds a trace from observations (computing the digest).
    pub fn new(observations: Vec<Observation>) -> Self {
        CTrace {
            digest: digest_of(&observations),
            observations,
        }
    }

    /// The observation sequence.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// A 64-bit digest of the trace (equal traces have equal digests).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }
}

impl Hash for CTrace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.digest.hash(state);
    }
}

impl fmt::Display for CTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.observations.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{o}")?;
        }
        Ok(())
    }
}

/// The digest [`CTrace::new`] stores for `observations`.
fn digest_of(observations: &[Observation]) -> u64 {
    let mut h = DefaultHasher::new();
    observations.hash(&mut h);
    h.finish()
}

/// [`Observer`] that accumulates a contract trace during emulation.
#[derive(Debug, Default)]
pub struct CTraceBuilder {
    observations: Vec<Observation>,
    observe_values: bool,
}

impl CTraceBuilder {
    /// Creates a builder; `observe_values` enables the ARCH-SEQ value clause.
    pub fn new(observe_values: bool) -> Self {
        CTraceBuilder {
            observations: Vec::new(),
            observe_values,
        }
    }

    /// Empties the builder for a new trace, keeping its allocation.
    pub fn reset(&mut self, observe_values: bool) {
        self.observations.clear();
        self.observe_values = observe_values;
    }

    /// The digest of the trace built so far: equal to
    /// `finish().digest()`, without giving up the buffer.
    pub fn digest(&self) -> u64 {
        digest_of(&self.observations)
    }

    /// Appends a speculation-segment marker.
    pub fn push_marker(&mut self, obs: Observation) {
        self.observations.push(obs);
    }

    /// Finishes the trace.
    pub fn finish(self) -> CTrace {
        CTrace::new(self.observations)
    }
}

impl Observer for CTraceBuilder {
    fn on_instr(&mut self, pc: usize, _instr: &Instr) {
        self.observations.push(Observation::Pc(pc));
    }

    fn on_mem(&mut self, kind: MemKind, addr: u64, _width: Width, value: u64) {
        self.observations.push(Observation::MemAddr { kind, addr });
        if self.observe_values && kind == MemKind::Load {
            self.observations.push(Observation::LoadValue(value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_traces_share_digest() {
        let a = CTrace::new(vec![Observation::Pc(1), Observation::LoadValue(5)]);
        let b = CTrace::new(vec![Observation::Pc(1), Observation::LoadValue(5)]);
        let c = CTrace::new(vec![Observation::Pc(2)]);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn builder_respects_value_clause() {
        let mut b = CTraceBuilder::new(false);
        b.on_mem(MemKind::Load, 0x40, Width::Q, 9);
        assert_eq!(b.finish().len(), 1);

        let mut b = CTraceBuilder::new(true);
        b.on_mem(MemKind::Load, 0x40, Width::Q, 9);
        let t = b.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.observations()[1], Observation::LoadValue(9));

        // Store values are never observed.
        let mut b = CTraceBuilder::new(true);
        b.on_mem(MemKind::Store, 0x40, Width::Q, 9);
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn builder_digest_matches_finished_trace() {
        let mut b = CTraceBuilder::new(true);
        b.push_marker(Observation::InitReg { index: 0, value: 7 });
        b.on_mem(MemKind::Load, 0x40, Width::Q, 9);
        let digest = b.digest();
        assert_eq!(b.finish().digest(), digest);
        let mut b = CTraceBuilder::new(true);
        b.on_mem(MemKind::Load, 0x40, Width::Q, 9);
        b.reset(false);
        assert_eq!(b.digest(), CTrace::new(Vec::new()).digest());
    }

    #[test]
    fn display_is_readable() {
        let t = CTrace::new(vec![
            Observation::Pc(3),
            Observation::MemAddr {
                kind: MemKind::Load,
                addr: 0x4010,
            },
            Observation::SpecEnter,
            Observation::SpecExit,
        ]);
        assert_eq!(t.to_string(), "pc:3 ld:0x4010 spec{ }spec");
    }
}
