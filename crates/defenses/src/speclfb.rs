//! SpecLFB (Cheng et al., USENIX Security 2024).
//!
//! Security checks on the line-fill buffer: speculative cache *misses* are
//! parked in the LFB and only installed into the cache once the load is
//! safe; squashed loads' LFB entries are dropped. Speculative hits do not
//! update replacement state.
//!
//! The vulnerability AMuLeT found (UV6, paper Fig. 8): an undocumented
//! optimisation clears the `isReallyUnsafe` flag when a load is the *first*
//! speculative load in the load-store queue, so single-speculative-load
//! Spectre gadgets (`isUnsafe()` returns false) fill the cache directly —
//! making the open-source implementation insecure against plain Spectre-v1
//! with a register secret.

use amulet_sim::{Defense, FillMode, LoadCtx, LoadPlan, StoreCtx, StorePlan};

/// The SpecLFB defense policy.
#[derive(Debug, Clone, Copy)]
pub struct SpecLfb {
    /// UV6: the first speculative load in the LSQ is treated as safe.
    pub first_load_opt_bug: bool,
}

impl SpecLfb {
    /// The published gem5 implementation (UV6 present).
    pub fn published() -> Self {
        SpecLfb {
            first_load_opt_bug: true,
        }
    }

    /// Without the `isReallyUnsafe` optimisation.
    pub fn patched() -> Self {
        SpecLfb {
            first_load_opt_bug: false,
        }
    }
}

impl Defense for SpecLfb {
    fn name(&self) -> &'static str {
        if self.first_load_opt_bug {
            "SpecLFB"
        } else {
            "SpecLFB-Patched"
        }
    }

    fn plan_load(&mut self, ctx: &LoadCtx) -> LoadPlan {
        if ctx.safe {
            return LoadPlan::baseline();
        }
        if self.first_load_opt_bug && ctx.first_unsafe_load {
            // isPrevNoUnsafe() -> clearReallyUnsafe(): the load is treated
            // as safe and fills the cache immediately (UV6).
            return LoadPlan {
                flag_unsafe_fill: true,
                ..LoadPlan::baseline()
            };
        }
        LoadPlan {
            fill: FillMode::Park,
            tlb: true,
            expose_at_safe: false,
            flag_unsafe_fill: false,
        }
    }

    fn plan_store(&mut self, _ctx: &StoreCtx) -> StorePlan {
        StorePlan::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::{self, payload};
    use amulet_isa::parse_program;
    use amulet_sim::{DebugEvent, SimConfig, Simulator};

    fn run_victim(defense: SpecLfb, body: &str, secret_reg: usize, secret: u64) -> Simulator {
        let src = gadgets::spectre_v1(body);
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(defense));
        let mut victim = gadgets::victim_input(1);
        victim.regs[secret_reg] = secret;
        let squashes = gadgets::train_then_run(&mut sim, &flat, &victim, false);
        assert!(squashes > 0, "victim must mispredict");
        sim
    }

    #[test]
    fn uv6_first_speculative_load_leaks() {
        // Secret in RBX, a single speculative load (paper Fig. 8b): the
        // buggy first-load optimisation lets it fill directly.
        let sim = run_victim(SpecLfb::published(), payload::SINGLE_LOAD, 1, 0x740);
        let l1d = sim.snapshot().l1d;
        assert!(
            l1d.contains(&0x4740),
            "UV6: the first speculative load fills directly: {l1d:x?}"
        );
        assert!(sim
            .log()
            .any(|e| matches!(e, DebugEvent::LfbUnsafeFill { .. })));
    }

    #[test]
    fn patched_single_load_is_parked_and_dropped() {
        let sim = run_victim(SpecLfb::patched(), payload::SINGLE_LOAD, 1, 0x740);
        let l1d = sim.snapshot().l1d;
        assert!(
            !l1d.contains(&0x4740),
            "patched SpecLFB parks and drops the squashed miss: {l1d:x?}"
        );
        assert!(sim.log().any(|e| matches!(e, DebugEvent::LfbPark { .. })));
    }

    #[test]
    fn second_speculative_load_is_protected_even_buggy() {
        // The dependent transmitter is never the first unsafe load in the
        // LSQ, so the optimisation cannot unprotect it.
        let mut sim = {
            let src = gadgets::spectre_v1(payload::DOUBLE_LOAD);
            let flat = parse_program(&src).unwrap().flatten();
            let mut sim = Simulator::new(SimConfig::default(), Box::new(SpecLfb::published()));
            let mut victim = gadgets::victim_input(1);
            victim.regs[1] = 64;
            victim.set_word(8, 0xA80); // secret loaded speculatively
            let squashes = gadgets::train_then_run(&mut sim, &flat, &victim, false);
            assert!(squashes > 0);
            sim
        };
        let l1d = sim.snapshot().l1d;
        assert!(
            !l1d.contains(&0x4A80),
            "the dependent transmitter is parked, not filled: {l1d:x?}"
        );
        let _ = &mut sim;
    }

    #[test]
    fn safe_parked_lines_install() {
        // An architectural load that was briefly speculative (behind a
        // resolving branch) must still end up cached.
        use amulet_isa::TestInput;
        let src = "
            MOV RAX, qword ptr [R14 + 256]
            CMP RAX, 0
            JNZ .t
            .t:
            MOV RDX, qword ptr [R14 + 128]
            MOV RSI, qword ptr [R14 + 512]
            EXIT";
        let flat = parse_program(src).unwrap().flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(SpecLfb::patched()));
        sim.load_test(&flat, &TestInput::zeroed(1));
        let res = sim.run();
        assert!(res.exit_cycle.is_some());
        let l1d = sim.snapshot().l1d;
        assert!(
            l1d.contains(&0x4080) && l1d.contains(&0x4200),
            "architectural loads install once safe: {l1d:x?}"
        );
    }
}
