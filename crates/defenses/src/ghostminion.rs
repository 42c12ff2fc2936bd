//! A GhostMinion-style strictness-ordered defense (Ainsworth, MICRO 2021).
//!
//! The paper points to GhostMinion as the fix for the same-core speculative
//! interference variant it found in InvisiSpec (UV2): *strictness ordering*
//! guarantees that younger (speculative) operations can never influence the
//! timing of older ones. We model that property directly: invisible
//! speculative requests travel on their own virtual channel, bypassing the
//! MSHRs and the cache-controller queue, so they cannot delay exposes or
//! demand requests. Exposes at the visibility point behave like
//! InvisiSpec's.
//!
//! This is an *extension* defense (§4.5 "Fix"), used by the ablation bench
//! to show the UV2 signal disappearing.

use amulet_sim::{Defense, FillMode, LoadCtx, LoadPlan, StoreCtx, StorePlan};

/// The GhostMinion-style defense policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct GhostMinion;

impl GhostMinion {
    /// Creates the defense.
    pub fn new() -> Self {
        GhostMinion
    }
}

impl Defense for GhostMinion {
    fn name(&self) -> &'static str {
        "GhostMinion"
    }

    fn plan_load(&mut self, ctx: &LoadCtx) -> LoadPlan {
        if ctx.safe {
            return LoadPlan::baseline();
        }
        LoadPlan {
            fill: FillMode::NoFill {
                buggy_eviction: false,
                ghost: true,
            },
            tlb: true,
            expose_at_safe: true,
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
    use amulet_isa::{parse_program, TestInput};
    use amulet_sim::{DebugEvent, SimConfig, Simulator};

    #[test]
    fn invisible_and_installs_after_safety() {
        let flat = parse_program(
            "MOV RAX, qword ptr [R14 + 8]
             EXIT",
        )
        .unwrap()
        .flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(GhostMinion::new()));
        sim.load_test(&flat, &TestInput::zeroed(1));
        sim.run();
        assert!(sim.snapshot().l1d.contains(&0x4000));
    }

    #[test]
    fn ghost_requests_never_stall_mshrs() {
        // Even with 1 MSHR, speculative ghost loads do not contend.
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
        let cfg = SimConfig::default().amplified(2, 1);
        let mut sim = Simulator::new(cfg, Box::new(GhostMinion::new()));
        for _ in 0..12 {
            let mut t = TestInput::zeroed(1);
            t.set_word(32, 1);
            sim.load_test(&flat, &t);
            sim.run();
        }
        sim.flush_caches();
        let mut victim = TestInput::zeroed(1);
        victim.regs[1] = 0x740;
        sim.load_test(&flat, &victim);
        let res = sim.run();
        assert!(res.squashes > 0);
        let spec_stalls = sim
            .log()
            .events()
            .iter()
            .filter(|e| matches!(e, DebugEvent::MshrStall { .. }))
            .count();
        assert_eq!(spec_stalls, 0, "ghost channel avoids MSHR contention");
        assert!(!sim.snapshot().l1d.contains(&0x4740), "still invisible");
    }
}
