//! InvisiSpec (Yan et al., MICRO 2018), Futuristic mode.
//!
//! Speculative loads fetch their data through *invisible* requests that must
//! not change any cache state; when a load reaches the visibility point, an
//! *expose* request installs the line normally. The gem5 implementation bug
//! AMuLeT found (UV1, paper Listing 1) is that a speculative miss in a full
//! set still triggers an L1 replacement — leaking the speculative address
//! through the evicted victim. The paper's Listing 2 patch restricts
//! replacements to non-speculative requests.
//!
//! Even patched, InvisiSpec is vulnerable to same-core speculative
//! interference (UV2): invisible requests occupy MSHRs, delaying exposes of
//! older loads past the end of the test. That emerges from the simulator's
//! memory system under reduced MSHR counts — no code here is involved, which
//! is the point.

use amulet_sim::{Defense, FillMode, LoadCtx, LoadPlan, StoreCtx, StorePlan};

/// The InvisiSpec defense policy.
#[derive(Debug, Clone, Copy)]
pub struct InvisiSpec {
    /// Reproduce the UV1 speculative-eviction bug (paper Listing 1).
    pub eviction_bug: bool,
}

impl InvisiSpec {
    /// The published gem5 implementation (UV1 present).
    pub fn published() -> Self {
        InvisiSpec { eviction_bug: true }
    }

    /// With the paper's Listing 2 patch applied.
    pub fn patched() -> Self {
        InvisiSpec {
            eviction_bug: false,
        }
    }
}

impl Defense for InvisiSpec {
    fn name(&self) -> &'static str {
        if self.eviction_bug {
            "InvisiSpec"
        } else {
            "InvisiSpec-Patched"
        }
    }

    fn plan_load(&mut self, ctx: &LoadCtx) -> LoadPlan {
        if ctx.safe {
            return LoadPlan::baseline();
        }
        LoadPlan {
            fill: FillMode::NoFill {
                buggy_eviction: self.eviction_bug,
                ghost: false,
            },
            // InvisiSpec does not protect the TLB (hence the 1-page sandbox
            // in the paper's harness).
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
    use crate::gadgets::{self, payload};
    use amulet_isa::{parse_program, TestInput};
    use amulet_sim::{DebugEvent, SimConfig, Simulator};

    fn run_victim(defense: InvisiSpec, prefill: bool) -> (Simulator, Vec<u64>) {
        let src = gadgets::spectre_v1(payload::SINGLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(defense));
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = 0x740; // wrong-path load -> line 0x4740
        let squashes = gadgets::train_then_run(&mut sim, &flat, &victim, prefill);
        assert!(squashes > 0, "victim run must mispredict");
        let snap = sim.snapshot().l1d;
        (sim, snap)
    }

    #[test]
    fn invisible_loads_do_not_install() {
        let (_, l1d) = run_victim(InvisiSpec::patched(), false);
        assert!(
            !l1d.contains(&0x4740),
            "patched InvisiSpec must not install the wrong-path line: {l1d:x?}"
        );
    }

    #[test]
    fn uv1_eviction_bug_leaks_through_victims() {
        // With a prefilled cache, the buggy speculative miss evicts a victim
        // from the set of the secret-dependent address.
        let (sim, buggy) = run_victim(InvisiSpec::published(), true);
        assert!(
            sim.log()
                .any(|e| matches!(e, DebugEvent::Replace { spec: true, .. })),
            "UV1 signature: speculative replacement"
        );
        assert!(!buggy.contains(&0x4740), "spec line itself stays invisible");

        let (_, patched) = run_victim(InvisiSpec::patched(), true);
        assert_ne!(
            buggy, patched,
            "the eviction bug must change the final cache state"
        );
        // The buggy run lost at least one prefilled line in the secret's set.
        assert!(patched.len() > buggy.len());
    }

    #[test]
    fn committed_loads_expose_and_install() {
        let flat = parse_program("MOV RAX, qword ptr [R14 + 8]\nEXIT")
            .unwrap()
            .flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(InvisiSpec::patched()));
        sim.load_test(&flat, &TestInput::zeroed(1));
        sim.run();
        assert!(
            sim.snapshot().l1d.contains(&0x4000),
            "architectural loads must appear after expose"
        );
    }

    #[test]
    fn squashed_loads_are_never_exposed() {
        let (sim, _) = run_victim(InvisiSpec::patched(), false);
        let exposes_of_squashed = sim
            .log()
            .any(|e| matches!(e, DebugEvent::Expose { addr, .. } if *addr == 0x4740));
        assert!(!exposes_of_squashed, "squashed wrong-path load exposed");
    }

    #[test]
    fn same_ctrace_inputs_give_same_state_when_patched() {
        // Two victims with different wrong-path-only secrets must leave the
        // same µarch state under patched InvisiSpec (default config).
        let run = |secret: u64| {
            let src = gadgets::spectre_v1(payload::SINGLE_LOAD);
            let flat = parse_program(&src).unwrap().flatten();
            let mut sim = Simulator::new(SimConfig::default(), Box::new(InvisiSpec::patched()));
            let mut victim = gadgets::victim_input(1);
            victim.regs[1] = secret;
            gadgets::train_then_run(&mut sim, &flat, &victim, true);
            let s = sim.snapshot();
            (s.l1d, s.dtlb)
        };
        assert_eq!(run(0x740), run(0x100));
    }
}
