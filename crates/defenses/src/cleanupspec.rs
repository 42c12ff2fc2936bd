//! CleanupSpec (Saileshwar & Qureshi, MICRO 2019).
//!
//! Speculative loads change cache state freely; on a squash, an *undo* pass
//! rolls the changes back (invalidate installed lines, restore evicted
//! victims), paying a cleanup latency on the squash path. AMuLeT's findings,
//! all reproduced here as toggles:
//!
//! - **UV3** (`store_cleanup_bug`): the gem5 `writeCallback()` never records
//!   cleanup metadata for speculative stores' execute-time RFO fills, so
//!   squashed stores leave their lines behind (paper Listing 3).
//! - **UV4** (`split_cleanup_bug`): requests crossing a cache-line boundary
//!   spawn split requests whose fills are never recorded for cleanup (paper
//!   Listing 4: `// TODO: Cleanup for SplitReq`).
//! - **UV5** (inherent): cleanup invalidates a line even when an older
//!   *non-speculative* load also touched it, erasing the architectural
//!   footprint ("too much cleaning"). The `no_clean_mitigation` flag
//!   implements the commit-time `noClean` idea the paper leaves to future
//!   work, for ablation benches.
//! - **KV2** (inherent): cleanup costs cycles on the squash critical path
//!   (`cleanup_latency`), so the amount of cleanup leaks through execution
//!   time — observable through post-exit instruction fetch-ahead in the L1I
//!   (the unXpec channel).

use amulet_sim::{Defense, FillMode, LoadCtx, LoadPlan, SquashPlan, StoreCtx, StorePlan};

/// The CleanupSpec defense policy.
#[derive(Debug, Clone, Copy)]
pub struct CleanupSpec {
    /// UV3: speculative stores' RFO fills carry no cleanup metadata.
    pub store_cleanup_bug: bool,
    /// UV4: split-request fills carry no cleanup metadata.
    pub split_cleanup_bug: bool,
    /// Optional UV5 mitigation (off in the published design).
    pub no_clean_mitigation: bool,
    /// Cycles per cleanup operation on the squash path (KV2 channel).
    pub cleanup_latency: u64,
}

impl CleanupSpec {
    /// The published implementation: both bugs present, no mitigation.
    pub fn published() -> Self {
        CleanupSpec {
            store_cleanup_bug: true,
            split_cleanup_bug: true,
            no_clean_mitigation: false,
            cleanup_latency: 24,
        }
    }

    /// With the UV3 store-cleanup patch (the paper's "Patched" column in
    /// Table 8); UV4 and UV5 remain.
    pub fn patched() -> Self {
        CleanupSpec {
            store_cleanup_bug: false,
            ..Self::published()
        }
    }
}

impl Defense for CleanupSpec {
    fn name(&self) -> &'static str {
        if self.store_cleanup_bug {
            "CleanupSpec"
        } else {
            "CleanupSpec-Patched"
        }
    }

    fn plan_load(&mut self, ctx: &LoadCtx) -> LoadPlan {
        if ctx.safe {
            return LoadPlan::baseline();
        }
        LoadPlan {
            fill: FillMode::FillUndo {
                record: !(ctx.split && self.split_cleanup_bug),
            },
            tlb: true,
            expose_at_safe: false,
            flag_unsafe_fill: false,
        }
    }

    fn plan_store(&mut self, ctx: &StoreCtx) -> StorePlan {
        // CleanupSpec's gem5 implementation lets stores fetch their line at
        // execute time (the behaviour UV3's missing metadata exposes).
        let rfo = if ctx.safe {
            FillMode::Fill
        } else {
            FillMode::FillUndo {
                record: !(self.store_cleanup_bug || (ctx.split && self.split_cleanup_bug)),
            }
        };
        StorePlan {
            tlb: true,
            rfo: Some(rfo),
        }
    }

    fn squash_plan(&self) -> SquashPlan {
        SquashPlan {
            cleanup: true,
            no_clean: self.no_clean_mitigation,
            cleanup_latency_per_op: self.cleanup_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadgets::{self, payload};
    use amulet_isa::{parse_program, TestInput};
    use amulet_sim::{DebugEvent, SimConfig, Simulator};

    fn sim_with(defense: CleanupSpec) -> Simulator {
        Simulator::new(SimConfig::default(), Box::new(defense))
    }

    fn run_gadget(defense: CleanupSpec, payload: &str, victim: &TestInput) -> Simulator {
        let src = gadgets::spectre_v1(payload);
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = sim_with(defense);
        let squashes = gadgets::train_then_run(&mut sim, &flat, victim, false);
        assert!(squashes > 0, "victim must mispredict");
        sim
    }

    #[test]
    fn speculative_load_fills_are_cleaned() {
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = 0x740;
        let sim = run_gadget(CleanupSpec::published(), payload::SINGLE_LOAD, &victim);
        let l1d = sim.snapshot().l1d;
        assert!(
            !l1d.contains(&0x4740),
            "squashed load's line must be undone: {l1d:x?}"
        );
        assert!(sim.log().any(|e| matches!(e, DebugEvent::Undo { .. })));
    }

    #[test]
    fn uv3_spec_store_not_cleaned() {
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = 0x740;
        victim.regs[5] = 0x99; // RDI: stored value
        let sim = run_gadget(CleanupSpec::published(), payload::STORE, &victim);
        let l1d = sim.snapshot().l1d;
        assert!(
            l1d.contains(&0x4740),
            "UV3: the squashed store's RFO line persists: {l1d:x?}"
        );
        assert!(sim
            .log()
            .any(|e| matches!(e, DebugEvent::CleanupMissing { .. })));
    }

    #[test]
    fn uv3_patched_cleans_spec_stores() {
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = 0x740;
        victim.regs[5] = 0x99;
        let sim = run_gadget(CleanupSpec::patched(), payload::STORE, &victim);
        let l1d = sim.snapshot().l1d;
        assert!(
            !l1d.contains(&0x4740),
            "patched: the squashed store's RFO is undone: {l1d:x?}"
        );
    }

    #[test]
    fn uv4_split_request_not_cleaned() {
        // The wrong-path load straddles a line boundary (offset 0x73C + 8
        // bytes crosses 0x740); neither line is cleaned even when patched.
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = 0x73C;
        let sim = run_gadget(CleanupSpec::patched(), payload::SINGLE_LOAD, &victim);
        let l1d = sim.snapshot().l1d;
        assert!(
            l1d.contains(&0x4700) && l1d.contains(&0x4740),
            "UV4: split-request lines persist after squash: {l1d:x?}"
        );
        assert!(sim.log().any(|e| matches!(e, DebugEvent::SplitReq { .. })));
    }

    /// UV5 program: a *non-speculative* load (NSL, older than the branch
    /// but address-delayed behind an independent miss) races with a younger
    /// wrong-path load (SL). With a warm L2, SL fills the shared line first;
    /// NSL then hits it. Cleanup of the squashed SL erases the committed
    /// NSL's footprint — the paper's Table 9 reordering.
    const UV5_SRC: &str = "
        MOV RAX, qword ptr [R14 + 256]
        AND RAX, 0b111111
        MOV RCX, qword ptr [R14 + RAX + 512]
        MOV R9, qword ptr [R14 + 320]
        AND R9, 0b1
        MOV RSI, qword ptr [R14 + R9 + 192]
        CMP RCX, 0
        JNZ .body
        JMP .exit
        .body:
        AND RBX, 0b111111111111
        MOV RDX, qword ptr [R14 + RBX]
        JMP .exit
        .exit:
        EXIT";

    fn run_uv5(defense: CleanupSpec, sl_offset: u64) -> Simulator {
        let flat = parse_program(UV5_SRC).unwrap().flatten();
        let mut sim = sim_with(defense);
        for _ in 0..12 {
            sim.load_test(&flat, &gadgets::train_input(1));
            sim.run();
        }
        sim.flush_caches();
        // Warm the contested line in L2 so the wrong-path SL fills the L1
        // quickly — before the slow NSL's address resolves.
        sim.mem.l2.fill(0x40C0, false, true);
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = sl_offset;
        sim.load_test(&flat, &victim);
        let res = sim.run();
        assert!(res.squashes > 0, "victim must mispredict");
        sim
    }

    #[test]
    fn uv5_too_much_cleaning_erases_nonspec_footprint() {
        // Input A: SL targets the NSL's line (offset 192 -> line 0x40C0).
        let sim = run_uv5(CleanupSpec::published(), 192);
        let l1d = sim.snapshot().l1d;
        assert!(
            !l1d.contains(&0x40C0),
            "UV5: cleanup erased the committed NSL's line: {l1d:x?}"
        );
        assert!(sim.log().any(|e| matches!(e, DebugEvent::Undo { .. })));

        // Input B: SL targets a different line; the NSL's line stays.
        let sim = run_uv5(CleanupSpec::published(), 0x300);
        assert!(sim.snapshot().l1d.contains(&0x40C0));
    }

    #[test]
    fn uv5_no_clean_mitigation_spares_touched_lines() {
        let mut defense = CleanupSpec::published();
        defense.no_clean_mitigation = true;
        let sim = run_uv5(defense, 192);
        assert!(
            sim.snapshot().l1d.contains(&0x40C0),
            "noClean spares the line the non-speculative load touched: {:x?}",
            sim.snapshot().l1d
        );
    }

    #[test]
    fn kv2_cleanup_latency_extends_execution() {
        // Same program, one input needing no cleanup (wrong-path L1 hit)
        // and one needing cleanup (miss): execution time differs, and with
        // it the post-exit L1I fetch-ahead footprint (the unXpec channel).
        let run = |addr: u64| {
            let src = gadgets::spectre_v1(payload::SINGLE_LOAD);
            let flat = parse_program(&src).unwrap().flatten();
            let mut sim = sim_with(CleanupSpec::published());
            for _ in 0..12 {
                sim.load_test(&flat, &gadgets::train_input(1));
                sim.run();
            }
            sim.flush_caches();
            // Warm line 0x4000 so a wrong-path access to it is an L1 hit.
            sim.mem.l1d.fill(0x4000, false, true);
            let mut victim = gadgets::victim_input(1);
            victim.regs[1] = addr;
            sim.load_test(&flat, &victim);
            let res = sim.run();
            assert!(res.squashes > 0);
            (res.exit_cycle.unwrap(), sim.snapshot().l1i.len())
        };
        let (cycles_hit, l1i_hit) = run(0x8); // wrong path hits warmed line
        let (cycles_miss, l1i_miss) = run(0x740); // wrong path misses: cleanup
        assert!(
            cycles_miss > cycles_hit,
            "cleanup is on the critical path: {cycles_miss} vs {cycles_hit}"
        );
        assert!(
            l1i_miss >= l1i_hit,
            "longer execution fetches at least as many I-lines"
        );
    }
}
