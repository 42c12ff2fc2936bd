//! STT — Speculative Taint Tracking (Yu et al., MICRO 2019), Futuristic.
//!
//! Data returned by speculative *access* loads is tainted; taint propagates
//! through dataflow; *transmitters* (instructions forming addresses from
//! tainted data) are blocked until their sources untaint, which happens when
//! the producing load reaches the visibility point. Untainted speculative
//! loads may change cache state freely — STT's guarantee is that
//! *speculatively accessed data* never reaches a side channel, matching the
//! ARCH-SEQ contract (§4.1).
//!
//! The known vulnerability AMuLeT re-found (KV3, previously shown by DOLMA):
//! the gem5 implementation lets **tainted stores execute their address
//! translation**, installing a D-TLB entry whose page number encodes
//! speculatively accessed data. `store_tlb_bug: false` applies the
//! DOLMA-style fix (delay tainted stores).
//!
//! Both blocks are holds ([`Defense::holds_load`], [`Defense::holds_store`]):
//! an unsafe op with a tainted address is parked without re-issuing and
//! released when it becomes safe or an entry of the window untaints.

use amulet_sim::{Defense, LoadCtx, LoadPlan, StoreCtx, StorePlan};

/// The STT defense policy.
#[derive(Debug, Clone, Copy)]
pub struct Stt {
    /// KV3: tainted stores still execute and access the TLB.
    pub store_tlb_bug: bool,
}

impl Stt {
    /// The published implementation (KV3 present).
    pub fn published() -> Self {
        Stt {
            store_tlb_bug: true,
        }
    }

    /// With the DOLMA-style fix: tainted stores are delayed.
    pub fn patched() -> Self {
        Stt {
            store_tlb_bug: false,
        }
    }
}

impl Defense for Stt {
    fn name(&self) -> &'static str {
        if self.store_tlb_bug {
            "STT"
        } else {
            "STT-Patched"
        }
    }

    fn needs_taint(&self) -> bool {
        true
    }

    fn holds_load(&self, safe: bool, tainted_addr: bool) -> bool {
        // A tainted-address load is a transmitter: block until the source
        // untaints (its producer load reaches visibility).
        !safe && tainted_addr
    }

    fn holds_store(&self, safe: bool, tainted_addr: bool) -> bool {
        // KV3: with the bug, the tainted store executes anyway, translating
        // its address and installing a D-TLB entry.
        !self.store_tlb_bug && !safe && tainted_addr
    }

    fn plan_load(&mut self, _ctx: &LoadCtx) -> LoadPlan {
        // Untainted loads execute and fill normally, even speculatively.
        LoadPlan::baseline()
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

    fn sim_with(defense: Stt, pages: usize) -> Simulator {
        let cfg = SimConfig::default().with_sandbox_pages(pages);
        Simulator::new(cfg, Box::new(defense))
    }

    #[test]
    fn tainted_transmitter_is_blocked() {
        let src = gadgets::spectre_v1(payload::DOUBLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = sim_with(Stt::published(), 1);
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = 64; // first (access) load reads word 8
        victim.set_word(8, 0xA80); // tainted secret -> would leak line 0x4A80
        let squashes = gadgets::train_then_run(&mut sim, &flat, &victim, false);
        assert!(squashes > 0);
        let l1d = sim.snapshot().l1d;
        assert!(
            !l1d.contains(&0x4A80),
            "STT must block the tainted transmitter: {l1d:x?}"
        );
        assert!(
            l1d.contains(&0x4040),
            "the untainted access load itself may fill: {l1d:x?}"
        );
        assert!(sim
            .log()
            .any(|e| matches!(e, DebugEvent::TaintDelay { .. })));
    }

    #[test]
    fn kv3_tainted_store_fills_tlb() {
        // The wrong path loads a secret and encodes it in a *store* address;
        // the store is blocked from the cache but (bug) translates, leaving
        // a secret-dependent TLB entry — paper Fig. 9.
        let src = gadgets::spectre_v1(payload::LOAD_THEN_STORE);
        let flat = parse_program(&src).unwrap().flatten();
        let run = |bug: bool, secret: u64| {
            let defense = if bug {
                Stt::published()
            } else {
                Stt::patched()
            };
            let mut sim = sim_with(defense, 128);
            let mut victim = gadgets::victim_input(128);
            // 96 = 0b1100000: even parity after the AND, so CMOVP moves.
            victim.regs[2] = 96; // access load reads word 12
            victim.set_word(12, secret); // page-sized secret
            let squashes = gadgets::train_then_run(&mut sim, &flat, &victim, false);
            assert!(squashes > 0);
            sim.snapshot().dtlb
        };
        // Secrets in different pages: the TLB footprint differs iff buggy.
        let a = run(true, 0x9000);
        let b = run(true, 0xD000);
        assert_ne!(a, b, "KV3: secret-dependent TLB entries: {a:?} vs {b:?}");

        let a = run(false, 0x9000);
        let b = run(false, 0xD000);
        assert_eq!(a, b, "patched STT must not leak through the TLB");
    }

    #[test]
    fn architectural_taint_clears_at_visibility() {
        // When the gadget's branch is *architecturally taken*, the payload
        // runs for real: the transmitter untaints once older speculation
        // resolves, executes, and produces the right value — no deadlock.
        let src = gadgets::spectre_v1(payload::DOUBLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let mut input = gadgets::train_input(1); // branch taken
        input.regs[1] = 64;
        input.set_word(8, 0x300);
        input.set_word(0x300 / 8, 0x77);

        let mut sim = sim_with(Stt::published(), 1);
        sim.load_test(&flat, &input);
        let res = sim.run();
        assert!(res.exit_cycle.is_some(), "no deadlock from taint delays");
        assert_eq!(sim.arch_regs()[4], 0x77, "RSI got the transmitted value");
    }

    #[test]
    fn untainted_spec_loads_may_fill() {
        // STT's contract allows leaks of architectural (untainted) data:
        // a wrong-path load whose address comes from an initial register
        // fills the cache even under STT.
        let src = gadgets::spectre_v1(payload::SINGLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = sim_with(Stt::published(), 1);
        let mut victim = gadgets::victim_input(1);
        victim.regs[1] = 0x740;
        let squashes = gadgets::train_then_run(&mut sim, &flat, &victim, false);
        assert!(squashes > 0);
        assert!(
            sim.snapshot().l1d.contains(&0x4740),
            "register-addressed spec load is untainted and fills"
        );
    }
}
