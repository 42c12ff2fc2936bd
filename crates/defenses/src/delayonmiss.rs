//! Delay-on-Miss (Sakalis et al., ISCA 2019) — the paper cites it (reference \[30\]) as
//! the invisible-speculation family SpecLFB builds on.
//!
//! Speculative loads that *hit* the L1 proceed (hits are assumed not to
//! change observable state — replacement updates are deferred); speculative
//! loads that *miss* are delayed until the load reaches the visibility
//! point. Simpler than SpecLFB (no line-fill-buffer parking, no unsafe-flag
//! bookkeeping — and therefore no UV6-style bug surface), at a higher
//! performance cost: the miss latency is serialised behind the speculation
//! window.
//!
//! The fully conservative DelayAll variant holds every speculative load
//! ([`Defense::holds_load`]): the pipeline parks it without re-issuing and
//! releases it the cycle it reaches the visibility point.
//!
//! Included as an extension defense for the security-vs-performance ablation
//! bench (`bench ablation_perf`).

use amulet_sim::{Defense, FillMode, LoadCtx, LoadPlan, StoreCtx, StorePlan};

/// The Delay-on-Miss defense policy.
///
/// The simulator probes the L1 as part of the request; to model
/// delay-on-miss without a dedicated pre-probe hook, speculative loads use
/// [`FillMode::Park`]: a hit proceeds, a miss parks its line until the load
/// is safe. DelayAll instead holds every speculative load, hit or miss,
/// until it is safe.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayOnMiss {
    /// Also delay speculative L1 *hits* (the fully conservative "delay
    /// everything" variant — the eager-delay baseline of the paper's
    /// motivation).
    pub delay_hits: bool,
}

impl DelayOnMiss {
    /// Standard Delay-on-Miss: hits proceed invisibly, misses wait.
    pub fn new() -> Self {
        DelayOnMiss { delay_hits: false }
    }

    /// The fully conservative variant: every speculative load waits.
    pub fn delay_everything() -> Self {
        DelayOnMiss { delay_hits: true }
    }
}

impl Defense for DelayOnMiss {
    fn name(&self) -> &'static str {
        if self.delay_hits {
            "DelayAll"
        } else {
            "DelayOnMiss"
        }
    }

    fn holds_load(&self, safe: bool, _tainted_addr: bool) -> bool {
        self.delay_hits && !safe
    }

    fn plan_load(&mut self, ctx: &LoadCtx) -> LoadPlan {
        if ctx.safe {
            return LoadPlan::baseline();
        }
        // Only DelayOnMiss plans an unsafe load. Hits proceed without
        // touching replacement state; misses park in the (bug-free) fill
        // buffer and install once safe — squashed loads drop their parked
        // lines, so no speculative state ever commits.
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
    use amulet_sim::{SimConfig, Simulator};

    fn run_victim(defense: DelayOnMiss, secret: u64) -> Vec<u64> {
        let src = gadgets::spectre_v1(payload::SINGLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let mut sim = Simulator::new(SimConfig::default(), Box::new(defense));
        let squashes = {
            let mut victim = gadgets::victim_input(1);
            victim.regs[1] = secret;
            gadgets::train_then_run(&mut sim, &flat, &victim, false)
        };
        assert!(squashes > 0, "victim must mispredict");
        sim.snapshot().l1d
    }

    #[test]
    fn blocks_single_load_spectre_v1() {
        for defense in [DelayOnMiss::new(), DelayOnMiss::delay_everything()] {
            // Secrets chosen to avoid the gadget's architectural lines
            // (0x4100/0x4200).
            let a = run_victim(defense, 0x740);
            let b = run_victim(defense, 0x340);
            assert_eq!(a, b, "{}: wrong-path miss leaked", defense.name());
            assert!(!a.contains(&0x4740) && !b.contains(&0x4340));
        }
    }

    #[test]
    fn architectural_results_unaffected() {
        use amulet_emu::{Emulator, NullObserver};
        let src = gadgets::spectre_v1(payload::DOUBLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let mut input = gadgets::train_input(1);
        input.regs[1] = 64;
        input.set_word(8, 0x300);
        input.set_word(0x300 / 8, 0x55);

        let mut emu = Emulator::new(&flat, 0x4000, &input);
        emu.run(&mut NullObserver, 100_000).unwrap();

        for defense in [DelayOnMiss::new(), DelayOnMiss::delay_everything()] {
            let mut sim = Simulator::new(SimConfig::default(), Box::new(defense));
            sim.load_test(&flat, &input);
            let res = sim.run();
            assert!(res.exit_cycle.is_some(), "{}: deadlock", defense.name());
            assert_eq!(sim.arch_regs(), &emu.machine.regs, "{}", defense.name());
        }
    }

    #[test]
    fn delay_all_is_slower_than_delay_on_miss() {
        // Warm the wrong-path line so DelayOnMiss lets the (hitting) load
        // proceed while DelayAll still serialises it: the conservative
        // variant can never be faster.
        let src = gadgets::spectre_v1(payload::SINGLE_LOAD);
        let flat = parse_program(&src).unwrap().flatten();
        let run = |defense: DelayOnMiss| {
            let mut sim = Simulator::new(SimConfig::default(), Box::new(defense));
            let mut input = gadgets::train_input(1);
            input.regs[1] = 0x8;
            sim.load_test(&flat, &input);
            sim.run().exit_cycle.unwrap()
        };
        assert!(run(DelayOnMiss::delay_everything()) >= run(DelayOnMiss::new()));
    }
}
