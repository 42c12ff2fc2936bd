//! A held memory op is asked about once per hold and once per release, never
//! once per dirty cycle: the pipeline parks an op its defense holds
//! (`Defense::holds_load`) and re-asks only when the op's `safe` or
//! `tainted_addr` input changes.
//!
//! The gadget is `spectre_v1` run architecturally taken: its body's loads
//! wait behind a branch whose condition comes from two cache-missing loads,
//! so each hold spans many dirty cycles before the branch resolves and the
//! loads become safe.

use amulet::defenses::gadgets::{self, payload};
use amulet::defenses::DefenseKind;
use amulet::emu::{Emulator, NullObserver};
use amulet::isa::parse_program;
use amulet::sim::{
    DebugEvent, Defense, LoadCtx, LoadPlan, LogMode, SimConfig, Simulator, SquashPlan, StoreCtx,
    StorePlan,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What the counting wrapper saw.
#[derive(Debug, Default)]
struct Counts {
    /// `holds_load` calls.
    asks: AtomicUsize,
    /// `holds_load` calls answered "hold".
    holds: AtomicUsize,
    /// The ROB sequence numbers `plan_load` was asked for.
    planned: Mutex<Vec<usize>>,
}

/// Forwards every hook to `inner`, counting the load-side ones.
#[derive(Debug)]
struct Counting {
    inner: Box<dyn Defense>,
    counts: Arc<Counts>,
}

impl Defense for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn needs_taint(&self) -> bool {
        self.inner.needs_taint()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn holds_load(&self, safe: bool, tainted_addr: bool) -> bool {
        let held = self.inner.holds_load(safe, tainted_addr);
        self.counts.asks.fetch_add(1, Ordering::Relaxed);
        self.counts
            .holds
            .fetch_add(held as usize, Ordering::Relaxed);
        held
    }
    fn holds_store(&self, safe: bool, tainted_addr: bool) -> bool {
        self.inner.holds_store(safe, tainted_addr)
    }
    fn plan_load(&mut self, ctx: &LoadCtx) -> LoadPlan {
        self.counts.planned.lock().unwrap().push(ctx.seq);
        self.inner.plan_load(ctx)
    }
    fn plan_store(&mut self, ctx: &StoreCtx) -> StorePlan {
        self.inner.plan_store(ctx)
    }
    fn squash_plan(&self) -> SquashPlan {
        self.inner.squash_plan()
    }
}

/// One counted run of the architecturally taken gadget after training.
struct Run {
    asks: usize,
    holds: usize,
    planned: Vec<usize>,
    /// ROB sequence numbers with a `TaintDelay` row (Record mode only).
    held_seqs: BTreeSet<usize>,
    /// `TaintDelay` rows: one per visit to a held load, i.e. what a
    /// once-per-dirty-cycle poll would have asked.
    visits: usize,
    regs: [u64; 16],
}

fn counted_run(kind: DefenseKind, mode: LogMode) -> Run {
    let name = kind.name();
    let flat = parse_program(&gadgets::spectre_v1(payload::DOUBLE_LOAD))
        .unwrap()
        .flatten();
    let mut input = gadgets::train_input(1);
    input.regs[1] = 64;
    input.set_word(8, 0x300);
    input.set_word(0x300 / 8, 0x77);
    let counts = Arc::new(Counts::default());
    let defense = Counting {
        inner: kind.build(),
        counts: counts.clone(),
    };
    let mut sim = Simulator::new(SimConfig::default(), Box::new(defense));
    sim.set_log_mode(mode);
    // Train the branch taken, then run cold so its condition loads miss.
    for _ in 0..12 {
        sim.load_test(&flat, &input);
        sim.run();
    }
    sim.flush_caches();
    counts.asks.store(0, Ordering::Relaxed);
    counts.holds.store(0, Ordering::Relaxed);
    counts.planned.lock().unwrap().clear();
    sim.load_test(&flat, &input);
    let res = sim.run();
    assert!(res.exit_cycle.is_some(), "{name}: hit the cycle cap");
    assert_eq!(res.squashes, 0, "{name}: the trained branch mispredicted");

    let mut emu = Emulator::new(&flat, 0x4000, &input);
    emu.run(&mut NullObserver, 100_000).unwrap();
    assert_eq!(sim.arch_regs(), &emu.machine.regs, "{name}");

    let delays = sim.log().events().iter().filter_map(|e| match e {
        DebugEvent::TaintDelay { seq, .. } => Some(*seq),
        _ => None,
    });
    let planned = counts.planned.lock().unwrap().clone();
    Run {
        asks: counts.asks.load(Ordering::Relaxed),
        holds: counts.holds.load(Ordering::Relaxed),
        planned,
        held_seqs: delays.clone().collect(),
        visits: delays.count(),
        regs: *sim.arch_regs(),
    }
}

#[test]
fn a_held_load_is_asked_once_per_hold_and_once_per_release() {
    for kind in [DefenseKind::DelayAll, DefenseKind::SttPatched] {
        let name = kind.name();
        let run = counted_run(kind, LogMode::Record);
        assert!(!run.held_seqs.is_empty(), "{name}: the gadget held no load");
        // Each held load was asked once and held once…
        assert_eq!(
            run.holds,
            run.held_seqs.len(),
            "{name}: a held load was re-asked"
        );
        // …then released: asked once more and planned. Every other ask is
        // an unheld load's single ask (no store can make a load wait here).
        for seq in &run.held_seqs {
            assert!(
                run.planned.contains(seq),
                "{name}: held load {seq} never released"
            );
        }
        assert_eq!(
            run.asks,
            run.holds + run.planned.len(),
            "{name}: asks beyond one per hold and one per release"
        );
        // A poll would have asked on every visit, and the hold spans several.
        assert!(
            run.visits > run.held_seqs.len(),
            "{name}: {} visits to {} held loads cannot tell a hold from a poll",
            run.visits,
            run.held_seqs.len()
        );

        // One code path in both log modes: logging off asks exactly as often.
        let quiet = counted_run(kind, LogMode::Off);
        assert_eq!(
            (quiet.asks, quiet.holds, &quiet.planned, quiet.regs),
            (run.asks, run.holds, &run.planned, run.regs),
            "{name}: log mode changed the hold"
        );
        assert_eq!(quiet.visits, 0);
    }
}
