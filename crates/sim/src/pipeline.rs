//! The speculative out-of-order pipeline.
//!
//! A deterministic, cycle-stepped core with the structures every paper
//! finding depends on:
//!
//! - gshare-predicted fetch with wrong-path execution (Spectre-v1),
//! - an ROB with register renaming and in-order commit,
//! - an LSQ with store→load forwarding and a memory-dependence predictor
//!   that lets loads bypass unresolved stores (Spectre-v4),
//! - the timed memory system of [`crate::memsys`] (MSHRs, in-order
//!   controller queue, pending fills),
//! - D-TLB fills at address translation (STT's KV3),
//! - post-exit and wrong-path instruction fetch-ahead into the L1I
//!   (KV1 / KV2),
//! - defense hooks at load issue, store execute, safe-point and squash.
//!
//! Architectural semantics are shared with the emulator via
//! [`amulet_isa::semantics`], so the simulator's committed state is
//! bit-identical to the leakage model's (tested by cross-crate property
//! tests).

use crate::bpred::{Gshare, MemDepPredictor, UarchContext};
use crate::config::SimConfig;
use crate::debuglog::{DebugEvent, DebugLog, LogMode, SquashReason};
use crate::defense::{Defense, LoadCtx, StoreCtx};
use crate::memsys::{FillMode, MemSys};
use amulet_emu::Sandbox;
use amulet_isa::decode::{DecodedInstr, DecodedProgram, Flow};
use amulet_isa::instr::MemEffect;
use amulet_isa::semantics::{alu, unary};
use amulet_isa::{code_addr, Flags, FlatProgram, Gpr, Instr, LoopKind, SharedProgram};
use amulet_isa::{Operand, TestInput, UnOp, Width};
use amulet_util::ArrayVec;
use std::sync::Arc;

const FLAGS_IDX: usize = 16;

/// End of a waiter chain.
const NO_WAITER: usize = usize::MAX;

/// A register (or FLAGS) source captured at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcVal {
    /// Value was architecturally final at dispatch.
    Ready(u64),
    /// Produced by the ROB entry at this index.
    Producer(usize),
}

/// Inline, allocation-free source list for one ROB entry: each source's
/// register index and one word holding either its value (final at
/// dispatch) or its producer's ROB index — bit `k` of `producers` says
/// which. At most 6 sources exist (≤ 4 unique read registers, the
/// partial-width destination, FLAGS); 8 slots give headroom. Dispatch runs
/// once per fetched instruction — including wrong paths — so the list
/// stays off the heap and packed (80 bytes).
#[derive(Debug, Clone, Copy, Default)]
struct SrcList {
    regs: [u8; 8],
    words: [u64; 8],
    producers: u8,
    len: u8,
}

impl SrcList {
    fn push(&mut self, reg: usize, src: SrcVal) {
        let k = self.len as usize;
        self.regs[k] = reg as u8;
        self.words[k] = match src {
            SrcVal::Ready(v) => v,
            SrcVal::Producer(p) => {
                self.producers |= 1 << k;
                p as u64
            }
        };
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    /// Source `k` as (register index, value or producer).
    fn get(&self, k: usize) -> (usize, SrcVal) {
        let word = self.words[k];
        let src = if self.producers & (1 << k) != 0 {
            SrcVal::Producer(word as usize)
        } else {
            SrcVal::Ready(word)
        };
        (self.regs[k] as usize, src)
    }

    fn iter(&self) -> impl Iterator<Item = (usize, SrcVal)> + '_ {
        (0..self.len()).map(|k| self.get(k))
    }
}

/// Memory state of a load/store/RMW entry.
#[derive(Debug, Clone)]
struct MemState {
    effect: MemEffect,
    /// Wrapped virtual address, set at issue (address resolution).
    addr: Option<u64>,
    /// Wrapped address and split flag, computed on the first issue attempt
    /// (the sources are final by then) and reused by retries — a load
    /// waiting on an older store retries on every dirty cycle.
    computed: Option<(u64, bool)>,
    split: bool,
    /// Loaded value (loads / RMW).
    load_value: Option<u64>,
    issued: bool,
    /// Load bypassed at least one older unresolved store (MDP speculation).
    bypassed: bool,
    /// Load forwarded its value from this store entry.
    forwarded_from: Option<usize>,
    /// Pure store: cycle its address resolves when a store-disambiguation
    /// window (`SimConfig::stl_window`) is in force; `None` once resolved or
    /// when the window is disabled.
    disambiguate_at: Option<u64>,
    /// The fill used a `FillUndo { record: false }` mode (bug signature).
    unrecorded_fill: bool,
    /// The load was parked in the LFB (SpecLFB).
    parked: bool,
}

/// Execution state of an ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    Executing { done: u64 },
    Done { at: u64 },
}

/// One reorder-buffer entry. Entries are never removed (the whole history
/// backs the debug log); `commit_ptr` advances past them.
#[derive(Debug, Clone)]
struct RobEntry {
    pc: usize,
    instr: Instr,
    srcs: SrcList,
    /// Sources before this cursor are known ready: a `Done` producer never
    /// leaves `Done`, and a squashed producer implies a squashed consumer,
    /// so `srcs_ready` resumes at the first producer it found unready.
    ready_from: u8,
    state: EState,
    /// Register result (merged to full 64-bit width), or store data.
    result: Option<u64>,
    out_flags: Option<Flags>,
    writes: Option<(Gpr, Width)>,
    writes_flags: bool,
    mem: Option<MemState>,
    // Branch bookkeeping.
    is_cond_branch: bool,
    predicted_taken: Option<bool>,
    ghr_at_fetch: u64,
    resolved_taken: Option<bool>,
    branch_target: usize,
    // Lifecycle.
    squashed: bool,
    committed: bool,
    safe_at: Option<u64>,
    issued_unsafe_load: bool,
    needs_expose: bool,
    exposed: bool,
    tainted: bool,
    /// While the defense holds this memory op (`Defense::holds_load`/
    /// `holds_store`), the `(safe, tainted_addr)` it was held on. A held op
    /// stays on `waiting` but `issue_stage` skips it until `on_safe` or an
    /// untaint in `recompute_taint` releases it.
    held: Option<(bool, bool)>,
}

impl RobEntry {
    /// Unresolved conditional branches block younger safety, as do stores
    /// with unresolved addresses.
    fn blocks_safety(&self) -> bool {
        (self.is_cond_branch && !matches!(self.state, EState::Done { .. }))
            || self
                .mem
                .as_ref()
                .is_some_and(|m| m.effect.writes() && m.addr.is_none())
    }
}

/// Outcome of one simulated test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimResult {
    /// Cycle at which `EXIT` committed (`None` if the cycle cap was hit).
    pub exit_cycle: Option<u64>,
    /// Committed instructions.
    pub committed: usize,
    /// Fetched instructions (including squashed paths).
    pub fetched: usize,
    /// Total squashes.
    pub squashes: usize,
    /// Total simulated cycles — bit-identical whether the cycle loop
    /// stepped or warped ([`SimConfig::cycle_skip`]).
    pub cycles: u64,
    /// Cycles crossed by event-horizon warps instead of being stepped
    /// (always 0 with [`SimConfig::cycle_skip`] off). The only field that
    /// is *allowed* to differ between a stepped and a warped run.
    pub warped_cycles: u64,
}

impl SimResult {
    /// Equality over everything the timing model defines — all fields
    /// except [`SimResult::warped_cycles`], which measures *how* the cycle
    /// loop got there, not *where* it landed. The stepped/warped
    /// differential tests assert this.
    pub fn agrees_with(&self, other: &SimResult) -> bool {
        self.exit_cycle == other.exit_cycle
            && self.committed == other.committed
            && self.fetched == other.fetched
            && self.squashes == other.squashes
            && self.cycles == other.cycles
    }
}

/// The final µarch state snapshot — raw material for every µarch trace
/// format of §4.3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UarchSnapshot {
    /// Sorted L1D line addresses.
    pub l1d: Vec<u64>,
    /// Sorted L1I line addresses.
    pub l1i: Vec<u64>,
    /// Sorted D-TLB page numbers.
    pub dtlb: Vec<u64>,
    /// Branch-predictor table.
    pub bp_table: Vec<u8>,
    /// Global history register.
    pub ghr: u64,
    /// All memory requests in issue order: (pc, line address, is_store).
    pub mem_order: Vec<(usize, u64, bool)>,
    /// All branch predictions in fetch order: (pc, predicted taken).
    pub branch_order: Vec<(usize, bool)>,
}

/// The simulator: a [`SimConfig`]-shaped core plus a [`Defense`].
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    defense: Box<dyn Defense>,
    /// The memory system (public for harness prefill/flush hooks).
    pub mem: MemSys,
    bp: Gshare,
    mdp: MemDepPredictor,
    log: DebugLog,

    program: SharedProgram,
    /// Per-pc predecode of `program` (rebuilt only when the program handle
    /// changes — once per [`SharedProgram`] load, amortised over every input
    /// it is scanned against).
    decoded: DecodedProgram,
    sandbox: Sandbox,
    regs: [u64; 16],
    flags: Flags,

    rob: Vec<RobEntry>,
    rename: [Option<usize>; 17],
    commit_ptr: usize,
    in_flight: usize,
    fetch_pc: usize,
    halted_fetch: bool,
    cycle: u64,
    fetch_stall_until: u64,
    commit_stall_until: u64,
    exit_cycle: Option<u64>,
    fetched: usize,
    committed_count: usize,
    squashes: usize,
    /// Cycles crossed by event-horizon warps this test case.
    warped_cycles: u64,

    mem_order: Vec<(usize, u64, bool)>,
    branch_order: Vec<(usize, bool)>,
    /// Cached conflict-prefill image (geometry-determined, computed once).
    prefill_image: Option<crate::cache::Cache>,

    // Event gating for the cycle loop. Most cycles of a test case are idle
    // memory-latency waits where the complete/safety/taint/issue stages
    // would find nothing to do; these fields prove a cycle idle so those
    // stages are skipped — behaviour-identically, since every state change
    // that could affect a stage outcome sets `stage_dirty` (dispatch,
    // completion, issue, store resolution, squash, commit, applied fills)
    // and completions are exactly the `Executing` entries reaching
    // `next_complete`.
    /// Earliest `done` cycle among `Executing` entries (`u64::MAX` if none).
    next_complete: u64,
    /// Set on any state change that can affect safety/taint/issue outcomes.
    stage_dirty: bool,

    // Event lists: each stage visits only the entries that can act, instead
    // of rescanning the window. `check_invariants` (debug builds) re-derives
    // every list from a full scan on each stepped cycle.
    /// `(done, idx)` for every entry that entered `Executing`, pushed at the
    /// transition; `complete_stage` drains the due ones and drops squashed
    /// ones, so it is a superset of the live `Executing` entries.
    executing: Vec<(u64, usize)>,
    /// Reusable buffer for the entries `complete_stage` finds due.
    due: Vec<usize>,
    /// Ascending indices of the entries that may issue: every live
    /// `Waiting` entry whose sources are all ready is here (or was queued
    /// here and since left `Waiting`; `issue_stage` prunes those lazily).
    waiting: Vec<usize>,
    /// Per entry: the first of the `Waiting` consumers parked on it, i.e.
    /// whose first unready source it produces (`NO_WAITER` if none). When
    /// it completes, `wake_waiters` moves them on.
    waiters: Vec<usize>,
    /// Per entry: the next consumer in the chain it is parked on.
    next_waiter: Vec<usize>,
    /// Safety frontier: every non-squashed entry in `commit_ptr..safe_from`
    /// is safe and blocks nothing, so `update_safety` resumes here.
    safe_from: usize,
    /// Ascending indices of every entry that writes memory (stores, RMWs).
    stores: Vec<usize>,
    /// Ascending indices of every entry that reads memory (loads, RMWs).
    loads: Vec<usize>,
}

impl Simulator {
    /// Creates a simulator with empty caches and untrained predictors.
    pub fn new(cfg: SimConfig, defense: Box<dyn Defense>) -> Self {
        let mem = MemSys::new(&cfg);
        let bp = Gshare::new(cfg.bp_entries, cfg.ghr_bits);
        let sandbox = Sandbox::new(cfg.sandbox_base, cfg.sandbox_size);
        let program: SharedProgram = Arc::new(FlatProgram {
            instrs: vec![Instr::Exit],
            block_start: vec![0],
            origin_block: vec![0],
            labels: vec![".empty".into()],
        });
        Simulator {
            mem,
            bp,
            mdp: MemDepPredictor::new(),
            log: DebugLog::new(200_000),
            decoded: DecodedProgram::new(&program),
            program,
            sandbox,
            regs: [0; 16],
            flags: Flags::new(),
            rob: Vec::new(),
            rename: [None; 17],
            commit_ptr: 0,
            in_flight: 0,
            fetch_pc: 0,
            halted_fetch: false,
            cycle: 0,
            fetch_stall_until: 0,
            commit_stall_until: 0,
            exit_cycle: None,
            fetched: 0,
            committed_count: 0,
            squashes: 0,
            warped_cycles: 0,
            mem_order: Vec::new(),
            branch_order: Vec::new(),
            prefill_image: None,
            next_complete: u64::MAX,
            stage_dirty: true,
            executing: Vec::new(),
            due: Vec::new(),
            waiting: Vec::new(),
            waiters: Vec::new(),
            next_waiter: Vec::new(),
            safe_from: 0,
            stores: Vec::new(),
            loads: Vec::new(),
            cfg,
            defense,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The defense under test.
    pub fn defense_name(&self) -> &'static str {
        self.defense.name()
    }

    /// Loads a (program, input) pair: resets architectural and transient
    /// pipeline state. Caches and predictors are *preserved* (AMuLeT-Opt
    /// semantics, §3.2); the harness resets them explicitly when needed.
    ///
    /// The program is cloned into shared storage only when its content
    /// differs from the currently loaded one; the fuzzing hot path uses
    /// [`Simulator::load_test_shared`] which shares by handle without any
    /// content comparison.
    pub fn load_test(&mut self, flat: &FlatProgram, input: &TestInput) {
        if *self.program != *flat {
            self.program = Arc::new(flat.clone());
            self.decoded = DecodedProgram::new(&self.program);
        }
        self.reset_for_input(input);
    }

    /// Loads a (program, input) pair by shared handle — zero program-storage
    /// copies across the N inputs of a scan. Same reset semantics as
    /// [`Simulator::load_test`].
    pub fn load_test_shared(&mut self, flat: &SharedProgram, input: &TestInput) {
        if !Arc::ptr_eq(&self.program, flat) {
            self.program = Arc::clone(flat);
            self.decoded = DecodedProgram::new(&self.program);
        }
        self.reset_for_input(input);
    }

    /// Per-test-case reset: architectural state from `input`, transient
    /// pipeline state cleared. Scratch buffers (`rob`, `mem_order`,
    /// `branch_order`, the sandbox image, the debug log) are reused in place
    /// — no per-case allocation.
    fn reset_for_input(&mut self, input: &TestInput) {
        self.sandbox.load_image(input.mem_image());
        self.regs = input.regs;
        self.regs[Gpr::SANDBOX_BASE.index()] = self.cfg.sandbox_base;
        self.regs[Gpr::Rsp.index()] = 0;
        self.flags = Flags::from_bits(input.flags_bits);
        self.rob.clear();
        self.rename = [None; 17];
        self.commit_ptr = 0;
        self.in_flight = 0;
        self.fetch_pc = 0;
        self.halted_fetch = false;
        self.cycle = 0;
        self.fetch_stall_until = 0;
        self.commit_stall_until = 0;
        self.exit_cycle = None;
        self.fetched = 0;
        self.committed_count = 0;
        self.squashes = 0;
        self.warped_cycles = 0;
        self.mem_order.clear();
        self.branch_order.clear();
        self.mem.reset_transient();
        self.log.clear();
        self.defense.reset();
        self.next_complete = u64::MAX;
        self.stage_dirty = true;
        self.executing.clear();
        self.waiting.clear();
        self.waiters.clear();
        self.next_waiter.clear();
        self.safe_from = 0;
        self.stores.clear();
        self.loads.clear();
    }

    /// Runs the loaded test case to completion (EXIT commit) or the cycle
    /// cap.
    ///
    /// The stage order is tick → complete → safety/taint → issue → commit →
    /// fetch, exactly as before event gating: the gated stages run on every
    /// cycle where their outcome could differ from a no-op (see the
    /// `stage_dirty`/`next_complete` field docs) and are skipped on provably
    /// idle cycles — the bulk of every memory-latency wait.
    ///
    /// With [`SimConfig::cycle_skip`] (the default) the loop is
    /// event-driven on top of that: when a cycle is provably inert it warps
    /// `self.cycle` straight to the next event horizon instead of iterating
    /// through the gap (see `warp_to_next_event` below). Results are
    /// bit-identical either way; [`SimResult::warped_cycles`] records how
    /// much of the case was crossed by warps.
    pub fn run(&mut self) -> SimResult {
        let warp = self.cfg.cycle_skip;
        while self.exit_cycle.is_none() && self.cycle < self.cfg.max_cycles {
            #[cfg(debug_assertions)]
            self.check_invariants();
            if self.mem.tick(self.cycle, &mut self.log) {
                self.stage_dirty = true;
            }
            if self.cycle >= self.next_complete {
                self.complete_stage();
            }
            if self.stage_dirty {
                self.stage_dirty = false;
                self.update_safety();
                if self.defense.needs_taint() {
                    self.recompute_taint();
                }
                self.issue_stage();
            }
            self.commit_stage();
            if self.exit_cycle.is_some() {
                break;
            }
            self.fetch_stage();
            self.cycle += 1;
            if warp {
                self.warp_to_next_event();
            }
        }
        if let Some(exit) = self.exit_cycle {
            self.mem.drain(exit, &mut self.log);
        }
        SimResult {
            exit_cycle: self.exit_cycle,
            committed: self.committed_count,
            fetched: self.fetched,
            squashes: self.squashes,
            cycles: self.cycle,
            warped_cycles: self.warped_cycles,
        }
    }

    /// Debug-build check, run at the top of every stepped cycle, that each
    /// event list agrees with a full window scan and that the memory
    /// system's horizon and MSHR accounting are sound
    /// (`MemSys::check_invariants`):
    ///
    /// - `executing` holds every live `Executing` entry, and
    ///   `next_complete` is no later than any of them;
    /// - `waiting`, `stores` and `loads` are in ROB age order, and every
    ///   entry behind `commit_ptr` is committed or squashed;
    /// - every live `Waiting` entry is on `waiting` with all sources
    ///   ready, or parked on the waiter chain of the unfinished producer
    ///   its `ready_from` cursor points at;
    /// - every non-squashed entry in `commit_ptr..safe_from` is safe and
    ///   blocks nothing;
    /// - `stores` and `loads` are exactly the memory-writing and
    ///   memory-reading entries;
    /// - every source before an entry's `ready_from` cursor is ready;
    /// - every held entry is a live, `Waiting` memory op whose `safe` and
    ///   `tainted_addr` are still those the defense held it on — so, by the
    ///   `Defense` hold contract, the hold still stands. The defense is not
    ///   re-asked here: an ask on every cycle would be the very poll the hold
    ///   replaces.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        let cycle = self.cycle;
        for idx in self.commit_ptr..self.rob.len() {
            let e = &self.rob[idx];
            if e.squashed || e.committed {
                continue;
            }
            match e.state {
                EState::Executing { done } => {
                    assert!(
                        self.executing.contains(&(done, idx)),
                        "cycle {cycle}: executing entry {idx} missing from the list"
                    );
                    assert!(
                        self.next_complete <= done,
                        "cycle {cycle}: next_complete {} is later than entry {idx} at {done}",
                        self.next_complete
                    );
                }
                // A fence has no sources, so it is always on the list and
                // its barrier in `issue_stage` holds.
                EState::Waiting if matches!(e.instr, Instr::Fence) => assert!(
                    e.srcs.len() == 0 && self.waiting.binary_search(&idx).is_ok(),
                    "cycle {cycle}: waiting fence {idx} missing from the list"
                ),
                EState::Waiting => match e.srcs.iter().nth(e.ready_from as usize) {
                    None => assert!(
                        self.waiting.binary_search(&idx).is_ok(),
                        "cycle {cycle}: ready entry {idx} missing from the waiting list"
                    ),
                    Some((_, src)) => {
                        let SrcVal::Producer(p) = src else {
                            panic!("cycle {cycle}: entry {idx} stopped at a ready source");
                        };
                        let mut c = self.waiters[p];
                        while c != NO_WAITER && c != idx {
                            c = self.next_waiter[c];
                        }
                        assert!(
                            c == idx && !matches!(self.rob[p].state, EState::Done { .. }),
                            "cycle {cycle}: entry {idx} is not parked on its producer {p}"
                        );
                    }
                },
                EState::Done { .. } => {}
            }
            if let Some(held_on) = e.held {
                let inputs = e.mem.as_ref().map(|m| {
                    let tainted_addr = self.defense.needs_taint()
                        && self.src_tainted(idx, m.effect.mem_ref().addr_regs());
                    (e.safe_at.is_some(), tainted_addr)
                });
                assert!(
                    matches!(e.state, EState::Waiting) && inputs == Some(held_on),
                    "cycle {cycle}: held entry {idx} missed its release ({inputs:?}, held on {held_on:?})"
                );
            }
            for (_, src) in e.srcs.iter().take(e.ready_from as usize) {
                if let SrcVal::Producer(p) = src {
                    assert!(
                        matches!(self.rob[p].state, EState::Done { .. }),
                        "cycle {cycle}: entry {idx} counts unfinished producer {p} as ready"
                    );
                }
            }
        }
        // The LSQ walks' `take_while(>= commit_ptr)` and `waiting`'s binary
        // search rely on ROB age order.
        for list in [&self.waiting, &self.stores, &self.loads] {
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "cycle {cycle}: event list out of age order: {list:?}"
            );
        }
        assert!(
            self.rob[..self.commit_ptr]
                .iter()
                .all(|e| e.squashed || e.committed),
            "cycle {cycle}: a live entry is behind commit_ptr {}",
            self.commit_ptr
        );
        assert!(self.safe_from <= self.rob.len());
        for idx in self.commit_ptr..self.safe_from {
            let e = &self.rob[idx];
            assert!(
                e.squashed || (e.safe_at.is_some() && !e.blocks_safety()),
                "cycle {cycle}: entry {idx} behind the safety frontier {} is unsafe or blocking",
                self.safe_from
            );
        }
        // The LSQ walks only look at the window, so exactness is checked
        // there; the lists' older prefix is sorted history.
        fn window(list: &[usize], from: usize) -> impl Iterator<Item = usize> + '_ {
            list[list.partition_point(|&i| i < from)..].iter().copied()
        }
        let with_mem = |pred: fn(&MemEffect) -> bool| {
            (self.commit_ptr..self.rob.len())
                .filter(move |&i| self.rob[i].mem.as_ref().is_some_and(|m| pred(&m.effect)))
        };
        assert!(
            with_mem(MemEffect::writes).eq(window(&self.stores, self.commit_ptr)),
            "cycle {cycle}: store list diverged"
        );
        assert!(
            with_mem(MemEffect::reads).eq(window(&self.loads, self.commit_ptr)),
            "cycle {cycle}: load list diverged"
        );
        self.mem.check_invariants(cycle);
    }

    /// The time-warp scheduler: advances `self.cycle` to the next event
    /// horizon when every cycle in between is provably inert, i.e. a
    /// stepped loop would have executed each of them as a no-op (modulo
    /// fetch-ahead, which is batch-applied below).
    ///
    /// A cycle `c` is inert when all of the following hold:
    ///
    /// - `stage_dirty` is clear — no state change since the last
    ///   safety/taint/issue pass, so those stages would scan and find
    ///   nothing (PR 1's event-gating invariant: every state change that
    ///   can affect a stage outcome sets the flag);
    /// - no execution completes at `c` (`next_complete > c`) and the memory
    ///   system is idle at `c` ([`MemSys::next_event`]` > c`);
    /// - commit is quiescent: it ran un-stalled at `c - 1` and committed
    ///   nothing (otherwise `stage_dirty` would be set), and its stall —
    ///   if any — does not expire exactly at `c`;
    /// - fetch cannot make un-batchable progress at `c`: it is stalled
    ///   (`c < fetch_stall_until`), structurally blocked (ROB full or
    ///   `max_fetched` reached — neither can change while nothing commits
    ///   or squashes), or in fetch-ahead mode past EXIT / program end
    ///   (KV1/KV2), whose one-line-per-cycle `fetch_line` walk depends on
    ///   nothing but `fetch_pc` and is batch-applied over the warped span,
    ///   keeping I-cache residency bit-identical.
    ///
    /// The horizon is `min(next_complete, MemSys::next_event,
    /// fetch_stall_until, commit_stall_until, max_cycles)` (the stall
    /// bounds only when they lie ahead); the loop then resumes stepping at
    /// the horizon cycle, where a real event may fire.
    fn warp_to_next_event(&mut self) {
        if self.stage_dirty {
            return;
        }
        let c = self.cycle;
        // A commit stall expiring exactly now may unblock the ROB head.
        if self.commit_stall_until == c {
            return;
        }
        let mut horizon = self
            .next_complete
            .min(self.mem.next_event())
            .min(self.cfg.max_cycles);
        if self.commit_stall_until > c {
            horizon = horizon.min(self.commit_stall_until);
        }
        let fetch_ahead = self.halted_fetch || self.fetch_pc >= self.program.len();
        let fetch_stalled = c < self.fetch_stall_until;
        if fetch_stalled {
            horizon = horizon.min(self.fetch_stall_until);
        } else if !fetch_ahead
            && self.in_flight < self.cfg.rob_size
            && self.fetched < self.cfg.max_fetched
        {
            // Fetch dispatches real instructions this cycle: not inert.
            return;
        }
        if horizon <= c {
            return;
        }
        if fetch_ahead && !fetch_stalled {
            // Batch-apply the per-cycle fetch-ahead walk the stepped loop
            // would have performed on each warped cycle, collapsing
            // consecutive same-line touches: re-touching the line that the
            // previous iteration just made most-recently-used is a no-op for
            // residency, relative LRU order, and flags (nothing else touches
            // the L1I inside the span), so one `fetch_line` per distinct
            // line leaves the I-cache bit-identical to the stepped walk.
            let k = horizon - c;
            let step = 4 * self.cfg.fetch_width as u64;
            let first = code_addr(self.fetch_pc);
            let last = first + (k - 1) * step;
            if step <= self.cfg.l1i.line_bytes {
                // The stride covers every line between first and last.
                let mut line = self.cfg.l1i.line_of(first);
                let last_line = self.cfg.l1i.line_of(last);
                while line <= last_line {
                    self.mem.fetch_line(line);
                    line += self.cfg.l1i.line_bytes;
                }
            } else {
                // Wide-fetch configs can skip lines: walk cycle by cycle.
                let mut addr = first;
                while addr <= last {
                    self.mem.fetch_line(addr);
                    addr += step;
                }
            }
            self.fetch_pc += k as usize * self.cfg.fetch_width;
        }
        self.warped_cycles += horizon - c;
        self.cycle = horizon;
    }

    /// The final µarch snapshot (call after [`Simulator::run`]).
    pub fn snapshot(&self) -> UarchSnapshot {
        let (bp_table, ghr) = self.bp.state();
        UarchSnapshot {
            l1d: self.mem.l1d.snapshot(),
            l1i: self.mem.l1i().snapshot(),
            dtlb: self.mem.dtlb.snapshot(),
            bp_table,
            ghr,
            mem_order: self.mem_order.clone(),
            branch_order: self.branch_order.clone(),
        }
    }

    /// The debug log of the last run.
    pub fn log(&self) -> &DebugLog {
        &self.log
    }

    /// Sets the logging mode for subsequent runs ([`LogMode::Off`] removes
    /// event construction from the hot path; see [`crate::debuglog`]).
    pub fn set_log_mode(&mut self, mode: LogMode) {
        self.log.set_mode(mode);
    }

    /// The current logging mode.
    pub fn log_mode(&self) -> LogMode {
        self.log.mode()
    }

    /// A streaming 64-bit digest of the current µarch trace in the selected
    /// format — equality-equivalent (up to 64-bit hash collisions) to
    /// building the corresponding trace from [`Simulator::snapshot`], but
    /// without cloning any cache/predictor state. Call after
    /// [`Simulator::run`].
    ///
    /// Set-valued sections (cache lines, TLB pages) use an order-independent
    /// Zobrist-style fold so residency can be hashed in storage order;
    /// ordered sections (memory-access and branch-prediction orders, the BP
    /// table) use a sequential fold.
    pub fn trace_digest(&self, kind: DigestKind) -> u64 {
        match kind {
            DigestKind::L1dTlb { include_l1i } => {
                // Set-valued sections come from the caches' incremental
                // Zobrist accumulators — O(1) instead of an O(residency)
                // walk per case (`set_digest` is the reference fold the
                // accumulators are tested against).
                let mut h = self.mem.l1d.digest(0x1d);
                h = h.wrapping_mul(3).wrapping_add(self.mem.dtlb.digest(0x71b));
                if include_l1i {
                    h = h.wrapping_mul(3).wrapping_add(self.mem.l1i().digest(0x11));
                }
                h
            }
            DigestKind::BpState => {
                let mut h = SEQ_SEED;
                for &b in self.bp.table() {
                    h = seq_fold(h, b as u64);
                }
                seq_fold(h, self.bp.ghr())
            }
            DigestKind::MemOrder => {
                let mut h = SEQ_SEED;
                for &(pc, addr, store) in &self.mem_order {
                    h = seq_fold(h, pc as u64);
                    h = seq_fold(h, addr);
                    h = seq_fold(h, store as u64);
                }
                h
            }
            DigestKind::BranchOrder => {
                let mut h = SEQ_SEED;
                for &(pc, taken) in &self.branch_order {
                    h = seq_fold(h, pc as u64);
                    h = seq_fold(h, taken as u64);
                }
                h
            }
        }
    }

    /// Committed architectural registers (for emulator-equivalence tests).
    pub fn arch_regs(&self) -> &[u64; 16] {
        &self.regs
    }

    /// Committed architectural flags.
    pub fn arch_flags(&self) -> Flags {
        self.flags
    }

    /// Committed sandbox contents (drawing any page the case left
    /// untouched).
    pub fn sandbox_bytes(&mut self) -> &[u8] {
        self.sandbox.bytes()
    }

    /// Captures the preserved µarch context (predictor state).
    pub fn context(&self) -> UarchContext {
        let mut ctx = UarchContext::default();
        self.save_context_into(&mut ctx);
        ctx
    }

    /// Writes the preserved µarch context into `ctx`, reusing its
    /// allocations — the per-case context capture of the fuzzing hot path
    /// runs without allocating once the scratch slot has warmed up.
    pub fn save_context_into(&self, ctx: &mut UarchContext) {
        ctx.bp_table.clear();
        ctx.bp_table.extend_from_slice(self.bp.table());
        ctx.ghr = self.bp.ghr();
        self.mdp.state_into(&mut ctx.mdp);
    }

    /// Restores a previously captured µarch context in place (no
    /// allocations beyond predictor-map rehash growth).
    pub fn set_context(&mut self, ctx: &UarchContext) {
        self.bp.set_state_from(&ctx.bp_table, ctx.ghr);
        self.mdp.set_state_from(&ctx.mdp);
    }

    /// Resets predictors to their power-on state (AMuLeT-Naive semantics).
    pub fn reset_predictors(&mut self) {
        self.bp = Gshare::new(self.cfg.bp_entries, self.cfg.ghr_bits);
        self.mdp = MemDepPredictor::new();
    }

    /// Flushes all caches and the TLB (the direct "simulator hook" reset).
    pub fn flush_caches(&mut self) {
        self.mem.flush_all();
    }

    /// Flushes everything except the L1D — the reset used together with
    /// [`Simulator::prefill_l1d_conflicting`], which overwrites the L1D
    /// from the cached image anyway (and restores it incrementally when the
    /// L1D still carries the tracking baseline from the previous case).
    pub fn flush_caches_keep_l1d(&mut self) {
        self.mem.flush_all_except_l1d();
    }

    /// Fills every L1D set with out-of-sandbox conflicting addresses — the
    /// paper's cache initialisation ("64 x 8 addresses for an 8-way, 32KB L1
    /// cache") that makes both installs *and evictions* observable.
    ///
    /// The pattern is identical every call (it depends only on the cache
    /// geometry), so after computing it once the image is cached and later
    /// calls restore it by copy instead of re-running sets × ways fills —
    /// this runs once per test case on the fuzzing hot path.
    pub fn prefill_l1d_conflicting(&mut self) {
        match &self.prefill_image {
            Some(img) => self.mem.l1d.restore_tracked_from(img),
            None => {
                self.prefill_l1d_conflicting_fresh();
                self.prefill_image = Some(self.mem.l1d.clone());
            }
        }
    }

    /// The reference implementation of the conflict prefill: issues every
    /// fill against the current L1D. [`Simulator::prefill_l1d_conflicting`]
    /// must produce the same state (asserted by tests); benches use this to
    /// reconstruct the pre-cache per-case cost.
    pub fn prefill_l1d_conflicting_fresh(&mut self) {
        let sets = self.cfg.l1d.sets;
        let ways = self.cfg.l1d.ways;
        let line = self.cfg.l1d.line_bytes;
        let base = self.prefill_base();
        for way in 0..ways {
            for set in 0..sets {
                let addr = base + way as u64 * (sets as u64 * line * 2) + set as u64 * line;
                self.mem.l1d.fill(addr, false, true);
            }
        }
    }

    /// Base address of the prefill region (far outside the sandbox).
    pub fn prefill_base(&self) -> u64 {
        self.cfg.sandbox_base + 0x100_0000
    }

    // ----- pipeline stages -------------------------------------------------

    /// Moves finished executions to `Done`, resolving branches.
    ///
    /// Only the due entries of `executing` are visited, oldest first — the
    /// order a window walk would take, so a branch resolved here squashes
    /// the younger due entries before they complete.
    fn complete_stage(&mut self) {
        let cycle = self.cycle;
        let mut due = std::mem::take(&mut self.due);
        self.executing.retain(|&(done, idx)| {
            let is_due = done <= cycle;
            if is_due {
                due.push(idx);
            }
            !is_due
        });
        due.sort_unstable();
        for &idx in &due {
            if self.rob[idx].squashed {
                continue;
            }
            let EState::Executing { done } = self.rob[idx].state else {
                continue;
            };
            // A pure store whose disambiguation window just elapsed goes back
            // to `Waiting` so `issue_mem` resolves its address this same
            // cycle.
            if self.rob[idx]
                .mem
                .as_ref()
                .is_some_and(|m| m.disambiguate_at.is_some() && m.addr.is_none())
            {
                self.rob[idx].state = EState::Waiting;
                self.enqueue(idx);
                self.stage_dirty = true;
                continue;
            }
            self.rob[idx].state = EState::Done { at: done };
            self.wake_waiters(idx);
            self.stage_dirty = true;
            if self.rob[idx].is_cond_branch {
                // May squash everything younger, including due entries
                // later in `due`, which the squashed check then skips.
                self.resolve_branch(idx);
            }
        }
        due.clear();
        self.due = due;
        // Entries squashed so far (including by this pass's branches) leave
        // the list, so `next_complete` is the exact live minimum.
        let rob = &self.rob;
        let mut next = u64::MAX;
        self.executing.retain(|&(done, idx)| {
            let live = !rob[idx].squashed;
            if live {
                next = next.min(done);
            }
            live
        });
        self.next_complete = next;
    }

    fn resolve_branch(&mut self, idx: usize) {
        let e = &self.rob[idx];
        let pc = e.pc;
        let history = e.ghr_at_fetch;
        let predicted = e.predicted_taken.unwrap_or(true);
        let actual = e.resolved_taken.expect("branch resolved at execute");
        let actual_next = if actual { e.branch_target } else { pc + 1 };
        self.bp.train(pc, history, actual);
        if predicted != actual {
            self.bp.recover_history(history, actual);
            self.squash_after(idx, actual_next, SquashReason::BranchMispredict);
        }
    }

    /// Squashes every entry younger than `idx` and redirects fetch.
    fn squash_after(&mut self, idx: usize, new_fetch_pc: usize, reason: SquashReason) {
        self.squash_range(idx + 1, new_fetch_pc, reason);
    }

    /// Squashes entries `from..` (inclusive) and redirects fetch.
    fn squash_range(&mut self, from: usize, new_fetch_pc: usize, reason: SquashReason) {
        self.squashes += 1;
        self.stage_dirty = true;
        self.log.push(DebugEvent::Squash {
            cycle: self.cycle,
            from_seq: from,
            reason,
        });
        let plan = self.defense.squash_plan();
        let mut cleanup_ops = 0usize;
        for i in from..self.rob.len() {
            if self.rob[i].squashed || self.rob[i].committed {
                continue;
            }
            self.rob[i].squashed = true;
            self.in_flight -= 1;
            // SpecLFB: parked lines of squashed loads are always dropped.
            if self.rob[i].mem.as_ref().is_some_and(|m| m.parked) {
                self.mem.cancel_for(i);
            }
            if plan.cleanup {
                cleanup_ops += self
                    .mem
                    .undo_for(i, self.cycle, plan.no_clean, &mut self.log);
                self.mem.cancel_recorded_for(i);
            }
            if let Some(m) = &self.rob[i].mem {
                if m.unrecorded_fill && m.issued {
                    let addr = m.addr.unwrap_or(0);
                    self.log.push(DebugEvent::CleanupMissing {
                        cycle: self.cycle,
                        seq: i,
                        addr,
                    });
                }
            }
        }
        // Rebuild the rename map from surviving entries.
        self.rename = [None; 17];
        for i in self.commit_ptr..self.rob.len() {
            let e = &self.rob[i];
            if e.squashed || e.committed {
                continue;
            }
            if let Some((r, _)) = e.writes {
                self.rename[r.index()] = Some(i);
            }
            if e.writes_flags {
                self.rename[FLAGS_IDX] = Some(i);
            }
        }
        // Cleanup executes in the memory system: it delays *execution*
        // (commit) but the front-end keeps fetching — which is exactly how
        // unXpec's timing difference becomes visible through post-exit
        // instruction fetch-ahead (KV2).
        let cleanup_delay = plan.cleanup_latency_per_op * cleanup_ops as u64;
        self.fetch_pc = new_fetch_pc;
        self.halted_fetch = self.exit_in_flight();
        self.fetch_stall_until = self.cycle + 1 + self.cfg.redirect_penalty;
        self.commit_stall_until = self.commit_stall_until.max(self.cycle + cleanup_delay);
    }

    fn exit_in_flight(&self) -> bool {
        self.rob[self.commit_ptr..]
            .iter()
            .any(|e| !e.squashed && !e.committed && matches!(e.instr, Instr::Exit))
    }

    /// Marks entries that reached the visibility point and triggers
    /// safe-point actions (exposes, LFB installs).
    ///
    /// The walk resumes at the `safe_from` frontier: a safe entry stays
    /// safe, and a resolved branch or store never blocks again.
    fn update_safety(&mut self) {
        let mut idx = self.safe_from.max(self.commit_ptr);
        while idx < self.rob.len() {
            if !self.rob[idx].squashed {
                if self.rob[idx].safe_at.is_none() {
                    self.rob[idx].safe_at = Some(self.cycle);
                    self.on_safe(idx);
                }
                // Nothing past the first blocker can change this cycle, so
                // the walk stops there.
                if self.rob[idx].blocks_safety() {
                    break;
                }
            }
            idx += 1;
        }
        self.safe_from = idx;
    }

    fn on_safe(&mut self, idx: usize) {
        // Safety is a hold input: let the defense decide again.
        self.rob[idx].held = None;
        let needs_expose = {
            let e = &self.rob[idx];
            e.needs_expose && !e.exposed && e.mem.as_ref().is_some_and(|m| m.issued)
        };
        if needs_expose {
            self.rob[idx].exposed = true;
            let (addr, width, split) = {
                let m = self.rob[idx].mem.as_ref().unwrap();
                (m.addr.unwrap(), m.effect.mem_ref().width, m.split)
            };
            self.log.push(DebugEvent::Expose {
                cycle: self.cycle,
                seq: idx,
                addr: self.cfg.l1d.line_of(addr),
            });
            self.mem.request(
                idx,
                addr,
                false,
                true,
                self.cycle,
                FillMode::Fill,
                &mut self.log,
            );
            if split {
                let second = addr + width.bytes() - 1;
                self.mem.request(
                    idx,
                    second,
                    false,
                    true,
                    self.cycle,
                    FillMode::Fill,
                    &mut self.log,
                );
            }
        }
        if self.rob[idx].mem.as_ref().is_some_and(|m| m.parked) {
            self.mem.release_parked(idx, self.cycle, &mut self.log);
            if let Some(m) = self.rob[idx].mem.as_mut() {
                m.parked = false;
            }
        }
    }

    /// Recomputes STT taint over the in-flight window. Any live entry that
    /// untaints releases every held op: a hold reads `tainted_addr`.
    fn recompute_taint(&mut self) {
        let mut untainted = false;
        for idx in self.commit_ptr..self.rob.len() {
            if self.rob[idx].squashed || self.rob[idx].committed {
                self.rob[idx].tainted = false;
                continue;
            }
            let is_access_load = self.rob[idx].mem.as_ref().is_some_and(|m| m.effect.reads());
            let mut tainted = is_access_load && self.rob[idx].safe_at.is_none();
            if !tainted {
                for (_, src) in self.rob[idx].srcs.iter() {
                    if let SrcVal::Producer(p) = src {
                        if self.rob[p].tainted {
                            tainted = true;
                            break;
                        }
                    }
                }
            }
            untainted |= self.rob[idx].tainted && !tainted;
            self.rob[idx].tainted = tainted;
        }
        if untainted {
            for &idx in &self.waiting {
                self.rob[idx].held = None;
            }
        }
    }

    /// Collects ≤ 2 address-register indices into an inline buffer (a memory
    /// operand has a base plus an optional index) — these run per issue
    /// attempt on taint-tracking defenses, so no heap.
    fn reg_indices(regs: impl Iterator<Item = Gpr>) -> ArrayVec<usize, 2> {
        let mut buf = ArrayVec::new();
        buf.extend(regs.map(|r| r.index()));
        buf
    }

    fn src_tainted(&self, idx: usize, regs: impl Iterator<Item = Gpr>) -> bool {
        let wanted = Self::reg_indices(regs);
        self.rob[idx].srcs.iter().any(|(ri, src)| {
            wanted.contains(&ri) && matches!(src, SrcVal::Producer(p) if self.rob[p].tainted)
        })
    }

    /// Attempts to issue every ready entry, oldest first.
    ///
    /// Walks the `waiting` list — entries whose sources are all ready —
    /// dropping entries that left `Waiting` (or were squashed or committed)
    /// as it goes. A fence has no sources and leaves `Waiting` only for
    /// `Done`, so every unexecuted fence is on the list and its barrier
    /// cannot be skipped. A held memory op stays on the list, in order, but
    /// is not re-issued.
    fn issue_stage(&mut self) {
        let mut keep = 0;
        let mut i = 0;
        while i < self.waiting.len() {
            let idx = self.waiting[i];
            let e = &self.rob[idx];
            if e.squashed || e.committed || !matches!(e.state, EState::Waiting) {
                i += 1;
                continue;
            }
            if matches!(e.instr, Instr::Fence) {
                // LFENCE: waits for all older entries to finish, and blocks
                // everything younger until then.
                let older_done = self.rob[self.commit_ptr..idx]
                    .iter()
                    .all(|e| e.squashed || e.committed || matches!(e.state, EState::Done { .. }));
                if !older_done {
                    break;
                }
                self.rob[idx].state = EState::Done { at: self.cycle };
                self.stage_dirty = true;
                i += 1;
                continue;
            }
            if self.rob[idx].held.is_some() {
                self.log_hold(idx);
            } else if self.rob[idx].mem.is_some() {
                self.issue_mem(idx);
            } else {
                self.issue_alu(idx);
            }
            if matches!(self.rob[idx].state, EState::Waiting) {
                self.waiting[keep] = idx;
                keep += 1;
            }
            i += 1;
        }
        let len = self.waiting.len();
        self.waiting.copy_within(i..len, keep);
        self.waiting.truncate(keep + len - i);
    }

    /// Queues a `Waiting` entry on `waiting` if its sources are all ready,
    /// or parks it on the producer of its first unready source.
    fn enqueue(&mut self, idx: usize) {
        if self.srcs_ready(idx) {
            if let Err(pos) = self.waiting.binary_search(&idx) {
                self.waiting.insert(pos, idx);
            }
            return;
        }
        let (_, SrcVal::Producer(p)) = self.rob[idx].srcs.get(self.rob[idx].ready_from as usize)
        else {
            unreachable!("an unready source has a producer");
        };
        self.next_waiter[idx] = self.waiters[p];
        self.waiters[p] = idx;
    }

    /// Moves the consumers parked on `idx`, which just finished, to their
    /// next unready producer or onto `waiting`. Squashed consumers drop
    /// out.
    fn wake_waiters(&mut self, idx: usize) {
        let mut c = std::mem::replace(&mut self.waiters[idx], NO_WAITER);
        while c != NO_WAITER {
            let next = self.next_waiter[c];
            if !self.rob[c].squashed {
                self.enqueue(c);
            }
            c = next;
        }
    }

    /// Whether every source of `idx` is available, advancing its
    /// `ready_from` cursor past the ready prefix.
    fn srcs_ready(&mut self, idx: usize) -> bool {
        let e = &self.rob[idx];
        let mut k = e.ready_from as usize;
        while k < e.srcs.len() {
            if let (_, SrcVal::Producer(p)) = e.srcs.get(k) {
                if !matches!(self.rob[p].state, EState::Done { .. }) {
                    break;
                }
            }
            k += 1;
        }
        let ready = k == e.srcs.len();
        self.rob[idx].ready_from = k as u8;
        ready
    }

    fn src_value(&self, idx: usize, reg_idx: usize) -> u64 {
        for (ri, src) in self.rob[idx].srcs.iter() {
            if ri == reg_idx {
                return match src {
                    SrcVal::Ready(v) => v,
                    SrcVal::Producer(p) => {
                        if ri == FLAGS_IDX {
                            self.rob[p].out_flags.expect("producer done").bits() as u64
                        } else {
                            self.rob[p].result.expect("producer done")
                        }
                    }
                };
            }
        }
        unreachable!("source register {reg_idx} not captured at dispatch");
    }

    fn src_flags(&self, idx: usize) -> Flags {
        Flags::from_bits(self.src_value(idx, FLAGS_IDX) as u8)
    }

    fn operand_value(&self, idx: usize, op: &Operand) -> u64 {
        match op {
            Operand::Reg(r, w) => w.trunc(self.src_value(idx, r.index())),
            Operand::Imm(v) => *v as u64,
            Operand::Mem(_) => self.rob[idx]
                .mem
                .as_ref()
                .and_then(|m| m.load_value)
                .expect("memory operand loaded before use"),
        }
    }

    /// Executes a non-memory instruction (1-cycle latency).
    fn issue_alu(&mut self, idx: usize) {
        let instr = self.rob[idx].instr;
        let done = self.cycle + 1;
        match instr {
            Instr::Mov { dst, src } => {
                let v = self.operand_value(idx, &src);
                let Operand::Reg(r, w) = dst else {
                    unreachable!("reg mov")
                };
                let old = self.src_value_or_zero(idx, r.index());
                self.rob[idx].result = Some(w.merge_into(old, v));
            }
            Instr::Alu { op, dst, src, .. } => {
                let Operand::Reg(r, w) = dst else {
                    unreachable!("reg alu")
                };
                let dv = w.trunc(self.src_value(idx, r.index()));
                let sv = self.operand_value(idx, &src);
                let f = self.src_flags_or_default(idx, op.reads_flags());
                let res = alu(op, w, dv, sv, f);
                self.rob[idx].out_flags = Some(res.flags);
                if !op.discards_result() {
                    let old = self.src_value(idx, r.index());
                    self.rob[idx].result = Some(w.merge_into(old, res.value));
                }
            }
            Instr::Un { op, dst, .. } => {
                let Operand::Reg(r, w) = dst else {
                    unreachable!("reg un")
                };
                let dv = w.trunc(self.src_value(idx, r.index()));
                let f = self.src_flags_or_default(idx, matches!(op, UnOp::Inc | UnOp::Dec));
                let res = unary(op, w, dv, f);
                if !matches!(op, UnOp::Not) {
                    self.rob[idx].out_flags = Some(res.flags);
                }
                let old = self.src_value(idx, r.index());
                self.rob[idx].result = Some(w.merge_into(old, res.value));
            }
            Instr::Cmov { cond, dst, src } => {
                let Operand::Reg(r, w) = dst else {
                    unreachable!("reg cmov")
                };
                let f = self.src_flags(idx);
                let old = self.src_value(idx, r.index());
                let v = if cond.eval(f) {
                    self.operand_value(idx, &src)
                } else {
                    w.trunc(old)
                };
                self.rob[idx].result = Some(w.merge_into(old, v));
            }
            Instr::Set { cond, dst } => {
                let Operand::Reg(r, w) = dst else {
                    unreachable!("reg set")
                };
                let f = self.src_flags(idx);
                let old = self.src_value(idx, r.index());
                self.rob[idx].result = Some(w.merge_into(old, cond.eval(f) as u64));
            }
            Instr::Jcc { cond, .. } => {
                let f = self.src_flags(idx);
                self.rob[idx].resolved_taken = Some(cond.eval(f));
            }
            Instr::Loop { kind, .. } => {
                let rcx = self.src_value(idx, Gpr::Rcx.index()).wrapping_sub(1);
                self.rob[idx].result = Some(rcx);
                let zf = match kind {
                    LoopKind::Loop => false,
                    _ => self.src_flags(idx).zf(),
                };
                let taken = rcx != 0
                    && match kind {
                        LoopKind::Loop => true,
                        LoopKind::Loope => zf,
                        LoopKind::Loopne => !zf,
                    };
                self.rob[idx].resolved_taken = Some(taken);
            }
            Instr::Jmp { .. } | Instr::Exit | Instr::Fence => unreachable!("handled elsewhere"),
        }
        self.start_executing(idx, done);
    }

    /// Puts `idx` in `Executing` until `done`.
    fn start_executing(&mut self, idx: usize, done: u64) {
        self.rob[idx].state = EState::Executing { done };
        self.executing.push((done, idx));
        self.next_complete = self.next_complete.min(done);
        self.stage_dirty = true;
    }

    fn src_value_or_zero(&self, idx: usize, reg_idx: usize) -> u64 {
        if self.rob[idx].srcs.iter().any(|(ri, _)| ri == reg_idx) {
            self.src_value(idx, reg_idx)
        } else {
            0
        }
    }

    fn src_flags_or_default(&self, idx: usize, reads: bool) -> Flags {
        if reads {
            self.src_flags(idx)
        } else {
            Flags::new()
        }
    }

    /// Issues a memory instruction: address resolution, LSQ protocol,
    /// defense hooks, cache/TLB requests.
    fn issue_mem(&mut self, idx: usize) {
        let m = self.rob[idx].mem.as_ref().unwrap();
        let (mref, reads, writes) = (*m.effect.mem_ref(), m.effect.reads(), m.effect.writes());
        let width = mref.width;
        let (addr, split) = match m.computed {
            Some(computed) => computed,
            None => {
                let addr = self
                    .sandbox
                    .wrap(mref.effective_addr(|r| self.src_value(idx, r.index())));
                let split =
                    self.cfg.l1d.line_of(addr) != self.cfg.l1d.line_of(addr + width.bytes() - 1);
                self.rob[idx].mem.as_mut().unwrap().computed = Some((addr, split));
                (addr, split)
            }
        };
        let safe = self.rob[idx].safe_at.is_some();
        let tainted_addr = self.defense.needs_taint() && self.src_tainted(idx, mref.addr_regs());

        if reads {
            // ----- load / RMW-load path -----
            if self.defense.holds_load(safe, tainted_addr) {
                self.hold(idx, safe, tainted_addr);
                return;
            }
            match self.scan_store_queue(idx, addr, width) {
                StoreScan::WaitFor(_) => return, // retry next cycle
                StoreScan::Forward(store_idx) => {
                    let plan = self.plan_load(idx, addr, width, split, safe);
                    let value = width.trunc(self.rob[store_idx].result.expect("store data"));
                    self.finish_load(idx, addr, width, split, plan.tlb, safe);
                    let done = self.cycle + self.cfg.forward_latency;
                    self.set_load_result(idx, value, done);
                    if let Some(m) = self.rob[idx].mem.as_mut() {
                        m.forwarded_from = Some(store_idx);
                    }
                    if writes {
                        self.check_memory_order_violation(idx, addr, width);
                    }
                    return;
                }
                StoreScan::Bypass(any_unresolved) => {
                    let plan = self.plan_load(idx, addr, width, split, safe);
                    let mode = if safe { FillMode::Fill } else { plan.fill };
                    if plan.flag_unsafe_fill && !safe {
                        self.log.push(DebugEvent::LfbUnsafeFill {
                            cycle: self.cycle,
                            seq: idx,
                            addr: self.cfg.l1d.line_of(addr),
                        });
                    }
                    let out =
                        self.mem
                            .request(idx, addr, false, safe, self.cycle, mode, &mut self.log);
                    let mut completion = out.completion;
                    if split {
                        self.log.push(DebugEvent::SplitReq {
                            cycle: self.cycle,
                            seq: idx,
                            addr,
                        });
                        let second = addr + width.bytes() - 1;
                        let out2 = self.mem.request(
                            idx,
                            second,
                            false,
                            safe,
                            self.cycle,
                            mode,
                            &mut self.log,
                        );
                        completion = completion.max(out2.completion);
                    }
                    self.log.push(DebugEvent::LoadIssue {
                        cycle: self.cycle,
                        seq: idx,
                        pc: self.rob[idx].pc,
                        addr,
                        spec: !safe,
                        l1_hit: out.l1_hit,
                    });
                    let value = self.sandbox.read(addr, width);
                    self.finish_load(idx, addr, width, split, plan.tlb, safe);
                    self.set_load_result(idx, value, completion);
                    if let Some(m) = self.rob[idx].mem.as_mut() {
                        m.bypassed = any_unresolved;
                        m.issued = true;
                        m.unrecorded_fill = matches!(mode, FillMode::FillUndo { record: false });
                        m.parked = matches!(mode, FillMode::Park);
                    }
                    self.rob[idx].issued_unsafe_load = !safe;
                    if plan.expose_at_safe && !safe {
                        self.rob[idx].needs_expose = true;
                    }
                    // An RMW resolves its store address here too: younger
                    // loads that already bypassed it must be checked.
                    if writes {
                        self.log.push(DebugEvent::StoreResolve {
                            cycle: self.cycle,
                            seq: idx,
                            pc: self.rob[idx].pc,
                            addr,
                            spec: !safe,
                        });
                        self.check_memory_order_violation(idx, addr, width);
                    }
                    return;
                }
            }
        }

        if writes && !reads {
            // ----- pure store path (address resolution at execute) -----
            // Store-disambiguation window (Spectre-STL): with a non-zero
            // `stl_window` the store sits in the pipeline with its address
            // still unresolved (`m.addr` stays `None`), so younger loads the
            // memory-dependence predictor clears may speculatively bypass it.
            // The timer rides `next_complete` as an ordinary `Executing`
            // completion, which keeps the event-horizon warp inert; when it
            // fires, `complete_stage` reverts the entry to `Waiting` and this
            // path re-runs in the same cycle to actually resolve the store.
            if self.cfg.stl_window > 0 {
                let m = self.rob[idx].mem.as_mut().unwrap();
                if m.disambiguate_at.is_none() {
                    let at = self.cycle + self.cfg.stl_window;
                    m.disambiguate_at = Some(at);
                    self.start_executing(idx, at);
                    return;
                }
            }
            if self.defense.holds_store(safe, tainted_addr) {
                self.hold(idx, safe, tainted_addr);
                return;
            }
            let ctx = StoreCtx {
                seq: idx,
                pc: self.rob[idx].pc,
                addr,
                width,
                split,
                safe,
                cycle: self.cycle,
            };
            let plan = self.defense.plan_store(&ctx);
            self.resolve_store(
                idx,
                addr,
                width,
                split,
                plan.tlb,
                plan.rfo,
                safe,
                tainted_addr,
            );
        }
    }

    /// Completes the store-execute path shared by pure stores and RMWs.
    #[allow(clippy::too_many_arguments)]
    fn resolve_store(
        &mut self,
        idx: usize,
        addr: u64,
        width: Width,
        split: bool,
        tlb: bool,
        rfo: Option<FillMode>,
        safe: bool,
        tainted_addr: bool,
    ) {
        // Store data value.
        let data = match self.rob[idx].instr {
            Instr::Mov { src, .. } => self.store_src_value(idx, &src, width),
            Instr::Set { cond, .. } => cond.eval(self.src_flags(idx)) as u64,
            _ => 0, // RMW data comes from its ALU result at commit.
        };
        if !matches!(self.rob[idx].instr, Instr::Alu { .. } | Instr::Un { .. }) {
            self.rob[idx].result = Some(data);
        }
        if tlb {
            self.touch_dtlb(idx, addr, width, true, !safe, tainted_addr);
        }
        if let Some(mode) = rfo {
            self.mem
                .request(idx, addr, true, safe, self.cycle, mode, &mut self.log);
            if split {
                let second = addr + width.bytes() - 1;
                self.mem
                    .request(idx, second, true, safe, self.cycle, mode, &mut self.log);
                self.log.push(DebugEvent::SplitReq {
                    cycle: self.cycle,
                    seq: idx,
                    addr,
                });
            }
            if let Some(m) = self.rob[idx].mem.as_mut() {
                m.issued = true;
                m.unrecorded_fill = matches!(mode, FillMode::FillUndo { record: false });
            }
        }
        self.mem_order
            .push((self.rob[idx].pc, self.cfg.l1d.line_of(addr), true));
        self.log.push(DebugEvent::StoreResolve {
            cycle: self.cycle,
            seq: idx,
            pc: self.rob[idx].pc,
            addr,
            spec: !safe,
        });
        if let Some(m) = self.rob[idx].mem.as_mut() {
            m.addr = Some(addr);
            m.split = split;
        }
        self.start_executing(idx, self.cycle + 1);
        self.check_memory_order_violation(idx, addr, width);
    }

    fn store_src_value(&self, idx: usize, src: &Operand, width: Width) -> u64 {
        match src {
            Operand::Reg(r, w) => w.trunc(self.src_value(idx, r.index())),
            Operand::Imm(v) => width.trunc(*v as u64),
            Operand::Mem(_) => unreachable!("store source cannot be memory"),
        }
    }

    /// When a store resolves, any younger load that already issued to an
    /// overlapping address without forwarding from it read stale data —
    /// a memory-order violation (the Spectre-v4 mechanism).
    fn check_memory_order_violation(&mut self, store_idx: usize, addr: u64, width: Width) {
        let s_lo = addr;
        let s_hi = addr + width.bytes();
        // Younger loads sit at the tail of the dispatch-ordered list.
        let mut younger = self.loads.len();
        while younger > 0 && self.loads[younger - 1] > store_idx {
            younger -= 1;
        }
        for k in younger..self.loads.len() {
            let lidx = self.loads[k];
            let e = &self.rob[lidx];
            if e.squashed || e.committed {
                continue;
            }
            let Some(m) = &e.mem else { continue };
            if !m.issued {
                continue;
            }
            let Some(laddr) = m.addr else { continue };
            let l_lo = laddr;
            let l_hi = laddr + m.effect.mem_ref().width.bytes();
            let overlap = l_lo < s_hi && s_lo < l_hi;
            if overlap && m.forwarded_from != Some(store_idx) {
                let pc = e.pc;
                self.mdp.train_violation(pc);
                self.squash_range(lidx, pc, SquashReason::MemOrderViolation);
                return;
            }
        }
    }

    /// Scans older stores for forwarding/conflicts.
    fn scan_store_queue(&self, load_idx: usize, addr: u64, width: Width) -> StoreScan {
        let l_lo = addr;
        let l_hi = addr + width.bytes();
        let mut any_unresolved = false;
        // Youngest-first walk of the in-flight stores older than the load.
        let older = self.stores.iter().rev().skip_while(|&&s| s >= load_idx);
        for &sidx in older.take_while(|&&s| s >= self.commit_ptr) {
            let e = &self.rob[sidx];
            if e.squashed || e.committed {
                continue;
            }
            let Some(m) = &e.mem else { continue };
            match m.addr {
                None => {
                    any_unresolved = true;
                }
                Some(saddr) => {
                    let s_lo = saddr;
                    let s_hi = saddr + m.effect.mem_ref().width.bytes();
                    let overlap = l_lo < s_hi && s_lo < l_hi;
                    if !overlap {
                        continue;
                    }
                    // Exact match with available data: forward. RMW data is
                    // only final once the entry finished executing.
                    let exact = saddr == addr && m.effect.mem_ref().width == width;
                    let data_ready =
                        matches!(e.state, EState::Done { .. }) && self.rob[sidx].result.is_some();
                    if exact && data_ready && !any_unresolved {
                        return StoreScan::Forward(sidx);
                    }
                    // Partial overlap (or data not ready): wait.
                    return StoreScan::WaitFor(sidx);
                }
            }
        }
        if any_unresolved && self.mdp.predicts_conflict(self.rob[load_idx].pc) {
            return StoreScan::WaitFor(load_idx);
        }
        StoreScan::Bypass(any_unresolved)
    }

    /// Parks a memory op the defense holds on `(safe, tainted_addr)` (see
    /// `RobEntry::held`).
    fn hold(&mut self, idx: usize, safe: bool, tainted_addr: bool) {
        self.rob[idx].held = Some((safe, tainted_addr));
        self.log_hold(idx);
    }

    /// The Record-mode trace of one visit to a held op: the `TaintDelay`
    /// row a retry would log, which for a load is pushed only when the
    /// store queue would not make it wait first (the scan comes before the
    /// plan on the issue path). A held op costs nothing with logging off.
    fn log_hold(&mut self, idx: usize) {
        if self.log.mode() == LogMode::Off {
            return;
        }
        let m = self.rob[idx].mem.as_ref().expect("held ops access memory");
        if m.effect.reads() {
            let (addr, _) = m.computed.expect("address computed before the hold");
            let width = m.effect.mem_ref().width;
            if matches!(
                self.scan_store_queue(idx, addr, width),
                StoreScan::WaitFor(_)
            ) {
                return;
            }
        }
        self.log.push(DebugEvent::TaintDelay {
            cycle: self.cycle,
            seq: idx,
            pc: self.rob[idx].pc,
        });
    }

    /// Asks the defense for the plan of a load it does not hold.
    fn plan_load(
        &mut self,
        idx: usize,
        addr: u64,
        width: Width,
        split: bool,
        safe: bool,
    ) -> crate::defense::LoadPlan {
        let first_unsafe_load = !self
            .loads
            .iter()
            .rev()
            .skip_while(|&&l| l >= idx)
            .take_while(|&&l| l >= self.commit_ptr)
            .map(|&l| &self.rob[l])
            .any(|e| !e.squashed && !e.committed && e.issued_unsafe_load && e.safe_at.is_none());
        let ctx = LoadCtx {
            seq: idx,
            pc: self.rob[idx].pc,
            addr,
            width,
            split,
            safe,
            first_unsafe_load,
            cycle: self.cycle,
        };
        self.defense.plan_load(&ctx)
    }

    fn finish_load(
        &mut self,
        idx: usize,
        addr: u64,
        width: Width,
        split: bool,
        tlb: bool,
        safe: bool,
    ) {
        if tlb {
            self.touch_dtlb(idx, addr, width, false, !safe, false);
        }
        self.mem_order
            .push((self.rob[idx].pc, self.cfg.l1d.line_of(addr), false));
        if let Some(m) = self.rob[idx].mem.as_mut() {
            m.addr = Some(addr);
            m.split = split;
        }
    }

    /// Computes the entry's register result from a loaded value and marks it
    /// executing until `done`.
    fn set_load_result(&mut self, idx: usize, loaded: u64, done: u64) {
        let instr = self.rob[idx].instr;
        if let Some(m) = self.rob[idx].mem.as_mut() {
            m.load_value = Some(loaded);
        }
        match instr {
            Instr::Mov {
                dst: Operand::Reg(r, w),
                ..
            } => {
                let old = self.src_value_or_zero(idx, r.index());
                self.rob[idx].result = Some(w.merge_into(old, loaded));
            }
            Instr::Cmov {
                cond,
                dst: Operand::Reg(r, w),
                ..
            } => {
                let f = self.src_flags(idx);
                let old = self.src_value(idx, r.index());
                let v = if cond.eval(f) { loaded } else { w.trunc(old) };
                self.rob[idx].result = Some(w.merge_into(old, v));
            }
            Instr::Alu { op, dst, src, .. } => {
                let width = dst.width().or_else(|| src.width()).expect("alu width");
                let (dv, sv, merge_reg) = match (dst, src) {
                    (Operand::Mem(_), s) => {
                        // RMW / CMP-with-memory-destination: dst is memory.
                        (loaded, self.reg_or_imm(idx, &s, width), None)
                    }
                    (Operand::Reg(r, w), Operand::Mem(_)) => (
                        w.trunc(self.src_value(idx, r.index())),
                        loaded,
                        Some((r, w)),
                    ),
                    _ => unreachable!("load-form ALU"),
                };
                let f = self.src_flags_or_default(idx, op.reads_flags());
                let res = alu(op, width, dv, sv, f);
                self.rob[idx].out_flags = Some(res.flags);
                if !op.discards_result() {
                    match merge_reg {
                        Some((r, w)) => {
                            let old = self.src_value(idx, r.index());
                            self.rob[idx].result = Some(w.merge_into(old, res.value));
                        }
                        None => {
                            // RMW: result is the store data.
                            self.rob[idx].result = Some(res.value);
                        }
                    }
                }
            }
            Instr::Un {
                op,
                dst: Operand::Mem(m),
                ..
            } => {
                let f = self.src_flags_or_default(idx, matches!(op, UnOp::Inc | UnOp::Dec));
                let res = unary(op, m.width, loaded, f);
                if !matches!(op, UnOp::Not) {
                    self.rob[idx].out_flags = Some(res.flags);
                }
                self.rob[idx].result = Some(res.value);
            }
            _ => unreachable!("load-form instruction"),
        }
        self.start_executing(idx, done);
    }

    fn reg_or_imm(&self, idx: usize, op: &Operand, width: Width) -> u64 {
        match op {
            Operand::Reg(r, w) => w.trunc(self.src_value(idx, r.index())),
            Operand::Imm(v) => width.trunc(*v as u64),
            Operand::Mem(_) => unreachable!("two memory operands"),
        }
    }

    fn touch_dtlb(
        &mut self,
        seq: usize,
        addr: u64,
        width: Width,
        store: bool,
        spec: bool,
        tainted: bool,
    ) {
        let pages = [addr, addr + width.bytes() - 1];
        let mut seen_first = None;
        for a in pages {
            let page = self.mem.dtlb.page_of(a);
            if seen_first == Some(page) {
                continue;
            }
            seen_first = Some(page);
            if !self.mem.dtlb.access(a) {
                self.log.push(DebugEvent::TlbFill {
                    cycle: self.cycle,
                    seq,
                    page,
                    store,
                    spec,
                    tainted,
                });
            }
        }
    }

    /// Commits finished entries in order.
    fn commit_stage(&mut self) {
        if self.cycle < self.commit_stall_until {
            return;
        }
        let mut budget = self.cfg.commit_width;
        while budget > 0 {
            while self.commit_ptr < self.rob.len()
                && (self.rob[self.commit_ptr].squashed || self.rob[self.commit_ptr].committed)
            {
                self.commit_ptr += 1;
            }
            if self.commit_ptr >= self.rob.len() {
                return;
            }
            let idx = self.commit_ptr;
            let EState::Done { at } = self.rob[idx].state else {
                return;
            };
            if at > self.cycle {
                return;
            }
            if matches!(self.rob[idx].instr, Instr::Exit) {
                self.rob[idx].committed = true;
                self.stage_dirty = true;
                self.in_flight -= 1;
                self.committed_count += 1;
                self.exit_cycle = Some(self.cycle);
                self.log.push(DebugEvent::Exit { cycle: self.cycle });
                return;
            }
            // Architectural effects.
            if let Some((r, _)) = self.rob[idx].writes {
                self.regs[r.index()] = self.rob[idx].result.expect("result at commit");
                if self.rename[r.index()] == Some(idx) {
                    self.rename[r.index()] = None;
                }
            }
            if self.rob[idx].writes_flags {
                if let Some(f) = self.rob[idx].out_flags {
                    self.flags = f;
                }
                if self.rename[FLAGS_IDX] == Some(idx) {
                    self.rename[FLAGS_IDX] = None;
                }
            }
            // Copy out the commit-relevant memory fields (all `Copy`) —
            // no `MemState` clone per committed instruction.
            let mem = self.rob[idx]
                .mem
                .as_ref()
                .map(|m| (m.effect, m.addr, m.split, m.bypassed));
            if let Some((effect, addr, split, bypassed)) = mem {
                if effect.writes() {
                    let addr = addr.expect("store resolved before commit");
                    let width = effect.mem_ref().width;
                    let data = match effect {
                        MemEffect::Store(_) | MemEffect::Rmw(_) => {
                            self.rob[idx].result.expect("store data at commit")
                        }
                        MemEffect::Load(_) => unreachable!(),
                    };
                    self.sandbox.write(addr, width, data);
                    self.mem.request(
                        idx,
                        addr,
                        true,
                        true,
                        self.cycle,
                        FillMode::Fill,
                        &mut self.log,
                    );
                    if split {
                        let second = addr + width.bytes() - 1;
                        self.mem.request(
                            idx,
                            second,
                            true,
                            true,
                            self.cycle,
                            FillMode::Fill,
                            &mut self.log,
                        );
                    }
                }
                if effect.reads() && bypassed {
                    self.mdp.train_no_conflict(self.rob[idx].pc);
                }
            }
            self.rob[idx].committed = true;
            self.stage_dirty = true;
            self.in_flight -= 1;
            self.committed_count += 1;
            self.commit_ptr += 1;
            budget -= 1;
        }
    }

    /// Fetches along the predicted path; touches the L1I; dispatches into
    /// the ROB.
    fn fetch_stage(&mut self) {
        if self.cycle < self.fetch_stall_until {
            return;
        }
        if self.halted_fetch || self.fetch_pc >= self.program.len() {
            // Fetch-ahead: sequential I-lines past EXIT / off a wrong path
            // (the KV1/KV2 channels).
            self.mem.fetch_line(code_addr(self.fetch_pc));
            self.fetch_pc += self.cfg.fetch_width;
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.in_flight >= self.cfg.rob_size || self.fetched >= self.cfg.max_fetched {
                return;
            }
            if self.fetch_pc >= self.program.len() {
                return;
            }
            let pc = self.fetch_pc;
            let instr = self.program.instrs[pc];
            let decoded = self.decoded.instrs[pc];
            self.mem.fetch_line(code_addr(pc));
            self.fetched += 1;
            let taken_break = self.dispatch(pc, instr, &decoded);
            if taken_break {
                return;
            }
        }
    }

    /// Dispatches one instruction; returns `true` if fetch must stop this
    /// cycle (taken branch or EXIT). All static questions — source indices,
    /// destination, flags behaviour, memory effect, resolved branch targets
    /// — come from the per-pc [`DecodedInstr`] table instead of being
    /// recomputed from [`Instr::effects`] on every fetch.
    fn dispatch(&mut self, pc: usize, instr: Instr, decoded: &DecodedInstr) -> bool {
        let idx = self.rob.len();
        let mut srcs = SrcList::default();
        for &ri in &decoded.srcs {
            let ri = ri as usize;
            let v = match self.rename[ri] {
                Some(p) => SrcVal::Producer(p),
                None if ri == FLAGS_IDX => SrcVal::Ready(self.flags.bits() as u64),
                None => SrcVal::Ready(self.regs[ri]),
            };
            srcs.push(ri, v);
        }

        let ghr_at_fetch = self.bp.ghr();
        let mut predicted_taken = None;
        let mut branch_target = 0usize;
        let mut stop_fetch = false;
        let mut state = EState::Waiting;

        match decoded.flow {
            Flow::Jump { target } => {
                branch_target = target;
                self.fetch_pc = branch_target;
                state = EState::Done { at: self.cycle };
                stop_fetch = true;
            }
            Flow::CondBranch { target } => {
                branch_target = target;
                let taken = self.bp.predict(pc);
                predicted_taken = Some(taken);
                self.branch_order.push((pc, taken));
                self.log.push(DebugEvent::Predict {
                    cycle: self.cycle,
                    pc,
                    taken,
                });
                self.bp.push_history(taken);
                self.fetch_pc = if taken { branch_target } else { pc + 1 };
                stop_fetch = true;
            }
            Flow::Exit => {
                state = EState::Done { at: self.cycle };
                self.halted_fetch = true;
                self.fetch_pc = pc + 1;
                stop_fetch = true;
            }
            Flow::Seq => {
                self.fetch_pc = pc + 1;
            }
        }

        let entry = RobEntry {
            pc,
            instr,
            srcs,
            ready_from: 0,
            state,
            result: None,
            out_flags: None,
            writes: decoded.writes,
            writes_flags: decoded.writes_flags,
            mem: decoded.mem.map(|effect| MemState {
                effect,
                addr: None,
                computed: None,
                split: false,
                load_value: None,
                issued: false,
                bypassed: false,
                forwarded_from: None,
                disambiguate_at: None,
                unrecorded_fill: false,
                parked: false,
            }),
            is_cond_branch: decoded.is_cond_branch(),
            predicted_taken,
            ghr_at_fetch,
            resolved_taken: None,
            branch_target,
            squashed: false,
            committed: false,
            safe_at: None,
            issued_unsafe_load: false,
            needs_expose: false,
            exposed: false,
            tainted: false,
            held: None,
        };
        if let Some((r, _)) = decoded.writes {
            self.rename[r.index()] = Some(idx);
        }
        if decoded.writes_flags {
            self.rename[FLAGS_IDX] = Some(idx);
        }
        if let Some(effect) = decoded.mem {
            if effect.writes() {
                self.stores.push(idx);
            }
            if effect.reads() {
                self.loads.push(idx);
            }
        }
        self.rob.push(entry);
        self.waiters.push(NO_WAITER);
        self.next_waiter.push(NO_WAITER);
        if state == EState::Waiting {
            self.enqueue(idx);
        }
        self.in_flight += 1;
        self.stage_dirty = true;
        stop_fetch
    }
}

/// Which µarch trace a [`Simulator::trace_digest`] summarises — the
/// simulator-side mirror of the fuzzer's trace formats (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DigestKind {
    /// Final L1D + D-TLB residency (optionally extended with the L1I).
    L1dTlb {
        /// Include the instruction cache (KV1/KV2 campaigns).
        include_l1i: bool,
    },
    /// Final branch-predictor state (PHT + GHR).
    BpState,
    /// Ordered memory requests (pc, line, kind).
    MemOrder,
    /// Ordered branch predictions (pc, direction).
    BranchOrder,
}

const SEQ_SEED: u64 = 0xcbf2_9ce4_8422_2325;

use amulet_util::mix64;

/// Order-independent digest of a set of unique elements: a Zobrist-style
/// XOR fold of mixed elements, finished with the section (domain
/// separation) and the cardinality (so ∅ and {0} differ). This is the
/// reference form of the incremental accumulator the caches and TLB
/// maintain ([`crate::cache::Cache::digest`]) — both must agree, which
/// `digest_tests` asserts.
#[cfg(test)]
fn set_digest(items: impl Iterator<Item = u64>, section: u64) -> u64 {
    let mut acc = 0u64;
    let mut n = 0u64;
    for x in items {
        acc ^= mix64(x);
        n += 1;
    }
    amulet_util::residency_digest(acc, n, section)
}

/// Sequential (order-sensitive) fold.
#[inline]
fn seq_fold(h: u64, x: u64) -> u64 {
    mix64(h ^ x).wrapping_add(h.rotate_left(17))
}

#[cfg(test)]
mod digest_tests {
    use super::*;

    #[test]
    fn set_digest_is_order_independent() {
        let a = set_digest([1u64, 2, 3].into_iter(), 7);
        let b = set_digest([3u64, 1, 2].into_iter(), 7);
        assert_eq!(a, b, "storage order must not matter");
        assert_ne!(a, set_digest([1u64, 2].into_iter(), 7));
        assert_ne!(
            set_digest(std::iter::empty(), 7),
            set_digest([0u64].into_iter(), 7),
            "cardinality is part of the digest"
        );
        assert_ne!(
            set_digest([1u64].into_iter(), 7),
            set_digest([1u64].into_iter(), 8),
            "sections are domain-separated"
        );
    }

    #[test]
    fn seq_fold_is_order_sensitive() {
        let h1 = seq_fold(seq_fold(SEQ_SEED, 1), 2);
        let h2 = seq_fold(seq_fold(SEQ_SEED, 2), 1);
        assert_ne!(h1, h2);
    }

    /// The incremental Zobrist accumulators must equal the reference fold
    /// after an adversarial mix of fills, evictions, undo
    /// invalidate/restore, flushes, and prefill-image restores.
    #[test]
    fn incremental_cache_digest_matches_reference_fold() {
        use crate::defense::InsecureBaseline;
        let mut sim = Simulator::new(
            SimConfig::default().amplified(2, 2),
            Box::new(InsecureBaseline),
        );
        sim.flush_caches();
        sim.prefill_l1d_conflicting();
        let check = |sim: &Simulator| {
            assert_eq!(
                sim.mem.l1d.digest(0x1d),
                set_digest(sim.mem.l1d.iter_lines(), 0x1d)
            );
            let l1i = sim.mem.l1i();
            assert_eq!(l1i.digest(0x11), set_digest(l1i.iter_lines(), 0x11));
            assert_eq!(
                sim.mem.dtlb.digest(0x71b),
                set_digest(sim.mem.dtlb.iter_pages(), 0x71b)
            );
        };
        check(&sim);
        // Drive fills/evictions/undos directly on the memory system.
        let mut log = DebugLog::new(1000);
        for i in 0..40u64 {
            let addr = 0x4000 + i * 0x940;
            let mode = match i % 3 {
                0 => FillMode::Fill,
                1 => FillMode::FillUndo { record: true },
                _ => FillMode::Park,
            };
            let out = sim
                .mem
                .request(i as usize, addr, i % 2 == 0, i % 5 == 0, i, mode, &mut log);
            sim.mem.tick(out.completion, &mut log);
            sim.mem.dtlb.access(addr);
            sim.mem.fetch_line(amulet_isa::code_addr(i as usize * 7));
        }
        for seq in 0..40usize {
            if seq % 4 == 0 {
                sim.mem.undo_for(seq, 10_000, seq % 8 == 0, &mut log);
            }
            if seq % 5 == 0 {
                sim.mem.release_parked(seq, 10_000, &mut log);
            }
        }
        sim.mem.tick(20_000, &mut log);
        check(&sim);
        sim.mem.dtlb.invalidate_page(4);
        sim.flush_caches();
        check(&sim);
        sim.prefill_l1d_conflicting();
        check(&sim);
    }

    #[test]
    fn cached_prefill_matches_fresh() {
        use crate::defense::InsecureBaseline;
        let mk = || Simulator::new(SimConfig::default(), Box::new(InsecureBaseline));
        let mut fresh = mk();
        fresh.flush_caches();
        fresh.prefill_l1d_conflicting_fresh();

        let mut cached = mk();
        // First call computes the image, second restores it by copy.
        cached.flush_caches();
        cached.prefill_l1d_conflicting();
        cached.flush_caches();
        cached.prefill_l1d_conflicting();

        assert_eq!(fresh.snapshot().l1d, cached.snapshot().l1d);
        assert_eq!(
            fresh.trace_digest(DigestKind::L1dTlb { include_l1i: false }),
            cached.trace_digest(DigestKind::L1dTlb { include_l1i: false })
        );
    }
}

/// What the LSQ scan decided for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreScan {
    /// Stall: retry next cycle (partial overlap or predicted conflict).
    WaitFor(usize),
    /// Forward the value from this store entry.
    Forward(usize),
    /// Proceed to memory; `true` if unresolved older stores were bypassed.
    Bypass(bool),
}
