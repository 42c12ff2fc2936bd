//! The timed memory system: L1D/L1I/L2 caches, D-TLB, finite MSHRs, an
//! in-order cache-controller queue, pending fills, and defense fill modes.
//!
//! Timing model (documented in DESIGN.md):
//!
//! - Requests enter an **in-order controller queue** (one per cycle). When
//!   the request at the head needs an MSHR and none is free, the whole queue
//!   blocks — this head-of-line blocking is the paper's UV2 mechanism
//!   (same-core speculative interference through MSHR contention).
//! - Misses allocate an **MSHR** until the fill returns; requests to a line
//!   already outstanding merge without a new MSHR.
//! - Fills are **pending** until their completion cycle; [`MemSys::tick`]
//!   applies due fills each cycle. At test end, [`MemSys::drain`] lands
//!   in-flight fills but drops requests that never acquired an MSHR — so a
//!   stalled expose leaves its line absent from the final snapshot, exactly
//!   how UV2 manifests (Table 7).
//! - Evicted L1 victims are installed into L2 (inclusive-ish victim
//!   handling), and evictions can occupy the MSHR for a writeback window
//!   (Table 7 shows replacement entries in the MSHRs).

use crate::cache::Cache;
use crate::config::SimConfig;
use crate::debuglog::{DebugEvent, DebugLog};
use crate::tlb::Tlb;
use std::cell::{Ref, RefCell};

/// How a request interacts with cache state — chosen by the defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillMode {
    /// Install into L1 (+L2 on L2 miss); hits update LRU. The baseline CPU.
    Fill,
    /// InvisiSpec invisible request: no state change anywhere; hits do not
    /// update LRU. `buggy_eviction` reproduces UV1: a miss in a full set
    /// still triggers an L1 replacement. `ghost` models GhostMinion's
    /// strictness ordering: the request bypasses the MSHRs and controller
    /// queue entirely, so younger speculative loads can never delay older
    /// operations (the fix the paper points to for UV2).
    NoFill {
        /// Trigger the UV1 replacement bug.
        buggy_eviction: bool,
        /// Bypass MSHRs/queue (GhostMinion-style strictness ordering).
        ghost: bool,
    },
    /// CleanupSpec: install like [`FillMode::Fill`], but (if `record`)
    /// remember undo metadata so the fill can be cleaned on squash. Hits do
    /// not update LRU (CleanupSpec protects replacement state).
    FillUndo {
        /// Record cleanup metadata (false models the UV3/UV4 bugs).
        record: bool,
    },
    /// SpecLFB: a miss is parked in the line-fill buffer and only installed
    /// when released (load became safe). Hits do not update LRU.
    Park,
}

/// The result of issuing a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which data is available to the pipeline.
    pub completion: u64,
    /// Hit in L1D.
    pub l1_hit: bool,
    /// Hit in L2 (only meaningful on L1 miss).
    pub l2_hit: bool,
    /// The request waited for a free MSHR (head-of-line blocking engaged).
    pub mshr_stalled: bool,
    /// The request merged into an already-outstanding miss.
    pub merged: bool,
}

/// A fill scheduled to land at `apply_at`.
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    line: u64,
    apply_at: u64,
    /// When the request could acquire an MSHR (`issue time ⊔ slot free`).
    /// Fills that never obtained an MSHR before EXIT are dropped by
    /// [`MemSys::drain`]; queue serialisation delays latency but not
    /// eventual completion.
    started_at: u64,
    seq: usize,
    write: bool,
    nonspec: bool,
    record_undo: bool,
    fill_l2: bool,
    mshr_slot: Option<usize>,
}

/// Undo metadata for an applied CleanupSpec fill.
#[derive(Debug, Clone, Copy)]
pub struct FillRecord {
    /// ROB sequence of the instruction that caused the fill.
    pub seq: usize,
    /// Installed line address.
    pub line: u64,
    /// Victim evicted by the install, if any.
    pub evicted: Option<crate::cache::Line>,
    /// The line was already present (nothing to undo).
    pub already_present: bool,
}

/// A SpecLFB line-fill-buffer entry.
#[derive(Debug, Clone, Copy)]
struct Parked {
    line: u64,
    ready_at: u64,
    seq: usize,
    write: bool,
}

/// The L1I and the fetches not yet filled into it.
#[derive(Debug)]
struct LazyL1i {
    cache: Cache,
    /// Lines fetched since the cache was last brought up to date, in fetch
    /// order and without back-to-back repeats (see [`MemSys::fetch_line`]).
    fetch_log: Vec<u64>,
}

/// The complete timed memory system.
#[derive(Debug)]
pub struct MemSys {
    /// L1 data cache.
    pub l1d: Cache,
    /// L1 instruction cache with its deferred fetch fills: read it through
    /// [`MemSys::l1i`].
    l1i: RefCell<LazyL1i>,
    /// Unified L2.
    pub l2: Cache,
    /// Data TLB.
    pub dtlb: Tlb,
    cfg: SimConfig,
    mshr_free_at: Vec<u64>,
    /// Index of the first never-used (`free_at == 0`) MSHR slot this test
    /// case, `== mshr_free_at.len()` once all have been used. Allocation
    /// always picks the raw `(free_at, index)` minimum; while zeros remain
    /// they *are* that minimum and they are consumed in index order (an
    /// allocation makes its slot non-zero, and writeback extensions only
    /// touch already-used slots), so the argmin is this index — a O(1) fast
    /// path that replaces a scan over all (default 256) slots per miss.
    mshr_first_zero: usize,
    queue_free_at: u64,
    pending: Vec<PendingFill>,
    outstanding: Vec<(u64, u64)>, // (line, completion)
    records: Vec<FillRecord>,
    parked: Vec<Parked>,
    /// Cached lower bound on the next cycle at which the memory system does
    /// anything: the min of pending-fill `apply_at`s and future MSHR frees.
    /// Exact whenever it lies in the future; removals (cancels) may leave it
    /// conservatively early, which only costs one extra scan in
    /// [`MemSys::tick`]. This is what makes `tick` a single compare on idle
    /// cycles and gives the pipeline's time-warp scheduler its horizon
    /// ([`MemSys::next_event`]).
    next_event: u64,
    /// Reusable buffer for fills due this tick (no per-apply allocation).
    due_scratch: Vec<PendingFill>,
}

impl MemSys {
    /// Builds an empty memory system from the configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        MemSys {
            l1d: Cache::new(cfg.l1d),
            l1i: RefCell::new(LazyL1i {
                cache: Cache::new(cfg.l1i),
                fetch_log: Vec::new(),
            }),
            l2: Cache::new(cfg.l2),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.page_bytes),
            cfg: cfg.clone(),
            mshr_free_at: vec![0; cfg.mshrs],
            mshr_first_zero: 0,
            queue_free_at: 0,
            pending: Vec::new(),
            outstanding: Vec::new(),
            records: Vec::new(),
            parked: Vec::new(),
            next_event: u64::MAX,
            due_scratch: Vec::new(),
        }
    }

    /// Resets per-test-case transient state (queues, MSHRs, pending fills,
    /// records, LFB) without touching cache/TLB contents.
    pub fn reset_transient(&mut self) {
        self.mshr_free_at.iter_mut().for_each(|m| *m = 0);
        self.mshr_first_zero = 0;
        self.queue_free_at = 0;
        self.pending.clear();
        self.outstanding.clear();
        self.records.clear();
        self.parked.clear();
        self.next_event = u64::MAX;
    }

    /// The next cycle at which the memory system can change state on its
    /// own: the earliest pending-fill `apply_at` or future MSHR free
    /// (`u64::MAX` if neither exists). A conservative (early) value is
    /// possible after cancellations — never a late one — so warping the
    /// cycle counter to this horizon can never skip a fill.
    pub fn next_event(&self) -> u64 {
        self.next_event
    }

    /// Debug-build soundness check of the warp horizon at the top of cycle
    /// `now`: [`MemSys::next_event`] is no later than the earliest pending
    /// fill or the earliest MSHR free from `now` on — so warping to it can
    /// never skip either.
    #[cfg(debug_assertions)]
    pub(crate) fn check_next_event(&self, now: u64) {
        let fill = self.pending.iter().map(|p| p.apply_at).min();
        let free = self.mshr_free_at[..self.mshr_first_zero]
            .iter()
            .copied()
            .filter(|&f| f >= now)
            .min();
        if let Some(first) = fill.into_iter().chain(free).min() {
            assert!(
                self.next_event <= first,
                "cycle {now}: memory horizon {} is later than the next event at {first}",
                self.next_event
            );
        }
    }

    #[inline]
    fn note_event(&mut self, at: u64) {
        self.next_event = self.next_event.min(at);
    }

    /// Recomputes the cached horizon after fills were applied at `now`
    /// (MSHR frees at or before `now` are in the past and no longer count;
    /// never-used slots are 0, so only the used prefix can hold a future
    /// free).
    fn recompute_next_event(&mut self, now: u64) {
        let mut next = u64::MAX;
        for p in &self.pending {
            next = next.min(p.apply_at);
        }
        for &free in &self.mshr_free_at[..self.mshr_first_zero] {
            if free > now {
                next = next.min(free);
            }
        }
        self.next_event = next;
    }

    /// Issues a data request for the line containing `addr`.
    ///
    /// `now` is the issue cycle; `seq` identifies the instruction for the
    /// debug log and undo metadata.
    #[allow(clippy::too_many_arguments)]
    pub fn request(
        &mut self,
        seq: usize,
        addr: u64,
        write: bool,
        nonspec: bool,
        now: u64,
        mode: FillMode,
        log: &mut DebugLog,
    ) -> AccessOutcome {
        let line = self.cfg.l1d.line_of(addr);
        if let FillMode::NoFill { ghost: true, .. } = mode {
            // Strictness-ordered invisible request: own virtual channel, no
            // shared-resource contention in either direction.
            let l1_hit = self.l1d.contains(line);
            let l2_hit = !l1_hit && self.l2.contains(line);
            let latency = if l1_hit {
                self.cfg.l1d.hit_latency
            } else if l2_hit {
                self.cfg.l1d.hit_latency + self.cfg.l2.hit_latency
            } else {
                self.cfg.l1d.hit_latency + self.cfg.mem_latency
            };
            return AccessOutcome {
                completion: now + latency,
                l1_hit,
                l2_hit,
                mshr_stalled: false,
                merged: false,
            };
        }
        let start = now.max(self.queue_free_at);

        // L1 probe.
        if self.l1d.contains(line) {
            match mode {
                FillMode::Fill => {
                    self.l1d.touch(line, write, nonspec);
                }
                FillMode::FillUndo { .. } | FillMode::NoFill { .. } | FillMode::Park => {
                    // Replacement-state-protecting defenses: probe only.
                    if nonspec {
                        self.l1d.touch(line, write, true);
                    }
                }
            }
            self.queue_free_at = start + 1;
            return AccessOutcome {
                completion: start + self.cfg.l1d.hit_latency,
                l1_hit: true,
                l2_hit: false,
                mshr_stalled: false,
                merged: false,
            };
        }

        // Merge with an outstanding miss to the same line. The merged
        // request still honours its own fill mode: a demand fill merging
        // onto an invisible/parked speculative miss must not inherit the
        // speculative request's invisibility (otherwise a defense's fate
        // decisions for the *speculative* load would leak into the
        // *architectural* footprint).
        if let Some(&(_, completion)) = self
            .outstanding
            .iter()
            .find(|&&(l, completion)| l == line && completion >= start)
        {
            self.queue_free_at = start + 1;
            let completion = completion.max(start + self.cfg.l1d.hit_latency);
            match mode {
                FillMode::Fill | FillMode::FillUndo { .. } => {
                    let record_undo = matches!(mode, FillMode::FillUndo { record: true });
                    self.note_event(completion);
                    self.pending.push(PendingFill {
                        line,
                        apply_at: completion,
                        started_at: start,
                        seq,
                        write,
                        nonspec,
                        record_undo,
                        fill_l2: false,
                        mshr_slot: None,
                    });
                }
                FillMode::Park => {
                    self.parked.push(Parked {
                        line,
                        ready_at: completion,
                        seq,
                        write,
                    });
                }
                FillMode::NoFill { .. } => {}
            }
            return AccessOutcome {
                completion,
                l1_hit: false,
                l2_hit: false,
                mshr_stalled: false,
                merged: true,
            };
        }

        // Allocate an MSHR (head-of-line blocking when none free): the slot
        // with the raw minimum `(free_at, index)` key. While never-used
        // slots remain, the first of them is that minimum (see
        // `mshr_first_zero`); only once every slot has been used does the
        // scan run — and then over a set the test case actually exercised.
        let (slot, slot_free) = if self.mshr_first_zero < self.mshr_free_at.len() {
            (self.mshr_first_zero, 0)
        } else {
            self.mshr_free_at
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(i, free)| (free, i))
                .expect("mshr count > 0")
        };
        let start2 = start.max(slot_free);
        let stalled = start2 > start;
        if stalled {
            log.push(DebugEvent::MshrStall {
                cycle: start,
                seq,
                addr: line,
            });
        }
        self.queue_free_at = start2 + 1;

        // L2 probe.
        let l2_hit = self.l2.contains(line);
        let latency = self.cfg.l1d.hit_latency
            + if l2_hit {
                self.cfg.l2.hit_latency
            } else {
                self.cfg.mem_latency
            };
        let completion = start2 + latency;
        self.mshr_free_at[slot] = completion;
        if slot == self.mshr_first_zero {
            self.mshr_first_zero += 1;
        }
        self.note_event(completion);
        self.outstanding.push((line, completion));
        if l2_hit {
            self.l2.touch(line, false, nonspec);
        }

        match mode {
            FillMode::Fill | FillMode::FillUndo { .. } => {
                let record_undo = matches!(mode, FillMode::FillUndo { record: true });
                self.pending.push(PendingFill {
                    line,
                    apply_at: completion,
                    started_at: now.max(slot_free),
                    seq,
                    write,
                    nonspec,
                    record_undo,
                    fill_l2: !l2_hit,
                    mshr_slot: Some(slot),
                });
            }
            FillMode::NoFill { buggy_eviction, .. } => {
                if buggy_eviction && !self.l1d.set_has_room(line) {
                    if let Some(victim) = self.l1d.evict_victim_of(line) {
                        log.push(DebugEvent::Replace {
                            cycle: start2,
                            seq,
                            victim: victim.addr,
                            spec: true,
                        });
                        self.l2.fill(victim.addr, victim.dirty, false);
                    }
                }
            }
            FillMode::Park => {
                self.parked.push(Parked {
                    line,
                    ready_at: completion,
                    seq,
                    write,
                });
                log.push(DebugEvent::LfbPark {
                    cycle: start2,
                    seq,
                    addr: line,
                });
            }
        }

        AccessOutcome {
            completion,
            l1_hit: false,
            l2_hit,
            mshr_stalled: stalled,
            merged: false,
        }
    }

    /// Applies all fills due at or before `now`. Returns `true` if any fill
    /// was applied (cache state changed).
    ///
    /// On idle cycles (`now` before [`MemSys::next_event`]) this is a single
    /// compare; due fills are drained into a reusable scratch buffer, so the
    /// apply path allocates nothing once warmed up.
    pub fn tick(&mut self, now: u64, log: &mut DebugLog) -> bool {
        if now < self.next_event {
            return false;
        }
        self.outstanding.retain(|&(_, c)| c > now);
        let mut due = std::mem::take(&mut self.due_scratch);
        self.pending.retain(|p| {
            if p.apply_at <= now {
                due.push(*p);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|p| (p.apply_at, p.seq));
        let applied = !due.is_empty();
        for &p in &due {
            self.apply_fill(p, log);
        }
        due.clear();
        self.due_scratch = due;
        self.recompute_next_event(now);
        applied
    }

    /// Drains the memory system at test end (EXIT commit): fills whose
    /// requests already acquired an MSHR land (an attacker probing after the
    /// test observes them); requests still stalled waiting for resources
    /// never start and are dropped — which is exactly how the paper's UV2
    /// (a stalled InvisiSpec expose) manifests in the final snapshot
    /// (Table 7: "Expose 0x3e80 — stall!" and the line is absent).
    pub fn drain(&mut self, exit_cycle: u64, log: &mut DebugLog) {
        let mut due = std::mem::take(&mut self.due_scratch);
        due.extend(
            self.pending
                .drain(..)
                .filter(|p| p.started_at <= exit_cycle),
        );
        due.sort_by_key(|p| (p.apply_at, p.seq));
        for &p in &due {
            self.apply_fill(p, log);
        }
        due.clear();
        self.due_scratch = due;
        self.outstanding.clear();
        self.next_event = u64::MAX;
    }

    fn apply_fill(&mut self, p: PendingFill, log: &mut DebugLog) {
        let outcome = self.l1d.fill(p.line, p.write, p.nonspec);
        log.push(DebugEvent::Fill {
            cycle: p.apply_at,
            seq: p.seq,
            addr: p.line,
        });
        if let Some(victim) = outcome.evicted {
            log.push(DebugEvent::Replace {
                cycle: p.apply_at,
                seq: p.seq,
                victim: victim.addr,
                spec: !p.nonspec,
            });
            // Victim moves to L2; the writeback occupies the MSHR slot.
            self.l2.fill(victim.addr, victim.dirty, false);
            if self.cfg.writeback_mshr {
                if let Some(slot) = p.mshr_slot {
                    self.mshr_free_at[slot] =
                        self.mshr_free_at[slot].max(p.apply_at + self.cfg.writeback_latency);
                }
            }
        }
        if p.fill_l2 {
            self.l2.fill(p.line, false, p.nonspec);
        }
        if p.record_undo {
            self.records.push(FillRecord {
                seq: p.seq,
                line: p.line,
                evicted: outcome.evicted,
                already_present: outcome.already_present,
            });
        }
    }

    /// Cancels pending (not yet applied) fills and LFB entries of `seq`.
    pub fn cancel_for(&mut self, seq: usize) {
        self.pending.retain(|p| p.seq != seq);
        self.parked.retain(|p| p.seq != seq);
    }

    /// Cancels only *tracked* pending fills of `seq` — fills issued with
    /// `FillUndo { record: true }`. CleanupSpec can only clean what its
    /// metadata covers; unrecorded (buggy) fills sail through.
    pub fn cancel_recorded_for(&mut self, seq: usize) {
        self.pending.retain(|p| p.seq != seq || !p.record_undo);
    }

    /// CleanupSpec undo: reverts recorded fills of `seq`. With `no_clean`,
    /// lines that a non-speculative access touched since the fill are spared
    /// (the mitigation the paper sketches for UV5). Returns the number of
    /// cleanup operations performed.
    pub fn undo_for(&mut self, seq: usize, now: u64, no_clean: bool, log: &mut DebugLog) -> usize {
        let mut ops = 0;
        let mut records = std::mem::take(&mut self.records);
        records.retain(|r| {
            if r.seq != seq {
                return true;
            }
            if !r.already_present {
                if no_clean && self.l1d.nonspec_touched(r.line) {
                    return false;
                }
                self.l1d.invalidate(r.line);
                if let Some(v) = r.evicted {
                    self.l1d.restore(v);
                }
                log.push(DebugEvent::Undo {
                    cycle: now,
                    seq,
                    addr: r.line,
                    restored: r.evicted.map(|v| v.addr),
                });
                ops += 1;
            }
            false
        });
        self.records = records;
        ops
    }

    /// Releases a SpecLFB parked line for `seq` (the load became safe),
    /// installing it into L1. Returns `true` if a line was installed.
    pub fn release_parked(&mut self, seq: usize, now: u64, log: &mut DebugLog) -> bool {
        let Some(idx) = self.parked.iter().position(|p| p.seq == seq) else {
            return false;
        };
        let p = self.parked.swap_remove(idx);
        let apply_at = now.max(p.ready_at);
        self.note_event(apply_at);
        self.pending.push(PendingFill {
            line: p.line,
            apply_at,
            started_at: now,
            seq,
            write: p.write,
            nonspec: true,
            record_undo: false,
            fill_l2: true,
            mshr_slot: None,
        });
        log.push(DebugEvent::LfbInstall {
            cycle: apply_at,
            seq,
            addr: p.line,
        });
        true
    }

    /// Whether `seq` still has a parked LFB entry.
    pub fn has_parked(&self, seq: usize) -> bool {
        self.parked.iter().any(|p| p.seq == seq)
    }

    /// Whether `seq` has recorded cleanup metadata.
    pub fn has_record(&self, seq: usize) -> bool {
        self.records.iter().any(|r| r.seq == seq)
    }

    /// Touches the instruction cache for the line containing `addr`
    /// (footprint only — I-fetch timing is not modelled).
    ///
    /// A fetch fill has no timing effect and no L2 side, so the fill is
    /// deferred: the line joins a log that [`MemSys::l1i`] replays when
    /// something observes the L1I. Re-fetching the line just logged is
    /// dropped — filling the most recently used line again changes neither
    /// residency, relative LRU order nor flags.
    pub fn fetch_line(&mut self, addr: u64) {
        let line = self.cfg.l1i.line_of(addr);
        let log = &mut self.l1i.get_mut().fetch_log;
        if log.last() != Some(&line) {
            log.push(line);
        }
    }

    /// The L1 instruction cache, with every logged fetch applied.
    pub fn l1i(&self) -> Ref<'_, Cache> {
        {
            let LazyL1i { cache, fetch_log } = &mut *self.l1i.borrow_mut();
            for &line in fetch_log.iter() {
                cache.fill(line, false, true);
            }
            fetch_log.clear();
        }
        Ref::map(self.l1i.borrow(), |l1i| &l1i.cache)
    }

    fn flush_l1i(&mut self) {
        let l1i = self.l1i.get_mut();
        l1i.fetch_log.clear();
        l1i.cache.flush();
    }

    /// Flushes L1D, L1I, L2 and the TLB (the "simulator hook" reset used for
    /// CleanupSpec/SpecLFB harnesses, §3.5).
    pub fn flush_all(&mut self) {
        self.l1d.flush();
        self.flush_l1i();
        self.l2.flush();
        self.dtlb.flush();
    }

    /// Flushes L1I, L2 and the TLB but leaves the L1D alone — the prefill
    /// reset path, where the tracked prefill restore is about to overwrite
    /// the L1D wholesale anyway (flushing it first would void the tracking
    /// baseline and force a full image copy every test case).
    pub fn flush_all_except_l1d(&mut self) {
        self.flush_l1i();
        self.l2.flush();
        self.dtlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deferred L1I equals one filled eagerly at every fetch, read at
    /// any point of a random fetch stream: repeats, sequential fetch-ahead
    /// spans, flushes, and small geometry so that lines are evicted.
    #[test]
    fn replayed_l1i_equals_eager_fills() {
        use amulet_util::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0x11CA);
        let l1i = crate::config::CacheConfig {
            sets: 4,
            ways: 2,
            ..SimConfig::default().l1i
        };
        let cfg = SimConfig {
            l1i,
            ..SimConfig::default()
        };
        let mut m = MemSys::new(&cfg);
        let mut eager = Cache::new(l1i);
        let fetch = |m: &mut MemSys, eager: &mut Cache, addr: u64| {
            m.fetch_line(addr);
            eager.fill(addr, false, true);
        };
        for step in 0..2_000 {
            let pc = rng.index(512);
            match rng.index(8) {
                // A fetch-ahead span: one fetch per cycle, several per line.
                0 => {
                    for k in 0..rng.index(40) {
                        fetch(&mut m, &mut eager, amulet_isa::code_addr(pc + k));
                    }
                }
                1 => {
                    let addr = amulet_isa::code_addr(pc);
                    for _ in 0..1 + rng.index(3) {
                        fetch(&mut m, &mut eager, addr);
                    }
                }
                2 if rng.chance(1, 8) => {
                    m.flush_all_except_l1d();
                    eager.flush();
                }
                _ => fetch(&mut m, &mut eager, amulet_isa::code_addr(pc)),
            }
            if rng.chance(1, 4) {
                let lazy = m.l1i();
                assert_eq!(lazy.snapshot(), eager.snapshot(), "step {step}");
                assert_eq!(lazy.digest(0x11), eager.digest(0x11), "step {step}");
            }
        }
    }

    fn memsys(mshrs: usize) -> (MemSys, DebugLog) {
        let cfg = SimConfig {
            mshrs,
            ..SimConfig::default()
        };
        (MemSys::new(&cfg), DebugLog::new(10_000))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let (mut m, mut log) = memsys(4);
        let out = m.request(0, 0x4000, false, true, 0, FillMode::Fill, &mut log);
        assert!(!out.l1_hit && !out.l2_hit);
        assert_eq!(out.completion, 2 + 80);
        assert!(!m.l1d.contains(0x4000), "fill still pending");
        m.tick(out.completion, &mut log);
        assert!(m.l1d.contains(0x4000));
        assert!(m.l2.contains(0x4000), "L2 filled too");
        let out2 = m.request(
            1,
            0x4000,
            false,
            true,
            out.completion + 1,
            FillMode::Fill,
            &mut log,
        );
        assert!(out2.l1_hit);
    }

    #[test]
    fn l2_hit_is_faster_than_memory() {
        let (mut m, mut log) = memsys(4);
        m.l2.fill(0x4000, false, true);
        let out = m.request(0, 0x4000, false, true, 0, FillMode::Fill, &mut log);
        assert!(out.l2_hit);
        assert_eq!(out.completion, 2 + 12);
    }

    #[test]
    fn outstanding_misses_merge() {
        let (mut m, mut log) = memsys(4);
        let a = m.request(0, 0x4000, false, true, 0, FillMode::Fill, &mut log);
        let b = m.request(1, 0x4010, false, true, 1, FillMode::Fill, &mut log);
        assert!(b.merged, "same line, outstanding");
        assert!(b.completion >= a.completion);
    }

    #[test]
    fn mshr_exhaustion_blocks_the_queue() {
        let (mut m, mut log) = memsys(1);
        let a = m.request(0, 0x4000, false, true, 0, FillMode::Fill, &mut log);
        // Different line: needs the only MSHR, which frees at a.completion.
        let b = m.request(1, 0x8000, false, true, 1, FillMode::Fill, &mut log);
        assert!(b.mshr_stalled);
        assert!(b.completion >= a.completion + 82);
        assert!(log.any(|e| matches!(e, DebugEvent::MshrStall { .. })));
        // And the queue blocked: even an L1 hit behind the stalled head waits.
        m.l1d.fill(0xC000, false, true);
        let c = m.request(2, 0xC000, false, true, 2, FillMode::Fill, &mut log);
        assert!(c.completion > a.completion, "head-of-line blocking");
    }

    #[test]
    fn nofill_leaves_no_state() {
        let (mut m, mut log) = memsys(4);
        let out = m.request(
            0,
            0x4000,
            false,
            false,
            0,
            FillMode::NoFill {
                buggy_eviction: false,
                ghost: false,
            },
            &mut log,
        );
        m.tick(out.completion + 1, &mut log);
        assert!(!m.l1d.contains(0x4000));
        assert!(!m.l2.contains(0x4000));
    }

    #[test]
    fn buggy_eviction_evicts_without_installing() {
        let mut cfg = SimConfig::default();
        cfg.l1d.ways = 2;
        let mut m = MemSys::new(&cfg);
        let mut log = DebugLog::new(1000);
        // Fill set 0 (addresses that map to set 0): lines 0x4000 and 0x8000.
        m.l1d.fill(0x4000, false, true);
        m.l1d.fill(0x8000, false, true);
        let out = m.request(
            5,
            0xC000,
            false,
            false,
            0,
            FillMode::NoFill {
                buggy_eviction: true,
                ghost: false,
            },
            &mut log,
        );
        m.tick(out.completion + 1, &mut log);
        assert!(!m.l1d.contains(0xC000), "invisible load not installed");
        assert_eq!(m.l1d.len(), 1, "but a victim was evicted (UV1)");
        assert!(log.any(|e| matches!(e, DebugEvent::Replace { spec: true, .. })));
    }

    #[test]
    fn fill_undo_roundtrip() {
        let mut cfg = SimConfig::default();
        cfg.l1d.ways = 2;
        let mut m = MemSys::new(&cfg);
        let mut log = DebugLog::new(1000);
        m.l1d.fill(0x4000, false, true);
        m.l1d.fill(0x8000, false, true);
        let out = m.request(
            7,
            0xC000,
            false,
            false,
            0,
            FillMode::FillUndo { record: true },
            &mut log,
        );
        m.tick(out.completion, &mut log);
        assert!(m.l1d.contains(0xC000));
        assert!(m.has_record(7));
        let ops = m.undo_for(7, out.completion + 1, false, &mut log);
        assert_eq!(ops, 1);
        assert!(!m.l1d.contains(0xC000), "install undone");
        assert!(
            m.l1d.contains(0x4000) && m.l1d.contains(0x8000),
            "victim restored"
        );
    }

    #[test]
    fn undo_with_no_clean_spares_touched_lines() {
        let (mut m, mut log) = memsys(4);
        let out = m.request(
            3,
            0x4000,
            false,
            false,
            0,
            FillMode::FillUndo { record: true },
            &mut log,
        );
        m.tick(out.completion, &mut log);
        // A non-speculative access touches the line before the squash.
        m.request(
            4,
            0x4000,
            false,
            true,
            out.completion + 1,
            FillMode::Fill,
            &mut log,
        );
        let ops = m.undo_for(3, out.completion + 2, true, &mut log);
        assert_eq!(ops, 0, "noClean mitigation spares the line");
        assert!(m.l1d.contains(0x4000));
    }

    #[test]
    fn unrecorded_fill_cannot_be_undone() {
        let (mut m, mut log) = memsys(4);
        let out = m.request(
            3,
            0x4000,
            false,
            false,
            0,
            FillMode::FillUndo { record: false },
            &mut log,
        );
        m.tick(out.completion, &mut log);
        assert!(!m.has_record(3), "UV3/UV4: no metadata recorded");
        assert_eq!(m.undo_for(3, out.completion + 1, false, &mut log), 0);
        assert!(m.l1d.contains(0x4000), "the speculative fill persists");
    }

    #[test]
    fn park_and_release() {
        let (mut m, mut log) = memsys(4);
        let out = m.request(9, 0x4000, false, false, 0, FillMode::Park, &mut log);
        m.tick(out.completion + 5, &mut log);
        assert!(!m.l1d.contains(0x4000), "parked, not installed");
        assert!(m.has_parked(9));
        assert!(m.release_parked(9, out.completion + 6, &mut log));
        m.tick(out.completion + 6, &mut log);
        assert!(m.l1d.contains(0x4000));
    }

    #[test]
    fn cancel_drops_parked_and_pending() {
        let (mut m, mut log) = memsys(4);
        m.request(9, 0x4000, false, false, 0, FillMode::Park, &mut log);
        m.request(10, 0x8000, false, false, 0, FillMode::Fill, &mut log);
        m.cancel_for(9);
        m.cancel_for(10);
        m.tick(10_000, &mut log);
        assert!(!m.l1d.contains(0x4000) && !m.l1d.contains(0x8000));
        assert!(!m.has_parked(9));
    }

    #[test]
    fn drain_lands_inflight_but_not_stalled_requests() {
        // The UV2 manifestation: a request that acquired its MSHR before
        // EXIT drains and lands; one still stalled waiting for an MSHR
        // never starts and its line stays absent.
        let (mut m, mut log) = memsys(1);
        let a = m.request(0, 0x4000, false, true, 0, FillMode::Fill, &mut log);
        // Second request needs the only MSHR; it only *starts* after `a`
        // completes.
        let b = m.request(1, 0x8000, false, true, 1, FillMode::Fill, &mut log);
        assert!(b.mshr_stalled);
        let exit_cycle = a.completion - 1; // before either fill applied
        m.tick(exit_cycle, &mut log);
        m.drain(exit_cycle, &mut log);
        assert!(m.l1d.contains(0x4000), "in-flight fill drains");
        assert!(!m.l1d.contains(0x8000), "stalled request never started");
    }

    #[test]
    fn next_event_tracks_fills_and_resets() {
        let (mut m, mut log) = memsys(4);
        assert_eq!(m.next_event(), u64::MAX, "empty system has no horizon");
        let out = m.request(0, 0x4000, false, true, 0, FillMode::Fill, &mut log);
        assert_eq!(m.next_event(), out.completion, "horizon is the fill");
        assert!(
            !m.tick(out.completion - 1, &mut log),
            "idle tick is a compare"
        );
        assert_eq!(m.next_event(), out.completion, "idle tick keeps it");
        assert!(m.tick(out.completion, &mut log), "fill applies on time");
        assert_eq!(m.next_event(), u64::MAX, "nothing outstanding afterwards");
        m.request(
            1,
            0x8000,
            false,
            true,
            out.completion + 1,
            FillMode::Fill,
            &mut log,
        );
        assert_ne!(m.next_event(), u64::MAX);
        m.reset_transient();
        assert_eq!(m.next_event(), u64::MAX, "reset clears the horizon");
    }

    #[test]
    fn cancel_leaves_horizon_conservative_never_late() {
        let (mut m, mut log) = memsys(4);
        let out = m.request(5, 0x4000, false, false, 0, FillMode::Fill, &mut log);
        m.cancel_for(5);
        // The cached horizon may still point at the cancelled fill (early is
        // fine — it can never be *later* than a real event), and the tick at
        // that cycle recomputes it exactly.
        assert!(m.next_event() <= out.completion);
        assert!(!m.tick(out.completion, &mut log), "nothing applies");
        assert!(!m.l1d.contains(0x4000));
    }

    #[test]
    fn writeback_extends_mshr_occupancy() {
        let mut cfg = SimConfig::default();
        cfg.l1d.ways = 1;
        cfg.mshrs = 1;
        let mut m = MemSys::new(&cfg);
        let mut log = DebugLog::new(1000);
        m.l1d.fill(0x4000, true, true); // dirty line in set 0
        let a = m.request(0, 0x8000, false, true, 0, FillMode::Fill, &mut log);
        m.tick(a.completion, &mut log); // fill applies, evicts 0x4000, wb holds MSHR
        let b = m.request(
            1,
            0xC000,
            false,
            true,
            a.completion,
            FillMode::Fill,
            &mut log,
        );
        assert!(b.mshr_stalled, "writeback keeps the MSHR busy");
    }
}
