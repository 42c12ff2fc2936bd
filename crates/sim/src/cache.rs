//! A set-associative cache model with LRU replacement and undo support.
//!
//! The cache tracks *tags only* — data always lives in the architectural
//! sandbox. That is exactly the observational power of the paper's µarch
//! trace ("a snapshot of the final cache and TLB states ... L1D-cache tags").
//! Lines carry bookkeeping needed by the defenses: a dirty bit (writebacks
//! occupy MSHRs), and a "touched by a non-speculative access" bit used by the
//! optional CleanupSpec `noClean` mitigation.

use crate::config::CacheConfig;
use amulet_util::{mix64, residency_digest};

/// One resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Line-aligned address.
    pub addr: u64,
    /// LRU stamp (higher = more recent).
    pub lru: u64,
    /// Written since fill.
    pub dirty: bool,
    /// Touched by a non-speculative (safe) access since fill.
    pub nonspec_touch: bool,
}

/// What happened on a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// The victim line evicted to make room, if the set was full.
    pub evicted: Option<Line>,
    /// `true` if the line was already present (fill became a touch).
    pub already_present: bool,
}

/// A set-associative, LRU, tag-only cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    stamp: u64,
    /// XOR of `mix64(line address)` over resident lines, maintained at
    /// every membership change — together with `resident` it yields an O(1)
    /// order-independent residency digest ([`Cache::digest`]) instead of an
    /// O(lines) walk per test case.
    zobrist: u64,
    /// Resident line count (same maintenance discipline).
    resident: usize,
    /// Set indices mutated (membership *or* LRU/flag state) since the last
    /// full or tracked restore — the sets a tracked restore must copy.
    touched: Vec<u32>,
    /// Per-set membership flag for `touched` (push-once).
    touched_mark: Vec<bool>,
    /// Identity of the image the tracking baseline refers to (its
    /// `(zobrist, stamp)`); `None` when no baseline exists (fresh cache,
    /// flushed, or never restored) and the next tracked restore must copy
    /// everything.
    baseline: Option<(u64, u64)>,
    /// Every set outside `touched` is empty — true from creation or a
    /// flush until the next restore — so a flush in between clears only
    /// the touched sets instead of walking all of them.
    empty_untouched: bool,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size or the set count is not a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.sets.is_power_of_two(),
            "cache line size and set count must be powers of two"
        );
        Cache {
            sets: vec![Vec::with_capacity(cfg.ways); cfg.sets],
            cfg,
            stamp: 0,
            zobrist: 0,
            resident: 0,
            touched: Vec::new(),
            touched_mark: vec![false; cfg.sets],
            baseline: None,
            empty_untouched: true,
        }
    }

    #[inline]
    fn mark_touched(&mut self, set: usize) {
        if !self.touched_mark[set] {
            self.touched_mark[set] = true;
            self.touched.push(set as u32);
        }
    }

    fn clear_touched(&mut self) {
        for &set in &self.touched {
            self.touched_mark[set as usize] = false;
        }
        self.touched.clear();
    }

    #[inline]
    fn note_insert(&mut self, line_addr: u64) {
        self.zobrist ^= mix64(line_addr);
        self.resident += 1;
    }

    #[inline]
    fn note_remove(&mut self, line_addr: u64) {
        self.zobrist ^= mix64(line_addr);
        self.resident -= 1;
    }

    /// O(1) order-independent digest of the resident-line set, domain
    /// separated by `section` — equal for equal residency sets regardless of
    /// storage order or access history (the incremental form of the
    /// simulator's set digests; equivalence with a recomputed fold is
    /// asserted by tests).
    pub fn digest(&self, section: u64) -> u64 {
        residency_digest(self.zobrist, self.resident as u64, section)
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Whether `addr`'s line is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.cfg.line_of(addr);
        self.sets[self.cfg.set_of(addr)]
            .iter()
            .any(|l| l.addr == line)
    }

    /// Whether the set containing `addr` has a free way.
    pub fn set_has_room(&self, addr: u64) -> bool {
        self.sets[self.cfg.set_of(addr)].len() < self.cfg.ways
    }

    /// Touches a resident line (LRU update + flags). Returns `true` on hit.
    pub fn touch(&mut self, addr: u64, write: bool, nonspec: bool) -> bool {
        let line_addr = self.cfg.line_of(addr);
        let set = self.cfg.set_of(addr);
        let stamp = self.next_stamp();
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.addr == line_addr) {
            l.lru = stamp;
            l.dirty |= write;
            l.nonspec_touch |= nonspec;
            self.mark_touched(set);
            true
        } else {
            false
        }
    }

    /// Probes without updating any state. Returns `true` on hit.
    pub fn probe(&self, addr: u64) -> bool {
        self.contains(addr)
    }

    /// Fills `addr`'s line, evicting the LRU victim if the set is full.
    pub fn fill(&mut self, addr: u64, write: bool, nonspec: bool) -> FillOutcome {
        let line_addr = self.cfg.line_of(addr);
        if self.touch(addr, write, nonspec) {
            return FillOutcome {
                evicted: None,
                already_present: true,
            };
        }
        let set = self.cfg.set_of(addr);
        let evicted = if self.sets[set].len() >= self.cfg.ways {
            Some(self.evict_lru(set))
        } else {
            None
        };
        let stamp = self.next_stamp();
        self.sets[set].push(Line {
            addr: line_addr,
            lru: stamp,
            dirty: write,
            nonspec_touch: nonspec,
        });
        self.note_insert(line_addr);
        self.mark_touched(set);
        FillOutcome {
            evicted,
            already_present: false,
        }
    }

    fn evict_lru(&mut self, set: usize) -> Line {
        let (idx, _) = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .expect("evict_lru called on empty set");
        let line = self.sets[set].swap_remove(idx);
        self.note_remove(line.addr);
        self.mark_touched(set);
        line
    }

    /// Evicts the LRU victim of `addr`'s set without installing anything —
    /// the InvisiSpec UV1 bug behaviour (replacement triggered by a
    /// speculative load that itself stays invisible).
    pub fn evict_victim_of(&mut self, addr: u64) -> Option<Line> {
        let set = self.cfg.set_of(addr);
        if self.sets[set].is_empty() {
            None
        } else {
            Some(self.evict_lru(set))
        }
    }

    /// Invalidates `addr`'s line if resident (CleanupSpec undo). Returns the
    /// removed line.
    pub fn invalidate(&mut self, addr: u64) -> Option<Line> {
        let line_addr = self.cfg.line_of(addr);
        let set = self.cfg.set_of(addr);
        let idx = self.sets[set].iter().position(|l| l.addr == line_addr)?;
        let line = self.sets[set].swap_remove(idx);
        self.note_remove(line.addr);
        self.mark_touched(set);
        Some(line)
    }

    /// Reinstates an evicted line at LRU position (CleanupSpec undo of an
    /// eviction). No-op if the set is full or the line is already present.
    pub fn restore(&mut self, line: Line) -> bool {
        let set = self.cfg.set_of(line.addr);
        if self.sets[set].len() >= self.cfg.ways
            || self.sets[set].iter().any(|l| l.addr == line.addr)
        {
            return false;
        }
        // Insert with the *oldest* stamp so the restored line is the next
        // victim, approximating "put back where it was".
        let min = self.sets[set].iter().map(|l| l.lru).min().unwrap_or(1);
        self.sets[set].push(Line {
            lru: min.saturating_sub(1),
            ..line
        });
        self.note_insert(line.addr);
        self.mark_touched(set);
        true
    }

    /// The nonspec-touch flag of a resident line.
    pub fn nonspec_touched(&self, addr: u64) -> bool {
        let line_addr = self.cfg.line_of(addr);
        self.sets[self.cfg.set_of(addr)]
            .iter()
            .find(|l| l.addr == line_addr)
            .is_some_and(|l| l.nonspec_touch)
    }

    /// Restores this cache's contents (lines and LRU clock) from another
    /// cache of identical geometry, reusing this cache's set allocations —
    /// the per-test-case prefill fast path.
    ///
    /// # Panics
    ///
    /// Panics if the set counts differ.
    pub fn restore_from(&mut self, other: &Cache) {
        assert_eq!(self.sets.len(), other.sets.len(), "cache geometry mismatch");
        for (dst, src) in self.sets.iter_mut().zip(&other.sets) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        self.stamp = other.stamp;
        self.zobrist = other.zobrist;
        self.resident = other.resident;
        self.clear_touched();
        self.baseline = Some((other.zobrist, other.stamp));
        self.empty_untouched = false;
    }

    /// [`Cache::restore_from`] that only copies the sets mutated since the
    /// previous restore from the *same* image — the per-test-case prefill
    /// fast path. Every [`Cache`] mutator records its set in `touched`, and
    /// a flush (or a restore from a different image, detected by the
    /// image's `(zobrist, stamp)` identity) voids the baseline, so the
    /// result is always exactly `other`'s contents; only the copying is
    /// incremental.
    ///
    /// # Panics
    ///
    /// Panics if the set counts differ.
    pub fn restore_tracked_from(&mut self, other: &Cache) {
        if self.baseline != Some((other.zobrist, other.stamp)) {
            self.restore_from(other);
            return;
        }
        assert_eq!(self.sets.len(), other.sets.len(), "cache geometry mismatch");
        for i in 0..self.touched.len() {
            let set = self.touched[i] as usize;
            self.sets[set].clear();
            self.sets[set].extend_from_slice(&other.sets[set]);
        }
        self.stamp = other.stamp;
        self.zobrist = other.zobrist;
        self.resident = other.resident;
        self.clear_touched();
        self.empty_untouched = false;
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        if self.empty_untouched {
            for &set in &self.touched {
                self.sets[set as usize].clear();
            }
        } else {
            for set in &mut self.sets {
                set.clear();
            }
        }
        self.zobrist = 0;
        self.resident = 0;
        self.clear_touched();
        self.baseline = None;
        self.empty_untouched = true;
    }

    /// Sorted list of resident line addresses — the µarch-trace snapshot.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.iter_lines().collect();
        v.sort_unstable();
        v
    }

    /// Iterates resident line addresses in arbitrary order without
    /// allocating — the digest hot path. Line addresses are unique, so an
    /// order-independent digest over this iterator equals one over
    /// [`Cache::snapshot`].
    pub fn iter_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.sets.iter().flatten().map(|l| l.addr)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn fill_and_hit() {
        let mut c = small();
        let out = c.fill(0x1000, false, true);
        assert!(out.evicted.is_none() && !out.already_present);
        assert!(c.contains(0x1000));
        assert!(c.contains(0x103F), "same line");
        assert!(!c.contains(0x1040), "next line (other set)");
        assert!(c.touch(0x1000, false, false));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 lines: addresses with bit 6 clear.
        c.fill(0x0000, false, true);
        c.fill(0x0080, false, true);
        // Touch 0x0000 so 0x0080 is LRU.
        c.touch(0x0000, false, true);
        let out = c.fill(0x0100, false, true);
        assert_eq!(out.evicted.unwrap().addr, 0x0080);
        assert!(c.contains(0x0000) && c.contains(0x0100));
    }

    #[test]
    fn fill_present_line_is_touch() {
        let mut c = small();
        c.fill(0x0000, false, true);
        let out = c.fill(0x0000, true, false);
        assert!(out.already_present);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn buggy_eviction_without_install() {
        let mut c = small();
        c.fill(0x0000, false, true);
        c.fill(0x0080, false, true);
        let v = c.evict_victim_of(0x0100).unwrap();
        assert_eq!(v.addr, 0x0000, "LRU victim evicted");
        assert!(!c.contains(0x0100), "nothing installed");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_and_restore_roundtrip() {
        let mut c = small();
        c.fill(0x0000, false, true);
        c.fill(0x0080, false, true);
        let out = c.fill(0x0100, false, false); // evicts 0x0000
        let victim = out.evicted.unwrap();
        // CleanupSpec undo: remove the speculative install, restore victim.
        assert!(c.invalidate(0x0100).is_some());
        assert!(c.restore(victim));
        assert!(c.contains(0x0000) && c.contains(0x0080));
        assert!(!c.contains(0x0100));
    }

    #[test]
    fn restore_refuses_full_set_or_duplicate() {
        let mut c = small();
        c.fill(0x0000, false, true);
        c.fill(0x0080, false, true);
        let dup = Line {
            addr: 0x0000,
            lru: 0,
            dirty: false,
            nonspec_touch: false,
        };
        assert!(!c.restore(dup), "already present");
        let other = Line {
            addr: 0x0100,
            lru: 0,
            dirty: false,
            nonspec_touch: false,
        };
        assert!(!c.restore(other), "set full");
    }

    #[test]
    fn restored_line_is_next_victim() {
        let mut c = small();
        c.fill(0x0000, false, true);
        c.fill(0x0080, false, true);
        let v = c.invalidate(0x0000).unwrap();
        c.restore(v);
        let out = c.fill(0x0100, false, true);
        assert_eq!(out.evicted.unwrap().addr, 0x0000);
    }

    /// A tracked restore must leave the cache indistinguishable from a full
    /// `restore_from` — residency, digest, and future eviction decisions —
    /// after arbitrary interleavings of touches, fills, evictions, undo
    /// invalidate/restore, and flushes.
    #[test]
    fn tracked_restore_equals_full_restore() {
        let image = {
            let mut c = small();
            c.fill(0x0000, false, true);
            c.fill(0x0080, true, false);
            c.fill(0x0040, false, true);
            c
        };
        let mut tracked = small();
        let mut full = small();
        tracked.restore_tracked_from(&image); // no baseline: full copy
        full.restore_from(&image);
        let agree = |a: &Cache, b: &Cache| {
            assert_eq!(a.snapshot(), b.snapshot());
            assert_eq!(a.digest(7), b.digest(7));
            assert_eq!(a.len(), b.len());
        };
        agree(&tracked, &full);
        // Mutate both identically, then restore both ways again.
        for c in [&mut tracked, &mut full] {
            c.touch(0x0000, true, false);
            c.fill(0x0100, false, false); // evicts in set 0
            c.invalidate(0x0080);
            let v = Line {
                addr: 0x0080,
                lru: 0,
                dirty: true,
                nonspec_touch: false,
            };
            c.restore(v);
        }
        tracked.restore_tracked_from(&image); // baseline valid: touched sets only
        full.restore_from(&image);
        agree(&tracked, &full);
        // Same subsequent eviction decisions (LRU state restored too).
        let vt = tracked.fill(0x0100, false, true).evicted.unwrap();
        let vf = full.fill(0x0100, false, true).evicted.unwrap();
        assert_eq!(vt, vf);
        // A flush voids the baseline; the next tracked restore still lands
        // on the image exactly.
        tracked.flush();
        tracked.restore_tracked_from(&image);
        full.flush();
        full.restore_from(&image);
        agree(&tracked, &full);
    }

    #[test]
    fn snapshot_sorted() {
        let mut c = small();
        c.fill(0x0100, false, true);
        c.fill(0x0000, false, true);
        c.fill(0x0040, false, true);
        assert_eq!(c.snapshot(), vec![0x0000, 0x0040, 0x0100]);
        c.flush();
        assert!(c.is_empty());
    }

    /// A flush after a flush clears only the touched sets; after a restore
    /// it must clear everything. Either way nothing stays resident.
    #[test]
    fn flush_leaves_no_line_behind() {
        let mut image = small();
        image.fill(0x0000, false, true);
        image.fill(0x0040, false, true);
        let mut c = small();
        c.fill(0x0100, false, true);
        c.flush();
        c.fill(0x0040, true, true);
        c.flush();
        assert_eq!(c.iter_lines().count(), 0);
        c.restore_from(&image);
        c.fill(0x0180, false, true);
        c.flush();
        assert_eq!(
            c.iter_lines().count(),
            0,
            "restored lines outside the touched sets"
        );
        c.restore_tracked_from(&image);
        c.flush();
        assert_eq!(c.iter_lines().count(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn nonspec_touch_tracking() {
        let mut c = small();
        c.fill(0x0000, false, false);
        assert!(!c.nonspec_touched(0x0000));
        c.touch(0x0000, false, true);
        assert!(c.nonspec_touched(0x0000));
    }
}
