//! A fully-associative, LRU data-TLB model (tags only).
//!
//! The D-TLB is part of the default µarch trace: the paper's STT finding
//! (KV3) is a tainted speculative store installing a TLB entry. Like the
//! caches, only the footprint matters, so entries are page numbers.

use amulet_util::{mix64, residency_digest};

/// Fully-associative TLB with LRU replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    page_bytes: u64,
    entries: Vec<(u64, u64)>, // (page number, lru stamp)
    stamp: u64,
    /// XOR of `mix64(page)` over resident entries — the same incremental
    /// Zobrist residency accumulator as [`crate::cache::Cache`], giving an
    /// O(1) footprint digest ([`Tlb::digest`]).
    zobrist: u64,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries for `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_bytes` is not a power of two.
    pub fn new(capacity: usize, page_bytes: u64) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            capacity,
            page_bytes,
            entries: Vec::with_capacity(capacity),
            stamp: 0,
            zobrist: 0,
        }
    }

    /// O(1) order-independent digest of the resident-page set, domain
    /// separated by `section` (see [`crate::cache::Cache::digest`]).
    pub fn digest(&self, section: u64) -> u64 {
        residency_digest(self.zobrist, self.entries.len() as u64, section)
    }

    /// The page number containing a virtual address.
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_bytes.trailing_zeros()
    }

    /// Translates `addr`, installing the page on a miss. Returns `true` on a
    /// TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = self.page_of(addr);
        self.stamp += 1;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.stamp;
            return true;
        }
        if self.entries.len() >= self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("capacity > 0");
            let (evicted, _) = self.entries.swap_remove(idx);
            self.zobrist ^= mix64(evicted);
        }
        self.entries.push((page, self.stamp));
        self.zobrist ^= mix64(page);
        false
    }

    /// Probes without installing.
    pub fn contains(&self, addr: u64) -> bool {
        let page = self.page_of(addr);
        self.entries.iter().any(|(p, _)| *p == page)
    }

    /// Removes a page if present.
    pub fn invalidate_page(&mut self, page: u64) {
        let zobrist = &mut self.zobrist;
        self.entries.retain(|(p, _)| {
            if *p == page {
                *zobrist ^= mix64(page);
                false
            } else {
                true
            }
        });
    }

    /// Drops all entries.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.zobrist = 0;
    }

    /// Sorted resident page numbers — the µarch-trace snapshot.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.iter_pages().collect();
        v.sort_unstable();
        v
    }

    /// Iterates resident page numbers in arbitrary order without allocating
    /// — the digest hot path. Pages are unique, so an order-independent
    /// digest over this iterator equals one over [`Tlb::snapshot`].
    pub fn iter_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|(p, _)| *p)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_hit() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(0x4000), "first access misses");
        assert!(t.access(0x4FFF), "same page hits");
        assert!(!t.access(0x5000), "next page misses");
        assert_eq!(t.snapshot(), vec![4, 5]);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 4096);
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // page 0 now MRU
        t.access(0x2000); // evicts page 1
        assert!(t.contains(0x0000));
        assert!(!t.contains(0x1000));
        assert!(t.contains(0x2000));
    }

    #[test]
    fn flush_and_invalidate() {
        let mut t = Tlb::new(4, 4096);
        t.access(0x0000);
        t.access(0x1000);
        t.invalidate_page(0);
        assert!(!t.contains(0x0000));
        t.flush();
        assert!(t.is_empty());
    }
}
