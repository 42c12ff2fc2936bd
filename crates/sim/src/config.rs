//! Simulator configuration.
//!
//! Every structural parameter the paper varies (cache ways, MSHR count, …)
//! is a field here, so *leakage amplification* (§3.4) is just a config edit —
//! no changes to the simulator or the defense under test.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access (hit) latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// The line-aligned address containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// The set index for `addr`.
    pub fn set_of(&self, addr: u64) -> usize {
        // `line_bytes` and `sets` are powers of two (`Cache::new` checks).
        ((addr >> self.line_bytes.trailing_zeros()) as usize) & (self.sets - 1)
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// L1 data cache (default: 32 KiB, 8-way, 64 B lines — the paper's
    /// "64 x 8 addresses for an 8-way, 32KB L1 cache").
    pub l1d: CacheConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// Number of L1D miss-status holding registers. The paper amplifies
    /// leakage by reducing this from 256 to 2 (Table 6).
    pub mshrs: usize,
    /// Whether an eviction's writeback occupies an MSHR slot (Table 7 shows
    /// replacement entries in the MSHRs).
    pub writeback_mshr: bool,
    /// Writeback MSHR occupancy in cycles.
    pub writeback_latency: u64,
    /// Data-TLB entry count (fully associative, LRU).
    pub dtlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,

    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Cycles from branch resolution to fetching the correct path.
    pub redirect_penalty: u64,
    /// Store-to-load forwarding latency in cycles.
    pub forward_latency: u64,
    /// Branch-predictor pattern-history-table entries (power of two).
    pub bp_entries: usize,
    /// Global-history bits used by gshare.
    pub ghr_bits: u32,
    /// Hard cycle cap (safety net; a test case hitting it is aborted).
    pub max_cycles: u64,
    /// Hard cap on fetched instructions (safety net for runaway loops).
    pub max_fetched: usize,
    /// Event-driven cycle scheduling: when a cycle is provably inert the
    /// simulator warps straight to the next event horizon instead of
    /// stepping through it. Results are bit-identical either way; this
    /// escape hatch exists so stepped and warped runs can be differentially
    /// tested (`tests/cycle_warp.rs` and the CI smoke diff).
    pub cycle_skip: bool,

    /// Store-disambiguation delay in cycles: how long a store's address
    /// stays *unresolved* after its address operands are ready. A younger
    /// load may bypass any older store whose address is unresolved: at
    /// every window, `0` included, the memory-dependence predictor allows
    /// that bypass unless an earlier memory-order squash of the same load
    /// trained it to wait. A mis-forwarding is squashed when the address
    /// resolves. The window only widens the bypass the predictor allows. `0` (the default) resolves a store's
    /// address as soon as its operands are ready, bit-identical to the
    /// pre-STL simulator (the same escape-hatch pattern as `cycle_skip`);
    /// it does not rule store-to-load misspeculation out.
    pub stl_window: u64,

    /// Sandbox base virtual address (must match the leakage model).
    pub sandbox_base: u64,
    /// Sandbox size in bytes (power of two).
    pub sandbox_size: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            l1d: CacheConfig {
                sets: 64,
                ways: 8,
                line_bytes: 64,
                hit_latency: 2,
            },
            l1i: CacheConfig {
                sets: 64,
                ways: 4,
                line_bytes: 64,
                hit_latency: 1,
            },
            l2: CacheConfig {
                sets: 512,
                ways: 8,
                line_bytes: 64,
                hit_latency: 12,
            },
            mem_latency: 80,
            mshrs: 256,
            writeback_mshr: true,
            writeback_latency: 6,
            dtlb_entries: 64,
            page_bytes: 4096,
            rob_size: 64,
            fetch_width: 2,
            commit_width: 2,
            redirect_penalty: 2,
            forward_latency: 1,
            bp_entries: 1024,
            ghr_bits: 8,
            max_cycles: 200_000,
            max_fetched: 100_000,
            cycle_skip: true,
            stl_window: 0,
            sandbox_base: 0x4000,
            sandbox_size: 4096,
        }
    }
}

impl SimConfig {
    /// The paper's amplification configuration (§4.5.1, Table 6): reduce the
    /// L1D to `ways` ways and `mshrs` MSHRs.
    pub fn amplified(mut self, ways: usize, mshrs: usize) -> Self {
        self.l1d.ways = ways;
        self.mshrs = mshrs;
        self
    }

    /// Sets the sandbox to `pages` 4 KiB pages.
    pub fn with_sandbox_pages(mut self, pages: usize) -> Self {
        self.sandbox_size = pages * self.page_bytes as usize;
        self
    }

    /// Enables or disables event-driven cycle scheduling (see
    /// [`SimConfig::cycle_skip`]).
    pub fn with_cycle_skip(mut self, on: bool) -> Self {
        self.cycle_skip = on;
        self
    }

    /// Sets the store-disambiguation window (see [`SimConfig::stl_window`]).
    /// Non-zero enables Spectre-STL-style memory-dependence misspeculation.
    pub fn with_stl_window(mut self, cycles: u64) -> Self {
        self.stl_window = cycles;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_l1d() {
        let c = SimConfig::default();
        assert_eq!(c.l1d.capacity(), 32 * 1024, "32 KiB L1D");
        assert_eq!(c.l1d.sets, 64);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.mshrs, 256);
    }

    #[test]
    fn line_and_set_math() {
        let c = SimConfig::default().l1d;
        assert_eq!(c.line_of(0x4041), 0x4040);
        assert_eq!(c.set_of(0x4040), 1);
        assert_eq!(c.set_of(0x4040 + 64 * 64), 1, "wraps modulo sets");
        assert_eq!(c.set_of(0x4000), 0);
    }

    #[test]
    fn amplified_reduces_structures() {
        let c = SimConfig::default().amplified(2, 2);
        assert_eq!(c.l1d.ways, 2);
        assert_eq!(c.mshrs, 2);
    }

    #[test]
    fn cycle_skip_defaults_on_with_escape_hatch() {
        let c = SimConfig::default();
        assert!(c.cycle_skip, "event-driven scheduling is the default");
        assert!(!c.with_cycle_skip(false).cycle_skip);
    }

    #[test]
    fn stl_window_defaults_off_with_builder() {
        let c = SimConfig::default();
        assert_eq!(c.stl_window, 0, "stores disambiguate immediately");
        assert_eq!(c.with_stl_window(180).stl_window, 180);
    }

    #[test]
    fn sandbox_pages_helper() {
        let c = SimConfig::default().with_sandbox_pages(128);
        assert_eq!(c.sandbox_size, 128 * 4096);
    }
}
