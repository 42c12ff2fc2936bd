//! The defense hook interface.
//!
//! A secure-speculation countermeasure is a [`Defense`]: a strategy object
//! the pipeline consults at fixed points (load issue, store execute, squash),
//! plus two hold predicates that keep a speculative memory op from issuing.
//! The simulator implements the *mechanics* (invisible requests, line-fill
//! buffers, undo metadata, exposes); the defense chooses *policies* — which
//! is exactly the paper's portability argument (§5.1): porting AMuLeT to a
//! new defense means implementing a small policy module, not touching the
//! simulator.
//!
//! Concrete defenses (InvisiSpec, CleanupSpec, STT, SpecLFB) live in the
//! `amulet-defenses` crate; the insecure baseline is here because the
//! simulator's own tests need it.

use crate::memsys::FillMode;
use amulet_isa::Width;

/// Context for a load that is ready to issue.
#[derive(Debug, Clone, Copy)]
pub struct LoadCtx {
    /// ROB sequence number.
    pub seq: usize,
    /// Flat instruction index.
    pub pc: usize,
    /// Wrapped virtual address.
    pub addr: u64,
    /// Access width.
    pub width: Width,
    /// The access crosses a cache-line boundary.
    pub split: bool,
    /// The load has reached the visibility point (no older unresolved
    /// branches or stores).
    pub safe: bool,
    /// No older unsafe load is in flight — the SpecLFB `isPrevNoUnsafe`
    /// condition whose mishandling is UV6.
    pub first_unsafe_load: bool,
    /// Current cycle.
    pub cycle: u64,
}

/// Context for a store whose operands are ready (address resolution).
#[derive(Debug, Clone, Copy)]
pub struct StoreCtx {
    /// ROB sequence number.
    pub seq: usize,
    /// Flat instruction index.
    pub pc: usize,
    /// Wrapped virtual address.
    pub addr: u64,
    /// Access width.
    pub width: Width,
    /// The access crosses a cache-line boundary.
    pub split: bool,
    /// The store has reached the visibility point.
    pub safe: bool,
    /// Current cycle.
    pub cycle: u64,
}

/// What a defense decides for an issuing load.
#[derive(Debug, Clone, Copy)]
pub struct LoadPlan {
    /// How the cache access behaves.
    pub fill: FillMode,
    /// Whether address translation may install a D-TLB entry.
    pub tlb: bool,
    /// Issue an expose request when the load becomes safe (InvisiSpec).
    pub expose_at_safe: bool,
    /// Log an `LfbUnsafeFill` event if this plan fills while unsafe — the
    /// SpecLFB UV6 bug signature.
    pub flag_unsafe_fill: bool,
}

impl LoadPlan {
    /// The unprotected baseline plan: fill caches, touch the TLB.
    pub fn baseline() -> Self {
        LoadPlan {
            fill: FillMode::Fill,
            tlb: true,
            expose_at_safe: false,
            flag_unsafe_fill: false,
        }
    }
}

/// What a defense decides for an executing store.
#[derive(Debug, Clone, Copy)]
pub struct StorePlan {
    /// Whether address translation may install a D-TLB entry — the knob
    /// behind STT's KV3.
    pub tlb: bool,
    /// Execute-time write-allocate prefetch (RFO), if any — CleanupSpec's
    /// gem5 implementation performs it, which is what UV3 cleans (or
    /// doesn't).
    pub rfo: Option<FillMode>,
}

impl StorePlan {
    /// The unprotected baseline plan: translate at execute, no RFO.
    pub fn baseline() -> Self {
        StorePlan {
            tlb: true,
            rfo: None,
        }
    }
}

/// What a defense does when instructions are squashed.
#[derive(Debug, Clone, Copy)]
pub struct SquashPlan {
    /// Undo recorded fills of squashed instructions (CleanupSpec). Pending
    /// recorded fills are cancelled; applied ones are reverted.
    pub cleanup: bool,
    /// Spare lines touched by non-speculative accesses since the fill (the
    /// `noClean` mitigation the paper sketches for UV5).
    pub no_clean: bool,
    /// Cycles of pipeline stall per cleanup operation (the unXpec/KV2 timing
    /// channel).
    pub cleanup_latency_per_op: u64,
}

impl SquashPlan {
    /// No cleanup at all (baseline and most defenses).
    pub fn none() -> Self {
        SquashPlan {
            cleanup: false,
            no_clean: false,
            cleanup_latency_per_op: 0,
        }
    }
}

/// A secure-speculation countermeasure under test.
///
/// Implementations should be deterministic: the same sequence of hook calls
/// must produce the same plans.
///
/// A delay-style defense (STT's transmitter block, DelayAll) *holds* a ready
/// memory op through [`Defense::holds_load`] / [`Defense::holds_store`]
/// instead of planning it. A hold may depend only on the op's `safe` and
/// `tainted_addr` bits: the pipeline asks once when the op is ready, then
/// leaves it parked and asks again only when one of those bits changes (it
/// becomes safe, or an entry of the window untaints). A hold that read
/// anything else — defense state, the cycle, how often it was asked — would
/// never see its release.
pub trait Defense: std::fmt::Debug + Send {
    /// Display name (used in reports and tables).
    fn name(&self) -> &'static str;

    /// Whether the pipeline should compute STT-style taint for this defense.
    fn needs_taint(&self) -> bool {
        false
    }

    /// Called once per test case before execution.
    fn reset(&mut self) {}

    /// Whether a ready load (or RMW) must wait. `safe`: it reached the
    /// visibility point; `tainted_addr`: an address source is tainted
    /// (always `false` unless [`Defense::needs_taint`]). See the trait docs
    /// for when the pipeline re-asks.
    fn holds_load(&self, _safe: bool, _tainted_addr: bool) -> bool {
        false
    }

    /// Whether a ready store must wait before resolving its address, on the
    /// same inputs and re-ask rule as [`Defense::holds_load`].
    fn holds_store(&self, _safe: bool, _tainted_addr: bool) -> bool {
        false
    }

    /// Decide how a ready load issues (asked once the load is not held).
    fn plan_load(&mut self, ctx: &LoadCtx) -> LoadPlan;

    /// Decide how a ready store executes (asked once the store is not
    /// held).
    fn plan_store(&mut self, ctx: &StoreCtx) -> StorePlan;

    /// Decide squash-time behaviour.
    fn squash_plan(&self) -> SquashPlan {
        SquashPlan::none()
    }
}

/// The unprotected out-of-order baseline (the paper's "Baseline O3CPU"):
/// speculative loads fill the caches and TLB immediately and nothing is ever
/// cleaned up.
#[derive(Debug, Default, Clone, Copy)]
pub struct InsecureBaseline;

impl Defense for InsecureBaseline {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn plan_load(&mut self, _ctx: &LoadCtx) -> LoadPlan {
        LoadPlan::baseline()
    }

    fn plan_store(&mut self, _ctx: &StoreCtx) -> StorePlan {
        StorePlan::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_permissive() {
        let mut b = InsecureBaseline;
        let ctx = LoadCtx {
            seq: 0,
            pc: 0,
            addr: 0x4000,
            width: Width::Q,
            split: false,
            safe: false,
            first_unsafe_load: true,
            cycle: 0,
        };
        let plan = b.plan_load(&ctx);
        assert!(!b.holds_load(false, true) && !b.holds_store(false, true));
        assert!(plan.tlb && !plan.expose_at_safe);
        assert!(matches!(plan.fill, FillMode::Fill));
        assert!(!b.needs_taint());
        assert!(!b.squash_plan().cleanup);
    }
}
