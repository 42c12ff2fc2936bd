//! Batched campaigns: the batch plan, the batch runner and the reducer
//! every scheduling path shares.
//!
//! [`Campaign::run`](crate::Campaign::run) parallelises across campaign
//! *instances* — at most `cfg.instances` threads, which leaves a many-core
//! box idle for the paper's quick shapes (2 instances) and ties parallelism
//! to a semantic knob. Batched campaigns decouple the two:
//!
//! - Each instance's program stream is split into fixed-size **batches**
//!   ([`ShardConfig::batch_programs`] programs each, [`plan_batches`]). A
//!   batch is the unit of scheduling *and* of determinism: its generator
//!   and input RNG streams are derived from `(campaign seed, instance,
//!   batch)` alone, and it runs on executor state reset to batch-fresh
//!   semantics ([`run_batch`]), so its results are identical no matter
//!   which worker runs it, in what order, how many workers exist — or
//!   **which process** they live in.
//! - One scheduler hands batches out: the [`Service`](crate::Service). It
//!   leases the plan in index order, re-issues orphaned batches first, and
//!   carries the find-first floor. In-process threads
//!   ([`Campaign::run_sharded`](crate::Campaign::run_sharded), `amulet
//!   serve`'s local workers) and worker processes (`amulet drive`, `amulet
//!   serve --connect`) are all slots leasing from it, which is why their
//!   fingerprints agree.
//! - In find-first mode ([`CampaignConfig::stop_on_first`]) a confirmed
//!   violation lowers the campaign's floor to its batch index; the service
//!   stops leasing batches beyond the earliest violating index, and the
//!   reducer discards any speculatively-completed fragment past it.
//!   Because leases go out in index order, every batch at or before the
//!   earliest hit has run to completion — the surviving prefix is exactly
//!   what a single worker would have produced.
//! - [`reduce_fragments`] merges the per-batch fragments in batch order
//!   into one [`CampaignReport`], after [`verify_fragment_coverage`] has
//!   checked that the kept prefix is complete, so
//!   [`CampaignReport::fingerprint`] is equal across worker counts and
//!   process counts.
//!
//! The batch size is part of the deterministic shape: changing
//! `batch_programs` (like changing the campaign seed) selects a different —
//! equally valid — random case stream. Worker count never does.
//!
//! # Examples
//!
//! ```no_run
//! use amulet_core::{Campaign, CampaignConfig, ShardConfig};
//! use amulet_defenses::DefenseKind;
//! use amulet_contracts::ContractKind;
//!
//! let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
//! // Same seed, same batch size → same fingerprint at any worker count.
//! let serial = Campaign::new(cfg.clone()).run_sharded(ShardConfig::with_workers(1));
//! let pooled = Campaign::new(cfg).run_sharded(ShardConfig::with_workers(8));
//! assert_eq!(serial.fingerprint(), pooled.fingerprint());
//! ```

use crate::analyze::ViolationClass;
use crate::campaign::{run_programs, CampaignConfig, CampaignReport, UnitRuntime, ViolationDigest};
use crate::corpus::Reduction;
use crate::cost::CostModel;
use crate::detect::{ScanStats, Violation};
use amulet_util::{SplitMix64, Summary, Xoshiro256};
use std::time::{Duration, Instant};

/// How a campaign is split across a worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker threads. `0` means one per available hardware thread.
    pub workers: usize,
    /// Programs per batch (the scheduling and determinism unit). Smaller
    /// batches balance load better; larger batches amortise executor
    /// construction. Clamped to at least 1.
    pub batch_programs: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 0,
            batch_programs: 4,
        }
    }
}

impl ShardConfig {
    /// A shard configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        ShardConfig {
            workers,
            ..Self::default()
        }
    }

    /// The effective worker-pool size (resolves `0` to the host's available
    /// parallelism).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One schedulable unit: a contiguous run of programs within an instance.
///
/// A batch is fully identified by its coordinates — results depend on
/// `(campaign seed, instance, batch)` and `programs` only, never on
/// scheduling — which is what makes the spec safe to serialise and ship to
/// another process (`amulet_core::proto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpec {
    /// Global batch index (reducer sort key and early-exit broadcast key).
    pub index: usize,
    /// Campaign instance this batch belongs to.
    pub instance: usize,
    /// Batch number within the instance (RNG derivation key).
    pub batch: usize,
    /// Programs in this batch (the final batch of an instance may be short).
    pub programs: usize,
    /// Whether the batch minimizes its violations into corpus records. Set
    /// only by a [`Service`](crate::Service) with a corpus; it never
    /// changes the digests or the fingerprint.
    pub records: bool,
}

/// Results of one executed batch, merged by [`reduce_fragments`] in `index`
/// order.
///
/// In-process slots carry the full [`Violation`] artefacts; fragments
/// reconstructed from the wire protocol carry only the deterministic
/// [`ViolationDigest`]s (the full artefacts stay in the worker process).
/// `digests` is always authoritative — it is what the campaign fingerprint
/// hashes. When the batch asked for records, `records` holds one
/// minimized [`Reduction`] per digest, which does cross the wire.
#[derive(Debug, Default)]
pub struct Fragment {
    /// Global batch index this fragment answers.
    pub index: usize,
    /// Full violation artefacts (empty for wire-reduced fragments).
    pub violations: Vec<(Violation, ViolationClass)>,
    /// Deterministic per-violation digests, same order as `violations`.
    pub digests: Vec<ViolationDigest>,
    /// Minimized corpus fields, one per digest (empty unless
    /// [`BatchSpec::records`] was set).
    pub records: Vec<Reduction>,
    /// Detector counters for this batch.
    pub stats: ScanStats,
    /// Time from the campaign anchor to this batch's first confirmation.
    pub first_detection: Option<Duration>,
}

/// Splits a campaign into per-instance batches of `batch_programs` programs
/// (clamped to at least 1). Global indices are dense and ordered — the
/// reducer sort key and the find-first broadcast key.
pub fn plan_batches(cfg: &CampaignConfig, batch_programs: usize) -> Vec<BatchSpec> {
    let per_batch = batch_programs.max(1);
    let mut out = Vec::new();
    for instance in 0..cfg.instances {
        let mut remaining = cfg.programs_per_instance;
        let mut batch = 0;
        while remaining > 0 {
            let programs = remaining.min(per_batch);
            out.push(BatchSpec {
                index: out.len(),
                instance,
                batch,
                programs,
                records: false,
            });
            remaining -= programs;
            batch += 1;
        }
    }
    out
}

/// The seed of a batch's RNG stream, derived from the campaign seed and the
/// batch coordinates only — never from scheduling. A SplitMix64 finaliser
/// over golden-ratio-scrambled coordinates keeps neighbouring `(instance,
/// batch)` pairs statistically independent.
fn batch_seed(campaign_seed: u64, instance: usize, batch: usize) -> u64 {
    let mixed = campaign_seed
        ^ (instance as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (batch as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    SplitMix64::new(mixed).next_u64()
}

/// Runs one batch with its own derived RNG streams, through the same
/// per-program scan loop as [`Campaign::run`](crate::Campaign::run). `anchor`
/// ties detection times to the campaign start, so the reducer's min over
/// batches is the true wall-clock time until the campaign first confirmed a
/// violation (a per-batch time would measure schedule position instead; in
/// a multi-process run each worker anchors to its own start, which only
/// shifts the *value* — the fingerprint covers presence, not timing).
///
/// `rt` is the calling worker's persistent [`UnitRuntime`]: the executor
/// and scratch buffers are *reused* across every batch the worker runs, and
/// reset to batch-fresh semantics inside the scan loop — so results stay
/// independent of which worker (thread **or process**) ran the batch.
///
/// With [`BatchSpec::records`] set, the batch then minimizes each of its
/// violations on the same runtime, so the corpus fields travel with the
/// digests wherever the fragment goes.
pub fn run_batch(
    cfg: &CampaignConfig,
    spec: &BatchSpec,
    anchor: Instant,
    rt: &mut UnitRuntime,
) -> Fragment {
    let mut rng = Xoshiro256::seed_from_u64(batch_seed(cfg.seed, spec.instance, spec.batch));
    let scan = run_programs(cfg, &mut rng, spec.programs, anchor, rt);
    let digests = scan
        .violations
        .iter()
        .map(|(v, c)| ViolationDigest::of(v, *c))
        .collect();
    let records = if spec.records {
        rt.reductions(cfg, &scan.violations)
    } else {
        Vec::new()
    };
    Fragment {
        index: spec.index,
        violations: scan.violations,
        digests,
        records,
        stats: scan.stats,
        first_detection: scan.first_detection,
    }
}

/// Verifies that a set of fragments covers the reduced plan exactly: every
/// batch index the reducer will keep (`0..total_batches`, or `0..=hit` in
/// find-first mode) is present exactly once, and no index appears twice.
///
/// The [`Service`](crate::Service) calls this before reducing every
/// campaign — in-process or fleet, where batches are re-run after crashes,
/// re-assigned after quarantines, and adopted by surviving workers — so a
/// scheduling bug under churn becomes a loud campaign error instead of a
/// silently wrong (but plausible-looking) fingerprint.
pub fn verify_fragment_coverage(
    cfg: &CampaignConfig,
    fragments: &[Fragment],
    earliest_hit: Option<usize>,
    total_batches: usize,
) -> Result<(), String> {
    let kept_end = match (cfg.stop_on_first, earliest_hit) {
        (true, Some(hit)) => total_batches.min(hit + 1),
        _ => total_batches,
    };
    let mut seen = vec![false; total_batches];
    for frag in fragments {
        if frag.index >= total_batches {
            return Err(format!(
                "fragment for batch {} outside the {}-batch plan",
                frag.index, total_batches
            ));
        }
        if seen[frag.index] {
            return Err(format!("duplicate fragment for batch {}", frag.index));
        }
        seen[frag.index] = true;
    }
    let missing: Vec<String> = (0..kept_end)
        .filter(|&i| !seen[i])
        .map(|i| i.to_string())
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {kept_end} reduced batches missing (indices {})",
            missing.len(),
            missing.join(", ")
        ))
    }
}

/// The deterministic reducer behind every batched campaign (and a
/// journal's resumed prefix): sorts fragments by batch index, keeps the
/// `index <= earliest_hit` prefix when find-first trimmed the plan, and
/// folds stats / violations / digests / records / detection time into one
/// [`CampaignReport`].
///
/// Find-first cancellation can never change the reduced prefix: the
/// service leases batch indices in order, so every batch at or before the
/// earliest hit ran to completion before the campaign stopped, and
/// fragments past the hit — including `amulet worker`'s skipped-batch
/// acknowledgements — are exactly the ones dropped here.
pub fn reduce_fragments(
    cfg: CampaignConfig,
    mut fragments: Vec<Fragment>,
    earliest_hit: Option<usize>,
    wall: Duration,
) -> CampaignReport {
    fragments.sort_by_key(|r| r.index);
    if cfg.stop_on_first {
        // Keep the deterministic prefix: every batch at or before the
        // earliest hit ran to completion; anything later is a scheduling
        // artefact.
        let hit = earliest_hit.unwrap_or(usize::MAX);
        fragments.retain(|r| r.index <= hit);
    }

    let mut report = CampaignReport {
        violations: Vec::new(),
        digests: Vec::new(),
        records: Vec::new(),
        stats: ScanStats::default(),
        wall,
        detection_times: Summary::new(),
        modeled_seconds: CostModel::default().campaign_seconds(
            cfg.mode,
            cfg.programs_per_instance,
            cfg.inputs.total(),
        ),
        config: cfg,
    };
    // Detection time: one sample — the earliest confirmation across all
    // batches, i.e. the campaign's wall-clock time-to-first-violation.
    // (Per-batch samples would average schedule position, not detection
    // speed.)
    let first_hit = fragments.iter().filter_map(|r| r.first_detection).min();
    if let Some(d) = first_hit {
        report.detection_times.add(d.as_secs_f64());
    }
    for r in fragments {
        report.stats.merge(&r.stats);
        report.violations.extend(r.violations);
        report.digests.extend(r.digests);
        report.records.extend(r.records);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_contracts::ContractKind;
    use amulet_defenses::DefenseKind;

    #[test]
    fn batches_cover_every_program_exactly_once() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 3;
        cfg.programs_per_instance = 10;
        let batches = plan_batches(&cfg, 4);
        // 3 instances × ceil(10/4) = 9 batches; per instance 4+4+2 programs.
        assert_eq!(batches.len(), 9);
        for instance in 0..3 {
            let per_instance: Vec<_> = batches.iter().filter(|b| b.instance == instance).collect();
            assert_eq!(
                per_instance.iter().map(|b| b.programs).sum::<usize>(),
                cfg.programs_per_instance
            );
            assert_eq!(per_instance.last().unwrap().programs, 2);
        }
        // Global indices are dense and ordered.
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.index, i);
        }
    }

    #[test]
    fn batch_seeds_are_distinct_across_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for instance in 0..16 {
            for batch in 0..16 {
                assert!(
                    seen.insert(batch_seed(2025, instance, batch)),
                    "seed collision at ({instance}, {batch})"
                );
            }
        }
    }

    #[test]
    fn zero_batch_programs_is_clamped() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.instances = 1;
        cfg.programs_per_instance = 3;
        let batches = plan_batches(&cfg, 0);
        assert_eq!(batches.len(), 3, "batch size 0 degrades to 1");
    }

    #[test]
    fn reducer_trims_to_the_earliest_hit_prefix() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.stop_on_first = true;
        let frag = |index: usize, cases: usize| Fragment {
            index,
            stats: ScanStats {
                cases,
                ..ScanStats::default()
            },
            ..Fragment::default()
        };
        // Out-of-order arrival, with a speculatively-completed fragment (4)
        // past the hit at 2.
        let report = reduce_fragments(
            cfg,
            vec![frag(4, 100), frag(0, 1), frag(2, 10), frag(1, 2)],
            Some(2),
            Duration::ZERO,
        );
        assert_eq!(report.stats.cases, 13, "fragment 4 was discarded");
    }

    #[test]
    fn coverage_verifier_flags_missing_duplicate_and_stray_fragments() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        let frag = |index: usize| Fragment {
            index,
            ..Fragment::default()
        };
        // Complete plan: fine in any arrival order.
        let full = vec![frag(2), frag(0), frag(1)];
        assert!(verify_fragment_coverage(&cfg, &full, None, 3).is_ok());
        // A hole is an error, and the message names the index.
        let holed = vec![frag(0), frag(2)];
        let err = verify_fragment_coverage(&cfg, &holed, None, 3).unwrap_err();
        assert!(err.contains("indices 1"), "{err}");
        // Duplicates are an error even when every index is covered.
        let duped = vec![frag(0), frag(1), frag(1), frag(2)];
        assert!(verify_fragment_coverage(&cfg, &duped, None, 3)
            .unwrap_err()
            .contains("duplicate"));
        // An index outside the plan is an error.
        let stray = vec![frag(0), frag(5)];
        assert!(verify_fragment_coverage(&cfg, &stray, None, 3)
            .unwrap_err()
            .contains("outside"));
        // Find-first: only the prefix up to the hit must be covered.
        cfg.stop_on_first = true;
        let prefix = vec![frag(0), frag(1)];
        assert!(verify_fragment_coverage(&cfg, &prefix, Some(1), 5).is_ok());
        assert!(verify_fragment_coverage(&cfg, &prefix, Some(2), 5).is_err());
    }

    #[test]
    fn sharded_quick_campaign_finds_baseline_violations() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.programs_per_instance = 20;
        let report = crate::Campaign::new(cfg).run_sharded(ShardConfig {
            workers: 2,
            batch_programs: 4,
        });
        assert!(report.violation_found(), "stats: {:?}", report.stats);
        assert_eq!(
            report.stats.cases,
            report.config.total_cases(),
            "without find-first, every planned case executes"
        );
        assert_eq!(
            report.digests.len(),
            report.violations.len(),
            "in-process fragments carry digests alongside full violations"
        );
    }
}
