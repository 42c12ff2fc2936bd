//! Shard determinism: the batched orchestrator must produce
//! fingerprint-identical reports no matter how many workers run the
//! batches — scheduling is an implementation detail, the random case
//! stream is not.

use amulet::contracts::ContractKind;
use amulet::defenses::DefenseKind;
use amulet::fuzz::{Campaign, CampaignConfig, CampaignReport, ShardConfig, SpecSource};

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

fn run_with_workers(cfg: &CampaignConfig, workers: usize) -> CampaignReport {
    Campaign::new(cfg.clone()).run_sharded(ShardConfig {
        workers,
        batch_programs: 3,
    })
}

/// Full campaign (no early exit): identical fingerprints at 1, 4 and 8
/// workers, and the fingerprint covers real findings.
#[test]
fn sharded_reports_are_fingerprint_equal_across_worker_counts() {
    let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    cfg.programs_per_instance = 15;
    let reports: Vec<CampaignReport> = WORKER_COUNTS
        .iter()
        .map(|&w| run_with_workers(&cfg, w))
        .collect();
    assert!(
        reports[0].violation_found(),
        "quick baseline campaign finds violations ({:?})",
        reports[0].stats
    );
    for (r, &w) in reports.iter().zip(&WORKER_COUNTS) {
        assert_eq!(
            r.fingerprint(),
            reports[0].fingerprint(),
            "fingerprint diverged at {w} workers: {:?} vs {:?}",
            r.stats,
            reports[0].stats
        );
        assert_eq!(r.stats, reports[0].stats);
        assert_eq!(r.violations.len(), reports[0].violations.len());
    }
}

/// A violation-free defense also reduces identically (the all-batches path,
/// no find-first trimming involved).
#[test]
fn sharded_clean_campaign_is_deterministic_too() {
    let cfg = CampaignConfig::quick(DefenseKind::GhostMinion, ContractKind::CtSeq);
    let reports: Vec<CampaignReport> = WORKER_COUNTS
        .iter()
        .map(|&w| run_with_workers(&cfg, w))
        .collect();
    assert!(!reports[0].violation_found());
    assert_eq!(reports[0].stats.cases, cfg.total_cases());
    for r in &reports {
        assert_eq!(r.fingerprint(), reports[0].fingerprint());
    }
}

/// Find-first mode: the early-exit broadcast may skip *later* batches, but
/// every worker count must agree on the first violating batch — same
/// fingerprint, same first violation class.
#[test]
fn find_first_reports_the_same_first_violation_at_any_worker_count() {
    let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    cfg.programs_per_instance = 15;
    cfg.stop_on_first = true;
    let reports: Vec<CampaignReport> = WORKER_COUNTS
        .iter()
        .map(|&w| run_with_workers(&cfg, w))
        .collect();
    let first_class = reports[0].violations.first().map(|(_, c)| *c);
    assert!(
        first_class.is_some(),
        "find-first must confirm a violation ({:?})",
        reports[0].stats
    );
    for (r, &w) in reports.iter().zip(&WORKER_COUNTS) {
        assert_eq!(
            r.violations.first().map(|(_, c)| *c),
            first_class,
            "first violation class diverged at {w} workers"
        );
        assert_eq!(
            r.fingerprint(),
            reports[0].fingerprint(),
            "find-first fingerprint diverged at {w} workers"
        );
        assert!(
            r.stats.cases <= cfg.total_cases(),
            "early exit never runs more than the plan"
        );
    }
}

/// The second speculation source rides the same invariance: an STL campaign
/// (store-bypass gadgets, disambiguation window armed) reduces to one
/// fingerprint at every worker count, and actually finds the leak.
#[test]
fn stl_campaigns_are_fingerprint_equal_across_worker_counts() {
    let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq)
        .with_source(SpecSource::Stl);
    let reports: Vec<CampaignReport> = WORKER_COUNTS
        .iter()
        .map(|&w| run_with_workers(&cfg, w))
        .collect();
    assert!(
        reports[0].violation_found(),
        "quick baseline STL campaign finds violations ({:?})",
        reports[0].stats
    );
    for (r, &w) in reports.iter().zip(&WORKER_COUNTS) {
        assert_eq!(
            r.fingerprint(),
            reports[0].fingerprint(),
            "STL fingerprint diverged at {w} workers"
        );
        assert_eq!(r.stats, reports[0].stats);
    }
}

/// The sharded orchestrator is a different (deterministic) case stream than
/// the instance-parallel one — but both must agree on the big picture for
/// an insecure target: the baseline leaks either way.
#[test]
fn sharded_and_instance_parallel_agree_on_baseline_insecurity() {
    let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    cfg.programs_per_instance = 20;
    let instance = Campaign::new(cfg.clone()).run();
    let sharded = Campaign::new(cfg).run_sharded(ShardConfig {
        workers: 2,
        batch_programs: 4,
    });
    assert!(instance.violation_found());
    assert!(sharded.violation_found());
}

/// A batch that panics fails the campaign with the batch's panic message:
/// every slot refuses the campaign in turn, the degradation floor ends
/// it, and `run_sharded` re-raises the error on the caller's thread.
#[test]
#[should_panic(expected = "PHT entries must be a power of two")]
fn a_panicking_batch_fails_the_campaign_with_its_message() {
    let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    cfg.sim.bp_entries = 3;
    Campaign::new(cfg).run_sharded(ShardConfig {
        workers: 2,
        batch_programs: 3,
    });
}
