//! STT quick-campaign smoke: the full-matrix CI smoke is dominated by
//! CT-SEQ defenses on 1-page sandboxes, so the STT/ARCH-SEQ path — the
//! 128-page taint-boosting pipeline this crate's sparse taint engine was
//! built for — gets its own fast regression gate here.
//!
//! The fingerprint below is the recorded value for this campaign shape
//! (seed 2025, 2 instances × 3 programs × 28 inputs, batch size 2). It
//! covers the config identity, every detector counter and every confirmed
//! violation, so any unintended change to the taint engine, input boosting,
//! executor reuse or the sharded reducer shows up as a mismatch — at every
//! worker count.

use amulet::contracts::ContractKind;
use amulet::defenses::DefenseKind;
use amulet::fuzz::{Campaign, CampaignConfig, ShardConfig};

/// Recorded fingerprint of the smoke shape (see module docs). Equal before
/// and after the sparse-taint/executor-reuse rewrite of PR 3: the campaign
/// is violation-free and its counters are mutation-scheme-invariant.
const RECORDED_FINGERPRINT: u64 = 0x2a67ad9ecd4a0f14;

fn smoke_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(DefenseKind::Stt, ContractKind::ArchSeq);
    cfg.programs_per_instance = 3;
    cfg
}

#[test]
fn stt_quick_campaign_matches_recorded_fingerprint_at_any_worker_count() {
    for workers in [1usize, 2, 4] {
        let report = Campaign::new(smoke_config()).run_sharded(ShardConfig {
            workers,
            batch_programs: 2,
        });
        assert_eq!(
            report.fingerprint(),
            RECORDED_FINGERPRINT,
            "STT smoke fingerprint drifted at {workers} workers \
             (stats: {:?}) — if this change to detection is intentional, \
             re-record the constant",
            report.stats
        );
        assert_eq!(report.stats.cases, smoke_config().total_cases());
        assert!(
            !report.violation_found(),
            "published STT holds ARCH-SEQ on the smoke shape: {:?}",
            report.stats
        );
    }
}
