//! Stepped vs warped differential — the oracle for the event-driven
//! time-warp cycle scheduler.
//!
//! `SimConfig::cycle_skip` switches the simulator between stepping every
//! cycle and warping over provably inert spans. The two loops must be
//! *bit-identical* in everything the timing model defines: per-case
//! `SimResult`s (modulo the `warped_cycles` accounting field), trace
//! digests, and whole-campaign `CampaignReport::fingerprint()`s across
//! every defense × contract of the quick matrix and across worker counts.
//! Unlike RNG-stream changes, nothing here is allowed to shift the case
//! stream at all.

use amulet::contracts::ContractKind;
use amulet::defenses::DefenseKind;
use amulet::fuzz::{
    boosted_inputs, Campaign, CampaignConfig, CampaignReport, Executor, ExecutorConfig, Generator,
    GeneratorConfig, InputGenConfig, ShardConfig,
};
use amulet::util::Xoshiro256;

fn quick_cfg(defense: DefenseKind, contract: ContractKind, cycle_skip: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(defense, contract);
    cfg.sim.cycle_skip = cycle_skip;
    cfg
}

/// Asserts a warped report and a stepped report agree on everything except
/// the warp accounting itself.
fn assert_reports_agree(warped: &CampaignReport, stepped: &CampaignReport, what: &str) {
    assert_eq!(
        warped.fingerprint(),
        stepped.fingerprint(),
        "{what}: fingerprint diverged (warped {:?} vs stepped {:?})",
        warped.stats,
        stepped.stats
    );
    assert_eq!(warped.stats.cases, stepped.stats.cases, "{what}: cases");
    assert_eq!(
        warped.stats.classes, stepped.stats.classes,
        "{what}: classes"
    );
    assert_eq!(
        warped.stats.candidates, stepped.stats.candidates,
        "{what}: candidates"
    );
    assert_eq!(
        warped.stats.confirmed, stepped.stats.confirmed,
        "{what}: confirmed"
    );
    assert_eq!(
        warped.stats.sim_cycles, stepped.stats.sim_cycles,
        "{what}: simulated cycles must not depend on the scheduler"
    );
    assert_eq!(
        stepped.stats.warped_cycles, 0,
        "{what}: the stepped loop never warps"
    );
}

/// Per-case differential across every defense: same seeded programs and
/// boosted inputs through a warped and a stepped executor; every case must
/// agree on its trace digest and its `SimResult` timing fields.
#[test]
fn per_case_results_and_digests_are_identical_across_all_defenses() {
    for defense in DefenseKind::ALL {
        let pages = defense.harness_hints().sandbox_pages;
        let contract = ContractKind::CtSeq;
        let model = amulet::contracts::LeakageModel::new(contract);
        let mut generator = Generator::new(
            GeneratorConfig {
                pages,
                ..GeneratorConfig::default()
            },
            41,
        );
        let mut rng = Xoshiro256::seed_from_u64(42);
        let input_cfg = InputGenConfig {
            base_inputs: 3,
            mutations: 4,
            pages,
        };

        let mut warped = Executor::new(ExecutorConfig::new(defense));
        let mut stepped = Executor::new(ExecutorConfig {
            sim: warped.config().sim.clone().with_cycle_skip(false),
            ..ExecutorConfig::new(defense)
        });
        assert!(warped.config().sim.cycle_skip);
        assert!(!stepped.config().sim.cycle_skip);

        let mut total_warped_cycles = 0u64;
        for _ in 0..4 {
            let flat = generator.program().flatten_shared();
            for input in boosted_inputs(&model, &flat, &input_cfg, &mut rng) {
                let w = warped.run_case(&flat, &input);
                let s = stepped.run_case(&flat, &input);
                assert_eq!(
                    w.digest,
                    s.digest,
                    "{}: trace digest diverged ({:?} vs {:?})",
                    defense.name(),
                    w.result,
                    s.result
                );
                assert!(
                    w.result.agrees_with(&s.result),
                    "{}: SimResult diverged ({:?} vs {:?})",
                    defense.name(),
                    w.result,
                    s.result
                );
                assert_eq!(s.result.warped_cycles, 0, "{}", defense.name());
                total_warped_cycles += w.result.warped_cycles;
            }
        }
        assert!(
            total_warped_cycles > 0,
            "{}: the warped executor never warped — the scheduler is inert",
            defense.name()
        );
    }
}

/// Whole-campaign differential over the quick matrix: every defense ×
/// contract produces fingerprint-identical reports with cycle skipping on
/// and off (clean and violating campaigns alike). The program stream is
/// shortened to keep the 96-campaign sweep debug-build-friendly; CI
/// additionally diffs the *full* quick-shape matrix fingerprints through
/// the release CLI with and without `--no-cycle-skip`.
#[test]
fn quick_matrix_fingerprints_are_identical_with_and_without_warp() {
    let shard = ShardConfig {
        workers: 1,
        batch_programs: 4,
    };
    for defense in DefenseKind::ALL {
        for contract in ContractKind::ALL {
            let shape = |skip: bool| {
                let mut cfg = quick_cfg(defense, contract, skip);
                cfg.programs_per_instance = 4;
                cfg
            };
            let warped = Campaign::new(shape(true)).run_sharded(shard);
            let stepped = Campaign::new(shape(false)).run_sharded(shard);
            let what = format!("{} × {}", defense.name(), contract.name());
            assert_reports_agree(&warped, &stepped, &what);
            assert!(
                warped.stats.warped_cycles > 0,
                "{what}: quick campaigns always contain warpable spans"
            );
        }
    }
}

/// The warp equivalence holds at every worker count, composed with the
/// sharded orchestrator's own determinism contract: 1/4/8 workers × skip
/// on/off all land on one fingerprint per scenario — checked on a violating
/// scenario (Baseline) and a clean one (GhostMinion).
#[test]
fn warp_equivalence_is_worker_count_invariant() {
    for (defense, contract) in [
        (DefenseKind::Baseline, ContractKind::CtSeq),
        (DefenseKind::GhostMinion, ContractKind::CtSeq),
    ] {
        let mut fingerprints = Vec::new();
        for workers in [1usize, 4, 8] {
            for skip in [true, false] {
                let shard = ShardConfig {
                    workers,
                    batch_programs: 3,
                };
                let report = Campaign::new(quick_cfg(defense, contract, skip)).run_sharded(shard);
                fingerprints.push((workers, skip, report.fingerprint()));
            }
        }
        let reference = fingerprints[0].2;
        for (workers, skip, fp) in fingerprints {
            assert_eq!(
                fp,
                reference,
                "{} × {}: fingerprint diverged at {workers} workers, cycle_skip={skip}",
                defense.name(),
                contract.name()
            );
        }
    }
}

/// The instance-parallel orchestrator agrees too, and the report-level warp
/// metrics behave: identical cycles/case both ways, a substantial warp
/// ratio when skipping, exactly zero when stepping.
#[test]
fn warp_metrics_are_observable_and_cycles_match() {
    let warped = Campaign::new(quick_cfg(DefenseKind::Baseline, ContractKind::CtSeq, true)).run();
    let stepped = Campaign::new(quick_cfg(DefenseKind::Baseline, ContractKind::CtSeq, false)).run();
    assert_reports_agree(&warped, &stepped, "Baseline × CT-SEQ (instance-parallel)");
    assert!(
        (warped.cycles_per_case() - stepped.cycles_per_case()).abs() < f64::EPSILON,
        "cycles/case is a timing-model quantity, not a scheduler quantity"
    );
    assert!(
        warped.warp_ratio() > 0.5,
        "most cycles of a memory-bound case are inert waits: {}",
        warped.warp_ratio()
    );
    assert_eq!(stepped.warp_ratio(), 0.0);
    assert!(warped.cycles_per_case() > 0.0);
}
