//! Properties of the contract lattice (paper §2.1/§3.3):
//!
//! - Richer contracts refine poorer ones: equal CT-COND traces imply equal
//!   CT-SEQ traces (the CT-SEQ observations are a projection), and likewise
//!   CT-BPAS → CT-COND and ARCH-SEQ → CT-SEQ.
//! - Filtering with a leakage-specific contract works: the baseline CPU's
//!   Spectre-v1 violations vanish under CT-COND, and its v4 family vanishes
//!   under CT-BPAS — the paper's "use leakage-specific contract" triage arm
//!   (Figure 3).
//!
//! (Seeded-loop property tests; the workspace carries no external
//! dependencies.)

use amulet::contracts::{ContractKind, LeakageModel};
use amulet::defenses::DefenseKind;
use amulet::fuzz::{
    boosted_inputs, boundary_row, Campaign, CampaignConfig, CampaignSpec, Generator,
    GeneratorConfig, InputGenConfig, ShardConfig, SpecSource, DEFAULT_SEED,
};
use amulet::util::Xoshiro256;

/// Derives `n` pseudo-random property seeds from a fixed meta-seed.
fn seeds(n: usize) -> Vec<u64> {
    let mut rng = Xoshiro256::seed_from_u64(0x0C04_7AC7);
    (0..n).map(|_| rng.next_u64() % 1_000_000).collect()
}

/// Inputs grouped as equal by a richer contract are equal under the poorer
/// contract it refines.
#[test]
fn refinement_projections_hold() {
    for seed in seeds(10) {
        let pairs = [
            (ContractKind::CtCond, ContractKind::CtSeq),
            (ContractKind::CtBpas, ContractKind::CtCond),
            (ContractKind::CtBpas, ContractKind::CtSeq),
            (ContractKind::ArchSeq, ContractKind::CtSeq),
        ];
        let mut generator = Generator::new(GeneratorConfig::default(), seed);
        let program = generator.program();
        let flat = program.flatten();
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5a5a);
        let cfg = InputGenConfig {
            base_inputs: 2,
            mutations: 3,
            pages: 1,
        };
        for (rich, poor) in pairs {
            let rich_model = LeakageModel::new(rich);
            let poor_model = LeakageModel::new(poor);
            let inputs = boosted_inputs(&rich_model, &flat, &cfg, &mut rng);
            for group in inputs.chunks(1 + cfg.mutations) {
                let rich_ref = rich_model.ctrace(&flat, &group[0]);
                let poor_ref = poor_model.ctrace(&flat, &group[0]);
                for m in &group[1..] {
                    if rich_model.ctrace(&flat, m) == rich_ref {
                        assert_eq!(
                            poor_model.ctrace(&flat, m).digest(),
                            poor_ref.digest(),
                            "seed {seed}: {rich} equality did not imply {poor} equality\n{program}"
                        );
                    }
                }
            }
        }
    }
}

/// The paper's triage filter: testing the baseline against CT-BPAS (which
/// admits both branch and store-bypass speculation) absorbs the v1 *and* v4
/// families, leaving the insecure CPU clean — evidence that those two
/// mechanisms explain the baseline's violations.
#[test]
fn ct_bpas_absorbs_baseline_leaks() {
    let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtBpas);
    cfg.programs_per_instance = 30;
    cfg.instances = 4;
    let report = Campaign::new(cfg).run();
    assert!(
        report.violations.is_empty(),
        "CT-BPAS should absorb baseline speculation leaks: {:?}",
        report.unique_classes()
    );
}

// ---- boundary search over the lattice ------------------------------------

/// The quick-shape probe `amulet boundary --source S --batch 3` sends for
/// `defense`.
fn quick_probe(defense: DefenseKind, source: SpecSource) -> CampaignSpec {
    CampaignSpec {
        defense: defense.name().to_string(),
        contract: ContractKind::CtSeq.name().to_string(),
        source: source.name().to_string(),
        seed: DEFAULT_SEED,
        scale: None,
        find_first: false,
        batch_programs: BOUNDARY_SHARD.batch_programs,
        cycle_skip: true,
    }
}

const BOUNDARY_SHARD: ShardConfig = ShardConfig {
    workers: 4,
    batch_programs: 3,
};

/// The boundary walk respects the refinement order: whenever a defense is
/// clean under some contract, it is clean under every contract that
/// refines it (satisfying the poorer contract implies satisfying the
/// richer one). A defense clean under CT-SEQ but dirty under CT-BPAS would
/// mean the probes — or the lattice — are lying.
#[test]
fn boundary_verdicts_are_monotone_along_refinement() {
    for source in SpecSource::ALL {
        for defense in [
            DefenseKind::Baseline,
            DefenseKind::Stt,
            DefenseKind::InvisiSpec,
            DefenseKind::DelayAll,
        ] {
            let row = boundary_row(&quick_probe(defense, source), BOUNDARY_SHARD.workers).unwrap();
            for a in &row.verdicts {
                if a.violated {
                    continue;
                }
                for b in &row.verdicts {
                    if b.contract.refines(a.contract) {
                        assert!(
                            !b.violated,
                            "{} ({}): clean under {} but dirty under the \
                             refining {}",
                            defense.name(),
                            source.name(),
                            a.contract,
                            b.contract
                        );
                    }
                }
            }
        }
    }
}

/// Composition equality: a boundary row is nothing more than the standalone
/// campaigns it claims to compose — per-contract fingerprints equal to
/// running `Campaign` on the quick STL shape directly (what `amulet
/// campaign --source STL --contract C` runs), verdicts included.
#[test]
fn boundary_rows_compose_standalone_campaigns_exactly() {
    let probe = quick_probe(DefenseKind::Baseline, SpecSource::Stl);
    let row = boundary_row(&probe, BOUNDARY_SHARD.workers).unwrap();
    assert_eq!(row.verdicts.len(), ContractKind::BY_STRENGTH.len());
    for (verdict, &contract) in row.verdicts.iter().zip(&ContractKind::BY_STRENGTH) {
        assert_eq!(verdict.contract, contract, "strength order preserved");
        let cfg =
            CampaignConfig::quick(DefenseKind::Baseline, contract).with_source(SpecSource::Stl);
        let standalone = Campaign::new(cfg).run_sharded(BOUNDARY_SHARD);
        assert_eq!(
            verdict.fingerprint,
            standalone.fingerprint(),
            "boundary probe for {contract} diverged from the standalone campaign"
        );
        assert_eq!(verdict.violated, standalone.violation_found());
        assert_eq!(verdict.classes, standalone.unique_classes());
    }
    // And the row digest is a pure function of those probe results.
    let again = boundary_row(&probe, BOUNDARY_SHARD.workers).unwrap();
    assert_eq!(row.fingerprint(), again.fingerprint());
    assert_eq!(row.to_json(), again.to_json());
}
