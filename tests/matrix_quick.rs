//! Quick-matrix pin: every cell of `amulet matrix --quick --sources
//! PHT,STL` (12 defenses × 4 contracts × 2 speculation sources) at the
//! default seed and batch, each resolved through `CampaignSpec::resolve`
//! as every entry point resolves it, and reduced to its deterministic
//! fields: defense, contract, source, the unique violation classes, the
//! confirmed count and the fingerprint (which covers every counter and
//! every violation digest).
//!
//! The lines are compared with `tests/data/matrix_quick_ref.jsonl`; CI
//! diffs the release `matrix` JSONL, reduced to the same fields, against
//! the same file. A mismatch names the first moved cell and its repro.
//!
//! Regenerate the reference only for an intended change, and name every
//! moved cell: `cargo test --test matrix_quick -- --ignored bless`.

use amulet::contracts::ContractKind;
use amulet::defenses::DefenseKind;
use amulet::fuzz::proto::CampaignSpec;
use amulet::fuzz::{Campaign, ShardConfig, SpecSource, DEFAULT_SEED};
use amulet::util::JsonObj;

const REFERENCE: &str = "tests/data/matrix_quick_ref.jsonl";

/// One reference line per cell, in `amulet matrix`'s order: source, then
/// defense, then contract.
fn cells() -> Vec<String> {
    let batch_programs = ShardConfig::default().batch_programs;
    let mut lines = Vec::new();
    for source in SpecSource::ALL {
        for defense in DefenseKind::ALL {
            for contract in ContractKind::ALL {
                let spec = CampaignSpec {
                    defense: defense.name().into(),
                    contract: contract.name().into(),
                    source: source.name().into(),
                    seed: DEFAULT_SEED,
                    scale: None,
                    find_first: false,
                    batch_programs,
                    cycle_skip: true,
                };
                let cfg = spec.resolve().expect("every quick cell resolves");
                let report = Campaign::new(cfg).run_sharded(ShardConfig {
                    workers: 2,
                    batch_programs,
                });
                let mut classes = JsonObj::new();
                for (class, count) in report.unique_classes() {
                    classes = classes.int(class.paper_id(), count as u64);
                }
                lines.push(
                    JsonObj::new()
                        .str("defense", &spec.defense)
                        .str("contract", &spec.contract)
                        .str("source", &spec.source)
                        .raw("classes", &classes.finish())
                        .int("confirmed", report.stats.confirmed as u64)
                        .str("fingerprint", &format!("{:#018x}", report.fingerprint()))
                        .finish(),
                );
            }
        }
    }
    lines
}

#[test]
fn every_quick_matrix_cell_matches_its_pinned_line() {
    let reference = std::fs::read_to_string(REFERENCE).expect("matrix reference present");
    let want: Vec<&str> = reference.lines().collect();
    let got = cells();
    assert_eq!(got.len(), 96, "12 defenses × 4 contracts × 2 sources");
    for (i, line) in got.iter().enumerate() {
        assert_eq!(
            Some(&line.as_str()),
            want.get(i),
            "{REFERENCE} line {}: the cell moved (repro: amulet matrix --quick \
             --sources PHT,STL --json -)",
            i + 1
        );
    }
    assert_eq!(want.len(), got.len(), "{REFERENCE}: extra lines");
}

#[test]
#[ignore = "regenerates the matrix reference; run only for an intended change"]
fn bless() {
    let mut text = cells().join("\n");
    text.push('\n');
    std::fs::write(REFERENCE, text).unwrap();
}
