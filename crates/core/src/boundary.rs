//! Contract-lattice boundary search — *where* does a defense stop leaking?
//!
//! A single campaign answers a yes/no question: does this defense violate
//! this contract? The boundary search asks the sharper question the lattice
//! makes possible: walking [`ContractKind::BY_STRENGTH`] from the strongest
//! contract (CT-SEQ, fewest sanctioned observations) to the weakest
//! (CT-BPAS, the most speculation declared in-contract), which is the first
//! contract the defense *satisfies*, and which the last it *violates*? That
//! pair localises the defense's leakage boundary on the lattice: everything
//! the defense leaks beyond CT-SEQ is sanctioned by the weakest violated
//! contract's successor.
//!
//! Each per-contract probe is an ordinary [`Campaign`], resolved by
//! [`CampaignSpec::resolve`] from the caller's probe spec with only the
//! contract replaced — the same resolver every CLI entry point and the
//! service use — so the boundary table composes standalone campaigns by
//! construction: the per-contract fingerprints in a [`BoundaryRow`] equal
//! the fingerprints of the individual campaigns (asserted by
//! `tests/contract_hierarchy.rs`). Rows carry no wall-clock quantities, so
//! a boundary table is byte-reproducible and CI can diff it against a
//! pinned reference.
//!
//! # Examples
//!
//! ```no_run
//! use amulet_core::boundary::boundary_row;
//! use amulet_core::{CampaignSpec, DEFAULT_SEED};
//!
//! let probe = CampaignSpec {
//!     defense: "Baseline".into(),
//!     contract: "CT-SEQ".into(),
//!     source: "PHT".into(),
//!     seed: DEFAULT_SEED,
//!     scale: None,
//!     find_first: false,
//!     batch_programs: 4,
//!     cycle_skip: true,
//! };
//! let row = boundary_row(&probe, 0).unwrap();
//! println!("{}", row.to_json());
//! ```

use crate::analyze::ViolationClass;
use crate::campaign::{Campaign, Fnv1a, SpecSource};
use crate::proto::CampaignSpec;
use crate::shard::ShardConfig;
use amulet_contracts::ContractKind;
use amulet_defenses::DefenseKind;
use amulet_util::json::JsonObj;
use std::collections::BTreeMap;

/// One probe's outcome: did the defense violate this contract, with what,
/// and under which campaign fingerprint?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractVerdict {
    /// The contract probed.
    pub contract: ContractKind,
    /// Whether any violation was confirmed.
    pub violated: bool,
    /// Confirmed violations per catalogue class.
    pub classes: BTreeMap<ViolationClass, usize>,
    /// The probe campaign's [`fingerprint`](crate::CampaignReport::fingerprint).
    pub fingerprint: u64,
}

/// One defense's boundary: a verdict per contract in
/// [`ContractKind::BY_STRENGTH`] order, plus a composed fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryRow {
    /// The defense probed.
    pub defense: DefenseKind,
    /// The speculation source the probes tested.
    pub source: SpecSource,
    /// Per-contract verdicts, strongest contract first.
    pub verdicts: Vec<ContractVerdict>,
}

impl BoundaryRow {
    /// The strongest contract the defense satisfies (the first clean entry
    /// in the strength walk), if any.
    pub fn strongest_satisfied(&self) -> Option<ContractKind> {
        self.verdicts
            .iter()
            .find(|v| !v.violated)
            .map(|v| v.contract)
    }

    /// The weakest contract the defense still violates (the last dirty
    /// entry in the strength walk), if any.
    pub fn weakest_violated(&self) -> Option<ContractKind> {
        self.verdicts
            .iter()
            .rev()
            .find(|v| v.violated)
            .map(|v| v.contract)
    }

    /// A 64-bit digest of the whole row: defense, source, and every
    /// verdict's contract, outcome and campaign fingerprint. Deterministic
    /// for the same reason campaign fingerprints are — no wall-clock input.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fnv1a::new();
        fp.str(self.defense.name());
        fp.str(self.source.name());
        fp.u64(self.verdicts.len() as u64);
        for v in &self.verdicts {
            fp.str(v.contract.name());
            fp.u64(v.violated as u64);
            fp.u64(v.fingerprint);
        }
        fp.finish()
    }

    /// The row as one deterministic JSON line (the `amulet boundary --json`
    /// format). Classes are keyed by paper id in class order; fingerprints
    /// are hex strings so double-based JSON readers cannot round them;
    /// `strongest_satisfied` is `null` for a defense dirty everywhere.
    pub fn to_json(&self) -> String {
        let verdicts: Vec<String> = self
            .verdicts
            .iter()
            .map(|v| {
                let mut classes = JsonObj::new();
                for (class, count) in &v.classes {
                    classes = classes.int(class.paper_id(), *count as u64);
                }
                JsonObj::new()
                    .str("contract", v.contract.name())
                    .bool("violated", v.violated)
                    .raw("classes", &classes.finish())
                    .str("fingerprint", &format!("{:#018x}", v.fingerprint))
                    .finish()
            })
            .collect();
        let opt = |c: Option<ContractKind>| match c {
            Some(c) => format!("\"{}\"", c.name()),
            None => "null".into(),
        };
        JsonObj::new()
            .str("defense", self.defense.name())
            .str("source", self.source.name())
            .raw("verdicts", &format!("[{}]", verdicts.join(",")))
            .raw("strongest_satisfied", &opt(self.strongest_satisfied()))
            .raw("weakest_violated", &opt(self.weakest_violated()))
            .str("fingerprint", &format!("{:#018x}", self.fingerprint()))
            .finish()
    }
}

/// Runs the boundary search for `probe`'s defense: one sharded campaign
/// per contract in [`ContractKind::BY_STRENGTH`] order, each `probe` with
/// its contract replaced, over `workers` threads (`0` = all hardware
/// threads) in `probe.batch_programs`-program batches. Fails with the
/// resolver's message when `probe` does not resolve.
pub fn boundary_row(probe: &CampaignSpec, workers: usize) -> Result<BoundaryRow, String> {
    let base = probe.resolve()?;
    let shard = ShardConfig {
        workers,
        batch_programs: probe.batch_programs,
    };
    let mut verdicts = Vec::with_capacity(ContractKind::BY_STRENGTH.len());
    for contract in ContractKind::BY_STRENGTH {
        let cfg = CampaignSpec {
            contract: contract.name().to_string(),
            ..probe.clone()
        }
        .resolve()?;
        let report = Campaign::new(cfg).run_sharded(shard);
        verdicts.push(ContractVerdict {
            contract,
            violated: report.violation_found(),
            classes: report.unique_classes(),
            fingerprint: report.fingerprint(),
        });
    }
    Ok(BoundaryRow {
        defense: base.defense,
        source: base.source,
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_endpoints_come_from_the_strength_walk() {
        let verdict = |contract, violated| ContractVerdict {
            contract,
            violated,
            classes: BTreeMap::new(),
            fingerprint: 7,
        };
        let row = BoundaryRow {
            defense: DefenseKind::Baseline,
            source: SpecSource::Pht,
            verdicts: vec![
                verdict(ContractKind::CtSeq, true),
                verdict(ContractKind::ArchSeq, true),
                verdict(ContractKind::CtCond, false),
                verdict(ContractKind::CtBpas, false),
            ],
        };
        assert_eq!(row.strongest_satisfied(), Some(ContractKind::CtCond));
        assert_eq!(row.weakest_violated(), Some(ContractKind::ArchSeq));

        let all_dirty = BoundaryRow {
            verdicts: vec![verdict(ContractKind::CtSeq, true)],
            ..row.clone()
        };
        assert_eq!(all_dirty.strongest_satisfied(), None);
        assert_eq!(all_dirty.weakest_violated(), Some(ContractKind::CtSeq));
    }

    #[test]
    fn row_json_is_deterministic_and_fingerprint_covers_outcomes() {
        let row = BoundaryRow {
            defense: DefenseKind::Baseline,
            source: SpecSource::Stl,
            verdicts: vec![ContractVerdict {
                contract: ContractKind::CtSeq,
                violated: true,
                classes: BTreeMap::from([(ViolationClass::SpectreV4, 2)]),
                fingerprint: 0xabcd,
            }],
        };
        assert_eq!(row.to_json(), row.to_json());
        assert!(row.to_json().contains("\"strongest_satisfied\":null"));
        assert!(row.to_json().contains("\"source\":\"STL\""));

        let mut flipped = row.clone();
        flipped.verdicts[0].violated = false;
        assert_ne!(row.fingerprint(), flipped.fingerprint());
        let mut other_probe = row.clone();
        other_probe.verdicts[0].fingerprint = 0xabce;
        assert_ne!(row.fingerprint(), other_probe.fingerprint());
    }
}
