//! The four workloads: which campaign each runs, through which user path,
//! at which shapes, and the results pinned at the default seed. Why each
//! workload exists is recorded in `BENCHMARK.json` and `BENCHMARK.md`.

use crate::paths::Report;
use amulet_cli::ShapeOptions;
use amulet_contracts::ContractKind;
use amulet_core::proto::CampaignSpec;
use amulet_core::{CampaignConfig, ShardConfig, SpecSource};
use amulet_defenses::DefenseKind;
use amulet_util::mix64;

/// The seed the pins hold at, and the default of `run --seed`.
pub const DEFAULT_SEED: u64 = 2025;

/// The fleet size every path uses: worker threads, worker processes and
/// client threads, sized for a 2-core host.
pub const WORKERS: usize = 2;

/// Programs per batch — the CLI default, part of every campaign identity.
pub const BATCH: usize = 4;

/// Distinct campaigns a campaign workload's run cycles through, so that
/// one run measures a mix of programs rather than one seed's.
pub const CAMPAIGNS: u64 = 8;

/// The seed of a run's `k`-th campaign. The first is the run's own seed,
/// so a pin is what `amulet campaign --seed 2025` reports at that shape.
pub fn campaign_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        mix64(seed ^ mix64(k))
    }
}

/// The user path a workload's timed operations go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `amulet campaign --workers 2`, one fresh process per campaign.
    Campaign,
    /// `amulet serve --workers 2` under a closed loop of submitting clients.
    Serve,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The path its timed operations take.
    pub path: Path,
    /// Defense under test.
    pub defense: DefenseKind,
    /// Contract tested against.
    pub contract: ContractKind,
    /// Speculation source.
    pub source: SpecSource,
    /// Paper scale of every campaign the workload runs, timed or traced
    /// (for `Serve`, of every submit).
    pub scale: f64,
    /// Paper scale under `--smoke`.
    pub smoke_scale: f64,
    /// The results of the first campaign of a run at [`DEFAULT_SEED`].
    pub pin: Option<Report>,
    /// The same at the smoke shape.
    pub smoke_pin: Option<Report>,
}

/// Every workload, in manifest order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pht_baseline",
        path: Path::Campaign,
        defense: DefenseKind::Baseline,
        contract: ContractKind::CtSeq,
        source: SpecSource::Pht,
        scale: 0.05,
        smoke_scale: 0.01,
        pin: Some(Report {
            cases: 31_500,
            fingerprint: 0x0267_907d_57ac_2682,
            sim_cycles: 3_564_680,
        }),
        smoke_pin: Some(Report {
            cases: 2_800,
            fingerprint: 0x2de1_aed1_440c_4058,
            sim_cycles: 315_359,
        }),
    },
    Workload {
        name: "stt_taint",
        path: Path::Campaign,
        defense: DefenseKind::Stt,
        contract: ContractKind::ArchSeq,
        source: SpecSource::Pht,
        scale: 0.01,
        smoke_scale: 0.005,
        pin: Some(Report {
            cases: 2_800,
            fingerprint: 0x07e2_d782_009b_8fca,
            sim_cycles: 312_731,
        }),
        smoke_pin: Some(Report {
            cases: 1_960,
            fingerprint: 0xb6c2_26f7_1522_edf6,
            sim_cycles: 206_605,
        }),
    },
    Workload {
        name: "stl_delayall",
        path: Path::Campaign,
        defense: DefenseKind::DelayAll,
        contract: ContractKind::CtSeq,
        source: SpecSource::Stl,
        scale: 0.03,
        smoke_scale: 0.01,
        pin: Some(Report {
            cases: 14_700,
            fingerprint: 0x87ca_d952_9b9b_345b,
            sim_cycles: 5_827_144,
        }),
        smoke_pin: Some(Report {
            cases: 2_800,
            fingerprint: 0x10f8_0302_65e8_9a81,
            sim_cycles: 1_174_887,
        }),
    },
    Workload {
        name: "serve_submit",
        path: Path::Serve,
        defense: DefenseKind::Baseline,
        contract: ContractKind::CtSeq,
        source: SpecSource::Pht,
        scale: 0.02,
        smoke_scale: 0.005,
        pin: None,
        smoke_pin: None,
    },
];

/// Finds a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The in-process pool every reference run uses: the CLI defaults with
/// [`WORKERS`] threads.
pub fn shard() -> ShardConfig {
    ShardConfig {
        workers: WORKERS,
        batch_programs: BATCH,
    }
}

impl Workload {
    /// The campaign flags at `seed` and `scale`, exactly as the CLI parses
    /// them — so the in-process reference and the spawned `amulet` process
    /// resolve the same configuration.
    pub fn shape(&self, seed: u64, scale: f64) -> ShapeOptions {
        ShapeOptions {
            defense: self.defense,
            contract: self.contract,
            scale: Some(scale),
            seed: Some(seed),
            find_first: false,
            source: self.source,
            no_cycle_skip: false,
        }
    }

    /// The configuration [`Workload::shape`] resolves to.
    pub fn config(&self, seed: u64, scale: f64) -> CampaignConfig {
        self.shape(seed, scale).config()
    }

    /// The `submit` request for the same campaign.
    pub fn spec(&self, seed: u64, scale: f64) -> CampaignSpec {
        CampaignSpec {
            defense: self.defense.name().to_string(),
            contract: self.contract.name().to_string(),
            source: self.source.name().to_string(),
            seed,
            scale: Some(scale),
            find_first: false,
            batch_programs: BATCH,
            cycle_skip: true,
        }
    }

    /// The scale of a run under `smoke` or not.
    pub fn run_scale(&self, smoke: bool) -> f64 {
        if smoke {
            self.smoke_scale
        } else {
            self.scale
        }
    }

    /// The pin for the timed shape, when the run is at [`DEFAULT_SEED`].
    pub fn pin_at(&self, seed: u64, smoke: bool) -> Option<Report> {
        if seed != DEFAULT_SEED {
            return None;
        }
        if smoke {
            self.smoke_pin
        } else {
            self.pin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::manifest;

    #[test]
    fn workloads_match_the_manifest() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, manifest().workloads);
    }

    #[test]
    fn campaign_seeds_start_at_the_run_seed_and_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..CAMPAIGNS).map(|k| campaign_seed(7, k)).collect();
        assert_eq!(seeds.len(), CAMPAIGNS as usize);
        assert_eq!(campaign_seed(DEFAULT_SEED, 0), DEFAULT_SEED);
    }

    #[test]
    fn spec_and_shape_resolve_to_the_same_campaign() {
        for w in &WORKLOADS {
            let via_spec = w.spec(7, w.scale).resolve().unwrap();
            let via_flags = w.config(7, w.scale);
            assert_eq!(via_spec.total_cases(), via_flags.total_cases());
            assert_eq!(via_spec.source, via_flags.source);
            assert_eq!(via_spec.seed, via_flags.seed);
        }
    }
}
