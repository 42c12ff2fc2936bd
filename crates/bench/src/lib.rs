//! Shared helpers for the table/figure benches.
//!
//! Every bench accepts environment variables to scale up to paper size:
//!
//! - `AMULET_INSTANCES` — parallel campaign instances (paper: 100)
//! - `AMULET_PROGRAMS` — test programs per instance (paper: 200)
//! - `AMULET_BASE_INPUTS` / `AMULET_MUTATIONS` — inputs per program
//!   (paper: 140 total)
//!
//! Defaults are laptop-scale so `cargo bench --workspace` completes in
//! minutes while preserving the tables' *shapes*.

use amulet_contracts::ContractKind;
use amulet_core::{Campaign, CampaignConfig, CampaignReport};
use amulet_defenses::DefenseKind;
use amulet_util::JsonObj;
use std::time::Instant;

/// Reads a `usize` from the environment with a default.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Standard bench campaign configuration, env-scalable.
pub fn bench_config(defense: DefenseKind, contract: ContractKind) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(defense, contract);
    cfg.instances = env_usize("AMULET_INSTANCES", 4);
    cfg.programs_per_instance = env_usize("AMULET_PROGRAMS", 30);
    cfg.inputs.base_inputs = env_usize("AMULET_BASE_INPUTS", 4);
    cfg.inputs.mutations = env_usize("AMULET_MUTATIONS", 6);
    cfg
}

/// Runs a campaign and returns the report.
pub fn run_campaign(cfg: CampaignConfig) -> CampaignReport {
    Campaign::new(cfg).run()
}

/// Timed passes per measurement: every `throughput` arm and every `micro`
/// batch runs this many times, so every row reads its median and quartiles
/// off the same order statistics.
pub const PASSES: usize = 7;

/// The throughput trajectory file at the workspace root: one JSON [`Row`]
/// per line, oldest first.
pub const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");

/// Runs the `N` variants of one arm for [`PASSES`] passes, alternating them
/// pass by pass (`pass(0)`, `pass(1)`, …, `pass(0)`, …) so that host drift
/// lands on every variant alike, and times each call.
pub fn sample<const N: usize>(mut pass: impl FnMut(usize)) -> [Passes; N] {
    sample_secs(|variant| {
        let t0 = Instant::now();
        pass(variant);
        t0.elapsed().as_secs_f64()
    })
}

/// [`sample`] for passes that time themselves: `pass(variant)` returns the
/// seconds it counts, so a pass can time one stage of its work.
pub fn sample_secs<const N: usize>(mut pass: impl FnMut(usize) -> f64) -> [Passes; N] {
    let mut secs: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(PASSES));
    for _ in 0..PASSES {
        for (variant, secs) in secs.iter_mut().enumerate() {
            secs.push(pass(variant));
        }
    }
    secs.map(|mut secs| {
        secs.sort_by(f64::total_cmp);
        Passes(secs)
    })
}

/// One variant's timed passes in seconds, fastest first.
#[derive(Clone, Debug)]
pub struct Passes(Vec<f64>);

/// A measurement at the median pass and at the two quartile passes, with
/// `q1 <= median <= q3` as numbers: for a rate `q1` is the slower pass, for
/// a cost the faster one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The value at the median pass.
    pub median: f64,
    /// The lower quartile value.
    pub q1: f64,
    /// The upper quartile value.
    pub q3: f64,
}

impl Passes {
    /// `measure` (a monotonic function of one pass's seconds) at the median
    /// pass and at the quartile passes.
    pub fn spread(&self, measure: impl Fn(f64) -> f64) -> Spread {
        let n = self.0.len();
        let (a, b) = (measure(self.0[n / 4]), measure(self.0[3 * n / 4]));
        Spread {
            median: measure(self.0[n / 2]),
            q1: a.min(b),
            q3: a.max(b),
        }
    }

    /// `work` units per second.
    pub fn rate(&self, work: f64) -> Spread {
        self.spread(|secs| work / secs)
    }

    /// Nanoseconds per one of `work` units.
    pub fn ns_per(&self, work: f64) -> Spread {
        self.spread(|secs| secs * 1e9 / work)
    }
}

/// One line of [`TRAJECTORY`]: `bench`, `kind` and `name` first, then the
/// arm's fields in call order.
#[derive(Debug)]
pub struct Row(JsonObj);

impl Row {
    /// Starts a `throughput` row.
    pub fn new(kind: &str, name: &str) -> Self {
        Row(JsonObj::new()
            .str("bench", "throughput")
            .str("kind", kind)
            .str("name", name))
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        Row(self.0.str(key, value))
    }

    /// Adds a count.
    pub fn int(self, key: &str, value: impl TryInto<u64>) -> Self {
        let value = value.try_into().ok().expect("a count fits in u64");
        Row(self.0.int(key, value))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        Row(self.0.bool(key, value))
    }

    /// Adds a number printed with `decimals` decimal places.
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Self {
        Row(self.0.raw(key, &format!("{value:.decimals$}")))
    }

    /// Adds a sampled measurement: `key` at the median pass, `key_q1` and
    /// `key_q3` at the quartiles, one decimal place each.
    pub fn spread(self, key: &str, spread: Spread) -> Self {
        self.fixed(key, spread.median, 1)
            .fixed(&format!("{key}_q1"), spread.q1, 1)
            .fixed(&format!("{key}_q3"), spread.q3, 1)
    }

    /// Closes the row.
    pub fn finish(self) -> String {
        self.0.finish()
    }
}

/// Times a closure with a self-calibrating batch harness and prints the
/// median per-iteration cost with its quartiles — the workspace-internal
/// substitute for an external benchmarking framework.
pub fn time_fn(name: &str, mut f: impl FnMut()) {
    // Calibrate a batch size that takes ≥ ~5 ms.
    let mut batch = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed().as_secs_f64() >= 5e-3 || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let [passes] = sample(|_| {
        for _ in 0..batch {
            f();
        }
    });
    let per_iter = passes.spread(|secs| secs / f64::from(batch));
    let (scale, unit) = match per_iter.median {
        m if m >= 1e-3 => (1e3, "ms"),
        m if m >= 1e-6 => (1e6, "µs"),
        _ => (1e9, "ns"),
    };
    println!(
        "{name:<32} {:>10.2} {unit}/iter [{:.2}, {:.2}]  ({:.0} iters/s)",
        per_iter.median * scale,
        per_iter.q1 * scale,
        per_iter.q3 * scale,
        1.0 / per_iter.median
    );
}

/// Prints the standard bench banner.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!(
        "(scale with AMULET_INSTANCES / AMULET_PROGRAMS / AMULET_BASE_INPUTS / AMULET_MUTATIONS)"
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use amulet_util::{parse_json, JsonValue};

    #[test]
    fn env_usize_defaults() {
        assert_eq!(env_usize("AMULET_DOES_NOT_EXIST", 7), 7);
    }

    /// Scripted pass durations: variant 0's passes take 7, 1, 6, 2, 5, 3, 4
    /// seconds, variant 1's ten times as long.
    fn scripted() -> ([Passes; 2], Vec<usize>) {
        let mut calls = Vec::new();
        let script = [7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0];
        let passes = sample_secs(|variant| {
            let secs = script[calls.len() / 2] * [1.0, 10.0][variant];
            calls.push(variant);
            secs
        });
        (passes, calls)
    }

    #[test]
    fn sampler_alternates_variants_and_reads_quartiles() {
        let ([fast, slow], calls) = scripted();
        assert_eq!(calls.len(), 2 * PASSES);
        assert!(calls.iter().enumerate().all(|(i, &v)| v == i % 2));
        // Sorted fastest first: quartile passes at indices 1 and 5, the
        // median at 3.
        assert_eq!(fast.0, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let rate = fast.rate(60.0);
        assert_eq!(rate.median, 15.0);
        assert_eq!(rate.q1, 10.0, "q1 of a rate is the slower quartile pass");
        assert_eq!(rate.q3, 30.0);
        let cost = slow.ns_per(1e9);
        assert_eq!((cost.q1, cost.median, cost.q3), (20.0, 40.0, 60.0));
        for spread in [rate, cost, slow.rate(1.0), fast.ns_per(3.0)] {
            assert!(spread.q1 <= spread.median && spread.median <= spread.q3);
        }
    }

    #[test]
    fn rows_parse_with_their_rate_triple() {
        let ([passes, _], _) = scripted();
        let line = Row::new("cycle_loop", "warped")
            .int("cases", 1680usize)
            .fixed("warp_ratio", 0.81563, 4)
            .spread("cases_per_sec", passes.rate(60.0))
            .finish();
        let row = parse_json(&line).unwrap();
        let field = |key: &str| row.get(key).cloned();
        assert_eq!(field("bench").unwrap().as_str(), Some("throughput"));
        assert_eq!(field("kind").unwrap().as_str(), Some("cycle_loop"));
        assert_eq!(field("name").unwrap().as_str(), Some("warped"));
        assert_eq!(field("cases").unwrap().as_u64(), Some(1680));
        assert_eq!(field("warp_ratio").unwrap().as_f64(), Some(0.8156));
        let triple = ["cases_per_sec_q1", "cases_per_sec", "cases_per_sec_q3"]
            .map(|key| field(key).and_then(|v| v.as_f64()).unwrap());
        assert_eq!(triple, [10.0, 15.0, 30.0]);
    }

    #[test]
    fn every_trajectory_line_is_a_named_row() {
        let text = std::fs::read_to_string(TRAJECTORY).unwrap();
        for (i, line) in text.lines().enumerate() {
            let row = parse_json(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
            for key in ["bench", "kind", "name"] {
                assert!(
                    row.get(key).and_then(JsonValue::as_str).is_some(),
                    "line {} has no string `{key}`: {line}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn bench_config_shapes() {
        let cfg = bench_config(DefenseKind::Baseline, ContractKind::CtSeq);
        assert!(cfg.instances >= 1);
        assert!(cfg.programs_per_instance >= 1);
    }
}
