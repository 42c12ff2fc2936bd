//! Golden per-case simulator pin.
//!
//! Every case of a fixed seeded stream is simulated under all 12 defenses ×
//! {PHT, STL} × {cycle skipping on, off}, once with logging off and once
//! under `LogMode::Record`, and reduced to one 32-bit hash over:
//!
//! - the full `SimResult`, `warped_cycles` included;
//! - all four trace digests (`L1dTlb { include_l1i: true }`, `BpState`,
//!   `MemOrder`, `BranchOrder`);
//! - the committed architectural registers;
//! - the complete Record-mode debug log.
//!
//! The hashes are compared with `tests/data/sim_golden.txt`. Any change to
//! what the simulator computes, or to how the cycle loop gets there, moves
//! a hash; a mismatch names the first diverging case (defense, source,
//! warp, program and input index) so it can be replayed on its own.
//!
//! Regenerate the reference only for an intended timing-model change:
//! `cargo test --test sim_golden -- --ignored bless`.

use amulet::contracts::{ContractKind, LeakageModel};
use amulet::defenses::DefenseKind;
use amulet::fuzz::{
    boosted_inputs, CampaignConfig, Executor, ExecutorConfig, Generator, InputGenConfig, SpecSource,
};
use amulet::sim::{DigestKind, SimResult};
use amulet::util::Xoshiro256;
use std::fmt::Write as _;

const REFERENCE: &str = "tests/data/sim_golden.txt";
const PROGRAMS: usize = 4;
const SEED: u64 = 2025;

/// FNV-1a over formatted text, so `Debug` output (debug events carry no
/// `Hash` impl) folds in without building strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        s.bytes().for_each(|b| self.byte(b));
        Ok(())
    }
}

fn fold_result(h: &mut Fnv, r: &SimResult) {
    h.word(r.exit_cycle.map_or(u64::MAX, |c| c));
    h.word(r.committed as u64);
    h.word(r.fetched as u64);
    h.word(r.squashes as u64);
    h.word(r.cycles);
    h.word(r.warped_cycles);
}

/// Folds everything observable about the executor's last run.
fn fold_run(h: &mut Fnv, exec: &mut Executor, result: &SimResult, with_log: bool) {
    fold_result(h, result);
    let sim = exec.simulator_mut();
    for kind in [
        DigestKind::L1dTlb { include_l1i: true },
        DigestKind::BpState,
        DigestKind::MemOrder,
        DigestKind::BranchOrder,
    ] {
        h.word(sim.trace_digest(kind));
    }
    for &r in sim.arch_regs() {
        h.word(r);
    }
    if with_log {
        let events = sim.log().events();
        h.word(events.len() as u64);
        for e in events {
            write!(h, "{e:?}").unwrap();
        }
    }
}

fn executor(cfg: &CampaignConfig, log: bool) -> Executor {
    Executor::new(ExecutorConfig {
        sim: cfg.sim.clone(),
        log_hot_path: log,
        ..ExecutorConfig::new(cfg.defense)
    })
}

/// One scenario line: `defense source warp hash hash ...`, one hash per case
/// in (program, input) order.
struct Scenario {
    key: String,
    cases: Vec<(usize, usize, u32)>,
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for defense in DefenseKind::ALL {
        for source in [SpecSource::Pht, SpecSource::Stl] {
            for warp in [true, false] {
                let mut cfg =
                    CampaignConfig::quick(defense, ContractKind::CtSeq).with_source(source);
                cfg.sim.cycle_skip = warp;
                out.push(run_scenario(&cfg, warp));
            }
        }
    }
    out
}

fn run_scenario(cfg: &CampaignConfig, warp: bool) -> Scenario {
    let model = LeakageModel::new(cfg.contract);
    let mut generator = Generator::new(cfg.generator.clone(), SEED);
    let mut rng = Xoshiro256::seed_from_u64(SEED ^ 0x5eed);
    let input_cfg = InputGenConfig {
        base_inputs: 3,
        mutations: 4,
        ..cfg.inputs
    };
    let mut off = executor(cfg, false);
    let mut record = executor(cfg, true);
    let mut cases = Vec::new();
    for p in 0..PROGRAMS {
        let flat = generator.program().flatten_shared();
        for (i, input) in boosted_inputs(&model, &flat, &input_cfg, &mut rng)
            .iter()
            .enumerate()
        {
            let mut h = Fnv::new();
            let r = off.run_case(&flat, input).result;
            fold_run(&mut h, &mut off, &r, false);
            let r = record.run_case(&flat, input).result;
            fold_run(&mut h, &mut record, &r, true);
            cases.push((p, i, (h.0 ^ (h.0 >> 32)) as u32));
        }
    }
    Scenario {
        key: format!(
            "{} {} {}",
            cfg.defense.name(),
            cfg.source.name(),
            if warp { "warp" } else { "step" }
        ),
        cases,
    }
}

fn render(scenarios: &[Scenario]) -> String {
    let mut s = String::new();
    for sc in scenarios {
        s.push_str(&sc.key);
        for &(_, _, h) in &sc.cases {
            write!(s, " {h:08x}").unwrap();
        }
        s.push('\n');
    }
    s
}

#[test]
fn simulator_matches_golden_per_case_hashes() {
    let reference = std::fs::read_to_string(REFERENCE).expect("golden reference present");
    let mut lines = reference.lines();
    let runs = scenarios();
    assert_eq!(runs.len(), 48, "12 defenses × 2 sources × 2 warp modes");
    for sc in &runs {
        let line = lines
            .next()
            .unwrap_or_else(|| panic!("{}: missing from {REFERENCE}", sc.key));
        let mut fields = line.split(' ');
        let key: Vec<&str> = fields.by_ref().take(3).collect();
        assert_eq!(key.join(" "), sc.key, "{REFERENCE}: scenario order");
        let want: Vec<&str> = fields.collect();
        assert_eq!(want.len(), sc.cases.len(), "{}: case count", sc.key);
        for (&(p, i, got), want) in sc.cases.iter().zip(want) {
            assert_eq!(
                format!("{got:08x}"),
                want,
                "first diverging case: {} program {p} input {i} \
                 (seed {SEED}, CT-SEQ quick shape, 3 base inputs × 4 mutations)",
                sc.key
            );
        }
    }
    assert!(lines.next().is_none(), "{REFERENCE}: extra scenarios");
}

#[test]
#[ignore = "regenerates the golden reference; run only for an intended timing-model change"]
fn bless() {
    std::fs::write(REFERENCE, render(&scenarios())).unwrap();
}
