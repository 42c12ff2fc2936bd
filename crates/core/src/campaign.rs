//! Campaign orchestration: parallel fuzzing instances with the paper's
//! metrics (Table 3/4 columns).

use crate::analyze::{classify, ViolationClass, ViolationFilter};
use crate::corpus::{CorpusInput, Reduction};
use crate::cost::CostModel;
use crate::detect::{Detector, ScanStats, Violation};
use crate::executor::{ExecMode, Executor, ExecutorConfig};
use crate::generator::{Generator, GeneratorConfig};
use crate::inputs::{boosted_inputs_and_classes_into, InputGenConfig};
use crate::minimize::minimize;
use crate::service::{run_local_slot, run_with_slots};
use crate::shard::ShardConfig;
use crate::trace::TraceFormat;
use amulet_contracts::{ContractKind, LeakageModel, ModelScratch};
use amulet_defenses::DefenseKind;
use amulet_isa::TestInput;
use amulet_sim::SimConfig;
use amulet_util::{fmt_duration_s, Summary, Xoshiro256};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The speculation source a campaign exercises.
///
/// `Pht` is the classic Spectre-v1-shaped branch misprediction the matrix
/// has always run. `Stl` switches the campaign to memory-dependence
/// misspeculation (Spectre-STL): the generator embeds aliasing store→load
/// gadgets ([`GeneratorConfig::stl_gadgets`]) and the simulator holds store
/// addresses unresolved for a disambiguation window
/// (`SimConfig::stl_window`), so younger loads speculatively bypass them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpecSource {
    /// Branch (PHT) misprediction — the default, byte-identical to
    /// pre-STL campaigns.
    #[default]
    Pht,
    /// Store-to-load (memory-dependence) misspeculation.
    Stl,
}

impl SpecSource {
    /// All speculation sources.
    pub const ALL: [SpecSource; 2] = [SpecSource::Pht, SpecSource::Stl];

    /// Display name (`"PHT"` / `"STL"`), also the wire encoding.
    pub fn name(self) -> &'static str {
        match self {
            SpecSource::Pht => "PHT",
            SpecSource::Stl => "STL",
        }
    }

    /// Parses a display name, case-insensitively.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for SpecSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The store-disambiguation window STL campaigns run with: long enough for
/// a bypassing load (one memory latency) *and* its dependent transmit to
/// issue before the mis-forwarding squash.
pub const STL_WINDOW: u64 = 180;

/// Full configuration of a testing campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Defense under test.
    pub defense: DefenseKind,
    /// Contract to test against.
    pub contract: ContractKind,
    /// Execution mode (Naive/Opt).
    pub mode: ExecMode,
    /// µarch trace format.
    pub format: TraceFormat,
    /// Include the L1I in the baseline trace.
    pub include_l1i: bool,
    /// Parallel instances (the paper runs 16 or 100).
    pub instances: usize,
    /// Test programs per instance.
    pub programs_per_instance: usize,
    /// Input generation parameters (base × mutations).
    pub inputs: InputGenConfig,
    /// Program generator parameters.
    pub generator: GeneratorConfig,
    /// Simulator configuration (amplification knobs live here).
    pub sim: SimConfig,
    /// Speculation source under test (see [`SpecSource`]). `Pht` leaves
    /// every pre-STL fingerprint byte-identical.
    pub source: SpecSource,
    /// Campaign seed (instance `i` derives seed + i).
    pub seed: u64,
    /// Stop an instance at its first confirmed violation.
    pub stop_on_first: bool,
    /// Suppress already-root-caused violation classes.
    pub filter: ViolationFilter,
    /// Skip µarch execution for singleton contract-trace classes (see
    /// [`Detector::skip_singletons`]). Default off.
    pub skip_singletons: bool,
    /// Record debug events on the hot path too (determinism regression
    /// tests / legacy-hot-path benchmarking). Default off.
    pub log_hot_path: bool,
}

impl CampaignConfig {
    /// A small, fast campaign for tests and examples (2 instances × 12
    /// programs × 28 inputs).
    ///
    /// # Examples
    ///
    /// ```
    /// use amulet_core::CampaignConfig;
    /// use amulet_defenses::DefenseKind;
    /// use amulet_contracts::ContractKind;
    ///
    /// let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    /// assert_eq!(cfg.instances, 2);
    /// assert_eq!(cfg.programs_per_instance, 12);
    /// assert_eq!(cfg.inputs.total(), 28);
    /// assert_eq!(cfg.total_cases(), 2 * 12 * 28);
    /// ```
    pub fn quick(defense: DefenseKind, contract: ContractKind) -> Self {
        let hints = defense.harness_hints();
        CampaignConfig {
            defense,
            contract,
            mode: ExecMode::Opt,
            format: TraceFormat::L1dTlb,
            include_l1i: false,
            instances: 2,
            programs_per_instance: 12,
            inputs: InputGenConfig {
                base_inputs: 4,
                mutations: 6,
                pages: hints.sandbox_pages,
            },
            generator: GeneratorConfig {
                pages: hints.sandbox_pages,
                ..GeneratorConfig::default()
            },
            sim: SimConfig::default(),
            source: SpecSource::Pht,
            seed: 2025,
            stop_on_first: false,
            filter: ViolationFilter::none(),
            skip_singletons: false,
            log_hot_path: false,
        }
    }

    /// A paper-shaped campaign scaled by `scale` (1.0 = the paper's 100
    /// instances × 200 programs × 140 inputs; 0.05 is a laptop-friendly
    /// default).
    ///
    /// # Examples
    ///
    /// ```
    /// use amulet_core::CampaignConfig;
    /// use amulet_defenses::DefenseKind;
    /// use amulet_contracts::ContractKind;
    ///
    /// // Full paper scale.
    /// let cfg = CampaignConfig::paper_scaled(DefenseKind::Stt, ContractKind::ArchSeq, 1.0);
    /// assert_eq!((cfg.instances, cfg.programs_per_instance), (100, 200));
    /// assert_eq!(cfg.inputs.total(), 140);
    ///
    /// // Scaled down, the shape shrinks but never degenerates.
    /// let small = CampaignConfig::paper_scaled(DefenseKind::Stt, ContractKind::ArchSeq, 0.01);
    /// assert!(small.instances >= 1 && small.programs_per_instance >= 4);
    /// ```
    pub fn paper_scaled(defense: DefenseKind, contract: ContractKind, scale: f64) -> Self {
        let mut cfg = Self::quick(defense, contract);
        cfg.instances = ((100.0 * scale).round() as usize).clamp(1, 128);
        cfg.programs_per_instance = ((200.0 * scale.sqrt()).round() as usize).max(4);
        cfg.inputs.base_inputs = 10;
        cfg.inputs.mutations = 13;
        cfg
    }

    /// Switches the campaign to `source`, applying the generator and
    /// simulator knobs that source requires: STL embeds aliasing
    /// store→load gadgets and opens the [`STL_WINDOW`]-cycle
    /// store-disambiguation window; PHT resets both to the (default-off)
    /// pre-STL configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use amulet_core::{CampaignConfig, SpecSource, STL_WINDOW};
    /// use amulet_defenses::DefenseKind;
    /// use amulet_contracts::ContractKind;
    ///
    /// let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq)
    ///     .with_source(SpecSource::Stl);
    /// assert!(cfg.generator.stl_gadgets);
    /// assert_eq!(cfg.sim.stl_window, STL_WINDOW);
    /// assert_eq!(cfg.with_source(SpecSource::Pht).sim.stl_window, 0);
    /// ```
    pub fn with_source(mut self, source: SpecSource) -> Self {
        self.source = source;
        let stl = source == SpecSource::Stl;
        self.generator.stl_gadgets = stl;
        self.sim.stl_window = if stl { STL_WINDOW } else { 0 };
        self
    }

    /// Total test cases this campaign will run (absent early stops).
    pub fn total_cases(&self) -> usize {
        self.instances * self.programs_per_instance * self.inputs.total()
    }
}

/// One instance's results (the campaign's wall clock is measured at the
/// [`Campaign::run`] level, not per instance).
#[derive(Debug, Default)]
struct InstanceResult {
    violations: Vec<(Violation, ViolationClass)>,
    stats: ScanStats,
    first_detection: Option<Duration>,
}

/// The deterministic skeleton of one confirmed violation — exactly the
/// fields [`CampaignReport::fingerprint`] hashes, and exactly what crosses
/// process boundaries in a distributed campaign (`amulet_core::proto`).
///
/// A full [`Violation`] carries the program, inputs, starting contexts and
/// debug logs for root-cause analysis; its digest carries only the
/// schedule-independent identity: the class, the shared contract-trace
/// digest, and the three µarch-trace difference sets. Two runs that agree
/// on every digest (and on the detector counters) agree on the campaign
/// fingerprint.
///
/// # Examples
///
/// ```
/// use amulet_core::campaign::ViolationDigest;
/// use amulet_core::ViolationClass;
///
/// let d = ViolationDigest {
///     class: ViolationClass::SpectreV1,
///     ctrace_digest: 0xfeed,
///     l1d_diff: vec![0x4740],
///     dtlb_diff: vec![],
///     l1i_diff: vec![],
/// };
/// assert_eq!(d.class.paper_id(), "Spectre-v1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationDigest {
    /// The catalogue class ([`classify`]'s verdict).
    pub class: ViolationClass,
    /// Digest of the contract trace both inputs share.
    pub ctrace_digest: u64,
    /// L1D cache-line set difference between the two µarch traces.
    pub l1d_diff: Vec<u64>,
    /// D-TLB page set difference.
    pub dtlb_diff: Vec<u64>,
    /// L1I cache-line set difference.
    pub l1i_diff: Vec<u64>,
}

impl ViolationDigest {
    /// Extracts the digest of a confirmed violation.
    pub fn of(v: &Violation, class: ViolationClass) -> Self {
        ViolationDigest {
            class,
            ctrace_digest: v.ctrace_digest,
            l1d_diff: v.utrace_a.l1d_diff(&v.utrace_b),
            dtlb_diff: v.utrace_a.dtlb_diff(&v.utrace_b),
            l1i_diff: v.utrace_a.l1i_diff(&v.utrace_b),
        }
    }
}

/// Aggregated campaign results, with the paper's reporting metrics.
#[derive(Debug)]
pub struct CampaignReport {
    /// The configuration that produced this report.
    pub config: CampaignConfig,
    /// Confirmed violations with their classes (filtered). Reports reduced
    /// by a [`Service`](crate::Service) (`amulet drive`, `amulet serve`)
    /// leave this empty — artefacts stay in the slot that ran the batch —
    /// and carry only [`CampaignReport::digests`] and, with a corpus,
    /// [`CampaignReport::records`].
    pub violations: Vec<(Violation, ViolationClass)>,
    /// Deterministic per-violation digests, in the same order as
    /// [`CampaignReport::violations`] for in-process runs; always populated,
    /// and the sole violation input to [`CampaignReport::fingerprint`].
    pub digests: Vec<ViolationDigest>,
    /// The minimized corpus fields, one per digest and in digest order —
    /// present only when the batches asked for records (a
    /// [`Service`](crate::Service) with a corpus), otherwise empty. Not
    /// part of the fingerprint.
    pub records: Vec<Reduction>,
    /// Aggregate detector counters.
    pub stats: ScanStats,
    /// Wall-clock campaign duration (longest instance).
    pub wall: Duration,
    /// Time to first confirmed violation: one sample per violating instance
    /// for [`Campaign::run`]; for [`Campaign::run_sharded`] a single sample,
    /// the campaign's wall-clock time to its earliest confirmation.
    pub detection_times: Summary,
    /// Modelled (gem5-calibrated) campaign seconds for this shape.
    pub modeled_seconds: f64,
}

impl CampaignReport {
    /// Whether any violation was confirmed.
    pub fn violation_found(&self) -> bool {
        !self.digests.is_empty()
    }

    /// Measured throughput in test cases per second (this substrate).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64().max(1e-9);
        // Instances run in parallel: aggregate cases over wall time.
        self.stats.cases as f64 / secs
    }

    /// Mean simulated cycles per hot-path test case — deterministic (the
    /// timing model's output, not wall clock), so it is bit-identical with
    /// cycle skipping on or off.
    pub fn cycles_per_case(&self) -> f64 {
        self.stats.sim_cycles as f64 / (self.stats.cases.max(1)) as f64
    }

    /// Fraction of simulated cycles the event-driven scheduler crossed by
    /// warping instead of stepping (0.0 with `SimConfig::cycle_skip` off).
    pub fn warp_ratio(&self) -> f64 {
        self.stats.warped_cycles as f64 / (self.stats.sim_cycles.max(1)) as f64
    }

    /// Count of violations per class (computed from the digests, so it is
    /// available for wire-reduced reports too).
    pub fn unique_classes(&self) -> BTreeMap<ViolationClass, usize> {
        let mut m = BTreeMap::new();
        for d in &self.digests {
            *m.entry(d.class).or_insert(0usize) += 1;
        }
        m
    }

    /// Number of distinct violation classes (the paper's "unique
    /// violations" column).
    pub fn unique_violation_count(&self) -> usize {
        self.unique_classes().len()
    }

    /// Mean time-to-detection in seconds (measured), if any violation was
    /// found.
    pub fn avg_detection_seconds(&self) -> Option<f64> {
        (self.detection_times.count() > 0).then(|| self.detection_times.mean())
    }

    /// A Table-4-style summary row, column-aligned with
    /// [`CampaignReport::summary_header`] for every [`DefenseKind`] and
    /// [`ContractKind`] (names wider than their column are truncated, never
    /// allowed to push later columns out of alignment).
    pub fn summary_row(&self) -> String {
        let (dw, cw) = summary_name_widths();
        format!(
            "{:<dw$.dw$} {:<cw$.cw$} {:>9.9} {:>12.12} {:>7.7} {:>12.12} {:>14.14}",
            self.config.defense.name(),
            self.config.contract.name(),
            if self.violation_found() { "YES" } else { "no" },
            self.avg_detection_seconds()
                .map(|s| format!("{s:.2} s"))
                .unwrap_or_else(|| "-".into()),
            self.unique_violation_count().to_string(),
            format!("{:.0}/s", self.throughput()),
            fmt_duration_s(self.wall.as_secs_f64()),
        )
    }

    /// The header matching [`CampaignReport::summary_row`].
    pub fn summary_header() -> String {
        let (dw, cw) = summary_name_widths();
        format!(
            "{:<dw$.dw$} {:<cw$.cw$} {:>9.9} {:>12.12} {:>7.7} {:>12.12} {:>14.14}",
            "Defense", "Contract", "Violation", "Detect time", "Unique", "Throughput", "Time"
        )
    }

    /// A 64-bit digest of everything deterministic about this report: the
    /// configuration identity (defense, contract, mode, format, seed and
    /// shape), the aggregate detector counters, and every violation's class,
    /// contract-trace digest and µarch-trace differences — but no wall-clock
    /// quantities.
    ///
    /// Two runs of the same campaign agree on this fingerprint exactly when
    /// they found the same things; in particular
    /// [`Campaign::run_sharded`] produces the same fingerprint at any
    /// worker count (asserted by
    /// `tests/shard_determinism.rs`), and an `amulet drive` run reduces
    /// wire fragments to the same fingerprint at any process count
    /// (`tests/multiproc_determinism.rs`) — the hash input is
    /// [`CampaignReport::digests`], which survives the wire protocol
    /// bit-exactly.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_parts(
            [
                self.config.defense.name(),
                self.config.contract.name(),
                self.config.mode.name(),
                self.config.format.name(),
            ],
            self.config.source.name(),
            self.config.include_l1i,
            self.config.seed,
            [
                self.config.instances as u64,
                self.config.programs_per_instance as u64,
                self.config.inputs.total() as u64,
            ],
            &self.stats,
            self.detection_times.count(),
            &self.digests,
        )
    }
}

/// The hash behind [`CampaignReport::fingerprint`], decoupled from the
/// report struct so a report reconstituted from the wire (`proto::ReportWire`)
/// can fingerprint itself bit-identically without rebuilding a full
/// [`CampaignConfig`]. `identity` is `[defense, contract, mode, format]`
/// names; `shape` is `[instances, programs_per_instance, inputs_total]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fingerprint_parts(
    identity: [&str; 4],
    source: &str,
    include_l1i: bool,
    seed: u64,
    shape: [u64; 3],
    stats: &ScanStats,
    detections: u64,
    digests: &[ViolationDigest],
) -> u64 {
    let mut fp = Fnv1a::new();
    for name in identity {
        fp.str(name);
    }
    // The speculation source folds in only when non-default, so every
    // fingerprint pinned before STL existed is byte-identical.
    if source != "PHT" {
        fp.str(source);
    }
    fp.u64(include_l1i as u64);
    fp.u64(seed);
    for n in shape {
        fp.u64(n);
    }
    fp.u64(stats.cases as u64);
    fp.u64(stats.classes as u64);
    fp.u64(stats.candidates as u64);
    fp.u64(stats.validation_runs as u64);
    fp.u64(stats.confirmed as u64);
    fp.u64(detections);
    fp.u64(digests.len() as u64);
    for d in digests {
        fp.str(d.class.paper_id());
        fp.u64(d.ctrace_digest);
        // Length-prefix each diff section so a leak moving between
        // structures (e.g. L1D → D-TLB) can never hash identically.
        for diff in [&d.l1d_diff, &d.dtlb_diff, &d.l1i_diff] {
            fp.u64(diff.len() as u64);
            for &x in diff.iter() {
                fp.u64(x);
            }
        }
    }
    fp.finish()
}

/// Defense/contract column widths: wide enough for every registered name
/// (and the header labels), so the table stays aligned as defenses are
/// added. Returned as (defense, contract).
fn summary_name_widths() -> (usize, usize) {
    let dw = DefenseKind::ALL
        .iter()
        .map(|d| d.name().len())
        .chain(["Defense".len()])
        .max()
        .unwrap();
    let cw = ContractKind::ALL
        .iter()
        .map(|c| c.name().len())
        .chain(["Contract".len()])
        .max()
        .unwrap();
    (dw, cw)
}

/// FNV-1a, length-prefixed for strings — the workspace-internal stable
/// hasher behind [`CampaignReport::fingerprint`] (`DefaultHasher` is not
/// guaranteed stable across Rust releases). Crate-visible so the corpus
/// can digest memory images with the same stable hash.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds a raw byte slice — the [`journal`](crate::journal) uses this
    /// to derive a path-safe file name from a campaign cache key.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A runnable campaign.
#[derive(Debug)]
pub struct Campaign {
    cfg: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(cfg: CampaignConfig) -> Self {
        Campaign { cfg }
    }

    /// Runs the campaign's batch plan on [`ShardConfig::workers`] in-process
    /// slots ([`run_with_slots`] with [`run_local_slot`]): the scheduler,
    /// slot loop and reducer `serve` runs, so `drive` and `serve` differ
    /// from this only in the link. Reports are fingerprint-equal at any
    /// worker count and keep the full violation artefacts.
    ///
    /// # Panics
    ///
    /// When a batch panics on every slot, with the batch's panic message.
    pub fn run_sharded(self, shard: ShardConfig) -> CampaignReport {
        let slots = shard.resolved_workers();
        run_with_slots(
            self.cfg,
            shard.batch_programs,
            None,
            slots,
            |service, id, _| run_local_slot(service, id),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs all instances (in parallel threads) and aggregates.
    ///
    /// This is the instance-stream reference: instance `i` scans
    /// `programs_per_instance` programs from one RNG stream seeded
    /// `seed + i`, so its case stream differs from the batch streams every
    /// other path runs. It stays for the unpinned paper tests
    /// (`tests/paper_findings.rs` and friends, whose class-set assertions
    /// were written against these streams) and for the benchmark's traced
    /// pipeline mirror, which replays the same streams stage by stage and
    /// checks its counters against this run's. Parallelism is capped at
    /// [`CampaignConfig::instances`]; [`Campaign::run_sharded`] saturates a
    /// many-core host independently of the instance count.
    pub fn run(self) -> CampaignReport {
        let cfg = self.cfg;
        let start = Instant::now();
        let results: Vec<InstanceResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.instances)
                .map(|i| {
                    let cfg = &cfg;
                    scope.spawn(move || run_instance(cfg, i))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("instance panicked"))
                .collect()
        });
        let wall = start.elapsed();

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
        for r in results {
            report.stats.merge(&r.stats);
            if let Some(d) = r.first_detection {
                report.detection_times.add(d.as_secs_f64());
            }
            report.violations.extend(r.violations);
        }
        report.digests = report
            .violations
            .iter()
            .map(|(v, c)| ViolationDigest::of(v, *c))
            .collect();
        report
    }
}

/// Builds the executor a campaign unit (instance or shard batch) runs on —
/// the single place campaign configuration maps to executor configuration.
pub(crate) fn executor_for(cfg: &CampaignConfig) -> Executor {
    Executor::new(ExecutorConfig {
        mode: cfg.mode,
        defense: cfg.defense,
        format: cfg.format,
        include_l1i: cfg.include_l1i,
        sim: cfg.sim.clone(),
        keep_sandbox: false,
        log_hot_path: cfg.log_hot_path,
    })
}

/// Persistent per-worker state for one campaign's units: the executor (one
/// simulator instance — construction and the cached prefill image are paid
/// once per worker, not per batch), the detector (with its contract-trace
/// machine and per-case context slots), the input-boosting scratch (taint
/// engine, sandbox images) and the recycled boosted-input and class-digest
/// slots.
///
/// Reusing this across shard batches is invisible to results:
/// [`Executor::reset_unit`] returns the executor to power-on predictor
/// state at the top of every `run_programs` call, and the detector's
/// scratch never leaks state between scans — each batch sees exactly the
/// state freshly built components would give it, so the fingerprint stays
/// worker-count-invariant (`tests/shard_determinism.rs`).
///
/// Public because out-of-process workers (`amulet worker`) hold one per
/// process and run batches through
/// [`run_batch`](crate::shard::run_batch), exactly like an in-process pool
/// thread.
#[derive(Debug, Default)]
pub struct UnitRuntime {
    executor: Option<Executor>,
    detector: Option<Detector>,
    boost: ModelScratch,
    inputs: Vec<TestInput>,
    classes: Vec<u64>,
}

impl UnitRuntime {
    /// An empty runtime; components are built lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimizes `violations` on this runtime's executor and detector.
    /// Each attempt runs under the violation's own starting context and
    /// the next unit resets the executor, so the result depends on the
    /// violation alone, never on what this runtime ran before.
    pub(crate) fn reductions(
        &mut self,
        cfg: &CampaignConfig,
        violations: &[(Violation, ViolationClass)],
    ) -> Vec<Reduction> {
        let executor = self.executor.get_or_insert_with(|| executor_for(cfg));
        let detector = self
            .detector
            .get_or_insert_with(|| Detector::new(LeakageModel::new(cfg.contract)));
        violations
            .iter()
            .map(|(v, _)| {
                let min = minimize(v, detector, executor);
                Reduction {
                    program: min.program.to_string(),
                    removed: min.removed as u64,
                    input_a: CorpusInput::of(&v.input_a),
                    input_b: CorpusInput::of(&v.input_b),
                }
            })
            .collect()
    }
}

/// The result of one campaign unit's program stream (an instance or a
/// shard batch) — both orchestrators reduce over these.
#[derive(Debug, Default)]
pub(crate) struct UnitScan {
    pub violations: Vec<(Violation, ViolationClass)>,
    pub stats: ScanStats,
    pub first_detection: Option<Duration>,
}

/// The per-program scan loop both orchestrators share: generate → boost →
/// scan → filter → classify, with find-first stopping the stream at its
/// first kept violation. `rng` seeds the generator and then drives input
/// boosting (so the unit's whole case stream flows from it); detection
/// times are measured from `anchor`; `rt` carries the executor and scratch
/// buffers across units run by the same worker.
pub(crate) fn run_programs(
    cfg: &CampaignConfig,
    rng: &mut Xoshiro256,
    programs: usize,
    anchor: Instant,
    rt: &mut UnitRuntime,
) -> UnitScan {
    let mut generator = Generator::new(cfg.generator.clone(), rng.next_u64());
    let model = LeakageModel::new(cfg.contract);
    let detector = rt
        .detector
        .get_or_insert_with(|| Detector::new(model.clone()));
    detector.skip_singletons = cfg.skip_singletons;
    let executor = rt.executor.get_or_insert_with(|| executor_for(cfg));
    executor.reset_unit();

    let mut out = UnitScan::default();
    for _ in 0..programs {
        let program = generator.program();
        let flat = program.flatten_shared();
        boosted_inputs_and_classes_into(
            &model,
            &flat,
            &cfg.inputs,
            rng,
            &mut rt.boost,
            &mut rt.inputs,
            &mut rt.classes,
        );
        let (violations, stats) =
            detector.scan_classes(&program, &flat, &rt.inputs, &rt.classes, executor);
        out.stats.merge(&stats);
        for v in violations {
            if !cfg.filter.keep(&v) {
                continue;
            }
            if out.first_detection.is_none() {
                out.first_detection = Some(anchor.elapsed());
            }
            let class = classify(&v);
            out.violations.push((v, class));
        }
        if cfg.stop_on_first && out.first_detection.is_some() {
            break;
        }
    }
    out
}

fn run_instance(cfg: &CampaignConfig, index: usize) -> InstanceResult {
    let started = Instant::now();
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed.wrapping_add(index as u64));
    let mut rt = UnitRuntime::new();
    let scan = run_programs(cfg, &mut rng, cfg.programs_per_instance, started, &mut rt);
    InstanceResult {
        violations: scan.violations,
        stats: scan.stats,
        first_detection: scan.first_detection,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_baseline_campaign_finds_v1() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.stop_on_first = true;
        cfg.instances = 2;
        cfg.programs_per_instance = 40;
        let report = Campaign::new(cfg).run();
        assert!(
            report.violation_found(),
            "the insecure baseline must violate CT-SEQ quickly ({:?})",
            report.stats
        );
        assert!(report.avg_detection_seconds().is_some());
        assert!(report.throughput() > 0.0);
        assert!(report.summary_row().contains("YES"));
    }

    #[test]
    fn ghostminion_campaign_is_clean() {
        // GhostMinion (strictness-ordered invisible speculation) should
        // survive a quick CT-SEQ campaign without violations.
        let cfg = CampaignConfig::quick(DefenseKind::GhostMinion, ContractKind::CtSeq);
        let report = Campaign::new(cfg).run();
        assert!(
            !report.violation_found(),
            "unexpected GhostMinion violations: {:?}",
            report.unique_classes()
        );
        assert!(report.stats.cases > 0);
    }

    /// Boosted inputs are built as groups sharing a contract trace, so
    /// singleton classes are the exception — and skipping them must not
    /// change what the quick campaign confirms.
    #[test]
    fn skip_singletons_preserves_quick_campaign_findings() {
        let run = |skip: bool| {
            let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
            cfg.programs_per_instance = 40;
            cfg.skip_singletons = skip;
            let r = Campaign::new(cfg).run();
            (r.unique_classes(), r.stats.confirmed, r.stats.candidates)
        };
        let (classes_all, confirmed_all, candidates_all) = run(false);
        let (classes_skip, confirmed_skip, candidates_skip) = run(true);
        assert!(
            confirmed_all > 0,
            "quick baseline campaign finds violations"
        );
        assert_eq!(classes_all, classes_skip);
        assert_eq!(confirmed_all, confirmed_skip);
        assert_eq!(candidates_all, candidates_skip);
    }

    #[test]
    fn filter_removes_known_classes() {
        let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
        cfg.stop_on_first = true;
        cfg.programs_per_instance = 40;
        cfg.filter = ViolationFilter::none()
            .suppress(ViolationClass::SpectreV1)
            .suppress(ViolationClass::SpectreV4)
            .suppress(ViolationClass::Unknown)
            .suppress(ViolationClass::SpecIFetch);
        let report = Campaign::new(cfg).run();
        assert!(
            !report.violation_found(),
            "all baseline classes suppressed, yet: {:?}",
            report.unique_classes()
        );
    }

    /// Builds a report without running a campaign (summary formatting only).
    fn synthetic_report(defense: DefenseKind, contract: ContractKind) -> CampaignReport {
        CampaignReport {
            config: CampaignConfig::quick(defense, contract),
            violations: Vec::new(),
            digests: Vec::new(),
            records: Vec::new(),
            stats: ScanStats::default(),
            wall: Duration::from_millis(1234),
            detection_times: Summary::new(),
            modeled_seconds: 0.0,
        }
    }

    /// Snapshot of the summary table layout: the header renders exactly as
    /// expected, and every defense × contract row stays column-aligned with
    /// it — including the longest registered names, which used to push
    /// later columns out of line.
    #[test]
    fn summary_rows_align_with_header_for_all_names() {
        let header = CampaignReport::summary_header();
        assert_eq!(
            header,
            "Defense             Contract Violation  Detect time  Unique   Throughput           Time",
        );
        // Column starts, as byte offsets of each header label.
        let starts: Vec<usize> = ["Defense", "Contract", "Violation", "Detect time"]
            .iter()
            .map(|label| header.find(label).unwrap())
            .collect();
        for &defense in &DefenseKind::ALL {
            for &contract in &ContractKind::ALL {
                let row = synthetic_report(defense, contract).summary_row();
                assert_eq!(
                    row.len(),
                    header.len(),
                    "row width drifted for {} / {}:\n{header}\n{row}",
                    defense.name(),
                    contract.name()
                );
                assert_eq!(
                    &row[starts[0]..starts[0] + defense.name().len()],
                    defense.name()
                );
                assert_eq!(
                    &row[starts[1]..starts[1] + contract.name().len()],
                    contract.name()
                );
                // The defense/contract names never bleed into the next column.
                assert_eq!(&row[starts[1] - 1..starts[1]], " ");
                assert_eq!(&row[starts[2] - 1..starts[2]], " ");
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_configs_and_is_stable() {
        let a = synthetic_report(DefenseKind::Baseline, ContractKind::CtSeq);
        let b = synthetic_report(DefenseKind::Baseline, ContractKind::CtSeq);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same content, same digest"
        );
        let c = synthetic_report(DefenseKind::GhostMinion, ContractKind::CtSeq);
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "defense is part of identity"
        );
        let mut d = synthetic_report(DefenseKind::Baseline, ContractKind::CtSeq);
        d.stats.cases = 1;
        assert_ne!(a.fingerprint(), d.fingerprint(), "counters are covered");
        // Wall-clock is excluded: timing noise must not change the digest.
        let mut e = synthetic_report(DefenseKind::Baseline, ContractKind::CtSeq);
        e.wall = Duration::from_secs(99);
        assert_eq!(a.fingerprint(), e.fingerprint());
        // The speculation source is part of identity — but only when it is
        // not the default, so every pre-STL pinned fingerprint holds.
        let mut f = synthetic_report(DefenseKind::Baseline, ContractKind::CtSeq);
        f.config = f.config.with_source(SpecSource::Stl);
        assert_ne!(a.fingerprint(), f.fingerprint(), "source is covered");
        let mut g = synthetic_report(DefenseKind::Baseline, ContractKind::CtSeq);
        g.config.source = SpecSource::Pht; // explicit default: folds nothing
        assert_eq!(a.fingerprint(), g.fingerprint());
    }

    /// The campaign path (boosting's class digests + `scan_classes`) and
    /// the reference path (`scan` re-emulating every contract trace) agree
    /// on every counter and every violation, program by program, on the
    /// quick shape for Baseline and STT under both speculation sources.
    #[test]
    fn scan_classes_matches_reference_scan() {
        let shapes = [
            (DefenseKind::Baseline, ContractKind::CtSeq),
            (DefenseKind::Stt, ContractKind::ArchSeq),
        ];
        let mut confirmed = 0;
        for (defense, contract) in shapes {
            for source in SpecSource::ALL {
                for seed in [2025, 2026] {
                    let mut cfg = CampaignConfig::quick(defense, contract).with_source(source);
                    cfg.seed = seed;
                    let repro = format!("{defense} {contract} {source} seed {seed}");
                    let model = LeakageModel::new(contract);
                    let mut rng = Xoshiro256::seed_from_u64(seed);
                    let mut generator = Generator::new(cfg.generator.clone(), rng.next_u64());
                    let (mut fast, mut reference) =
                        (Detector::new(model.clone()), Detector::new(model.clone()));
                    let (mut fast_exec, mut ref_exec) = (executor_for(&cfg), executor_for(&cfg));
                    let (mut inputs, mut classes) = (Vec::new(), Vec::new());
                    let mut scratch = ModelScratch::new();
                    for p in 0..cfg.programs_per_instance {
                        let program = generator.program();
                        let flat = program.flatten_shared();
                        boosted_inputs_and_classes_into(
                            &model,
                            &flat,
                            &cfg.inputs,
                            &mut rng,
                            &mut scratch,
                            &mut inputs,
                            &mut classes,
                        );
                        let (fv, fs) =
                            fast.scan_classes(&program, &flat, &inputs, &classes, &mut fast_exec);
                        let (rv, rs) = reference.scan(&program, &flat, &inputs, &mut ref_exec);
                        assert_eq!(fs, rs, "{repro} program {p}: stats differ");
                        confirmed += fs.confirmed;
                        assert_eq!(fv.len(), rv.len(), "{repro} program {p}");
                        for (f, r) in fv.iter().zip(&rv) {
                            assert_eq!(f.ctrace_digest, r.ctrace_digest, "{repro} program {p}");
                            assert_eq!(f.utrace_a, r.utrace_a, "{repro} program {p}");
                            assert_eq!(f.utrace_b, r.utrace_b, "{repro} program {p}");
                        }
                    }
                }
            }
        }
        assert!(confirmed > 0, "the differential must cover violations");
    }

    #[test]
    fn paper_scaled_shapes() {
        let cfg = CampaignConfig::paper_scaled(DefenseKind::Baseline, ContractKind::CtSeq, 1.0);
        assert_eq!(cfg.instances, 100);
        assert_eq!(cfg.programs_per_instance, 200);
        assert_eq!(cfg.inputs.total(), 140);
        assert_eq!(cfg.total_cases(), 100 * 200 * 140);
        let small = CampaignConfig::paper_scaled(DefenseKind::Baseline, ContractKind::CtSeq, 0.01);
        assert_eq!(small.instances, 1);
    }
}
