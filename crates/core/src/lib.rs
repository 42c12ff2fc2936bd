//! AMuLeT-rs core — the paper's primary contribution.
//!
//! Automated µ-architectural Leakage Testing: model-based relational testing
//! of secure-speculation countermeasures in a µarch simulator. The pipeline
//! (paper Figure 1):
//!
//! 1. [`generator`] produces short random test programs (≤5 basic blocks,
//!    sandbox-masked memory accesses) and [`inputs`] produces seeded inputs,
//!    **boosted** via the emulator's taint engine so every base input yields
//!    a class of inputs with provably equal contract traces.
//! 2. The leakage model (`amulet-contracts`) maps each test case to a
//!    contract trace.
//! 3. The [`executor`] runs each test case on the simulator+defense and
//!    extracts a µarch trace in one of the §4.3 [`trace`] formats
//!    (AMuLeT-Opt reuses the simulator across inputs; AMuLeT-Naive pays the
//!    startup cost per input, accounted by the gem5-calibrated [`cost`]
//!    model).
//! 4. [`detect`] flags contract violations (Definition 2.1: equal contract
//!    traces, different µarch traces), validating candidates by re-running
//!    both inputs under exchanged initial µarch contexts.
//! 5. [`analyze`] classifies violations against the paper's catalogue
//!    (Spectre-v1/v4, UV1–UV6, KV1–KV3) from debug-log signatures and
//!    supports signature-based filtering of known classes (§3.3).
//! 6. [`campaign`] orchestrates multi-instance testing campaigns with the
//!    paper's metrics: throughput, detection time, unique violations, and
//!    [`shard`] splits a campaign into deterministic batches that any
//!    number of workers can run with worker-count-independent results.
//!    [`service`] schedules those batches for every path. [`proto`] carries
//!    the same batches and fragments across *process* boundaries — the
//!    wire protocol behind `amulet drive` / `amulet worker` — with
//!    fingerprints equal to the in-process run at any process count.
//! 7. The same [`service`] backs the long-lived daemon (`amulet serve`):
//!    many concurrent campaigns fair-share one worker fleet, repeated
//!    submits hit a fingerprint-keyed result cache, and every
//!    validated violation lands in the persisted [`corpus`]. [`journal`]
//!    makes the daemon crash-safe: a per-campaign write-ahead log plus a
//!    persisted result cache let a restarted service replay completed
//!    campaigns byte-identically and resume interrupted ones from the
//!    journaled batch prefix, fingerprints unchanged.
//!
//! # Examples
//!
//! ```no_run
//! use amulet_core::{Campaign, CampaignConfig, ShardConfig};
//! use amulet_defenses::DefenseKind;
//! use amulet_contracts::ContractKind;
//!
//! // Batches of 4 programs, scheduled over every available core.
//! let cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
//! let report = Campaign::new(cfg).run_sharded(ShardConfig::default());
//! println!("{}", report.summary_row());
//! println!("{:#018x}", report.fingerprint());
//! ```

pub mod analyze;
pub mod boundary;
pub mod campaign;
pub mod corpus;
pub mod cost;
pub mod detect;
pub mod executor;
pub mod generator;
pub mod inputs;
pub mod journal;
pub mod minimize;
pub mod proto;
pub mod service;
pub mod shard;
pub mod trace;

pub use analyze::{classify, ViolationClass, ViolationFilter};
pub use boundary::{boundary_row, BoundaryRow, ContractVerdict};
pub use campaign::{
    Campaign, CampaignConfig, CampaignReport, SpecSource, UnitRuntime, ViolationDigest,
    DEFAULT_SEED, STL_WINDOW,
};
pub use corpus::{records_from_report, Corpus, CorpusInput, CorpusRecord, Reduction};
pub use cost::{CostModel, TimeBreakdown};
pub use detect::{Detector, ScanStats, Violation};
pub use executor::{CaseDigest, CaseRun, ExecMode, Executor, ExecutorConfig};
pub use generator::{Generator, GeneratorConfig};
pub use inputs::{
    boosted_inputs, boosted_inputs_and_classes_into, boosted_inputs_into, InputGenConfig,
};
pub use journal::{load_journal, CrashPlan, JournalHeader, JournalReplay, Recovery, StateDir};
pub use minimize::{minimize, Minimized};
pub use proto::{CampaignSpec, FragmentReport, Hello, Msg, ReportWire, ResultMsg, PROTO_VERSION};
pub use service::{run_local_slot, run_with_slots, Admission, Lease, LeaseWait, Service};
pub use shard::{
    plan_batches, reduce_fragments, run_batch, verify_fragment_coverage, BatchSpec, Fragment,
    ShardConfig,
};
pub use trace::{TraceFormat, UTrace};
