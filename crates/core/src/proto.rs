//! The multi-process campaign wire protocol.
//!
//! `amulet drive` scales a campaign past one process by shipping
//! [`BatchSpec`] assignments to `amulet worker` processes over
//! stdin/stdout pipes and streaming per-batch [`FragmentReport`]s back.
//! This module is the wire format: a versioned, line-oriented JSON protocol
//! ([one message per line](Msg::to_line), built on the workspace's
//! hand-rolled [`JsonObj`] writer and [`parse_json`] parser — no
//! serialisation dependency).
//!
//! # Message flow
//!
//! ```text
//! worker → driver   {"type":"hello", ...}        once, on startup (version + config echo)
//! driver → worker   {"type":"ping", ...}         liveness probe (heartbeat)
//! worker → driver   {"type":"pong", ...}         probe echo (same token)
//! driver → worker   {"type":"cancel", ...}       find-first broadcast (optional)
//! driver → worker   {"type":"batch", ...}        one assignment
//! worker → driver   {"type":"fragment", ...}     the assignment's result
//! driver → worker   {"type":"shutdown"}          end of plan; worker exits
//! ```
//!
//! Protocol v3 adds the *service* half — the client ↔ `amulet serve`
//! conversation (see [`crate::service`] and `docs/DISTRIBUTED.md`):
//!
//! ```text
//! client → service  {"type":"submit", ...}           one campaign request
//! service → client  {"type":"accepted", ...}         campaign id (+ cache verdict)
//! service → client  {"type":"progress", ...}         streamed batch progress
//! service → client  {"type":"result", ...}           the final report (or error)
//! client → service  {"type":"cancel_campaign", ...}  abandon a submitted campaign
//! ```
//!
//! # Determinism contract
//!
//! Everything the campaign fingerprint hashes crosses the wire bit-exactly:
//! detector counters are JSON integers (parsed into exact `u64`s, never
//! through `f64`), and 64-bit digests and diff entries are hex *strings* so
//! even external double-based JSON readers can consume fragment logs
//! without rounding. Wall-clock fields (`first_detection_s`) are advisory —
//! the fingerprint covers their presence, not their value.
//!
//! # Examples
//!
//! Every message type survives serialise → parse unchanged:
//!
//! ```
//! use amulet_core::proto::{FragmentReport, Msg};
//! use amulet_core::shard::BatchSpec;
//!
//! let batch = Msg::Batch(BatchSpec { index: 7, instance: 1, batch: 3, programs: 4, records: false });
//! let line = batch.to_line();
//! assert!(line.starts_with(r#"{"type":"batch""#));
//! assert_eq!(Msg::parse_line(&line).unwrap(), batch);
//!
//! let frag = Msg::Fragment(FragmentReport::skipped(9));
//! assert_eq!(Msg::parse_line(&frag.to_line()).unwrap(), frag);
//! ```

use crate::analyze::ViolationClass;
use crate::campaign::{self, CampaignConfig, CampaignReport, SpecSource, ViolationDigest};
use crate::corpus::{reduction_from_json, reduction_to_json, Reduction};
use crate::detect::ScanStats;
use crate::shard::{BatchSpec, Fragment};
use amulet_contracts::ContractKind;
use amulet_defenses::DefenseKind;
use amulet_util::json::{parse_json, JsonObj, JsonValue};
use std::time::Duration;

/// Wire protocol version. The worker's [`Msg::Hello`] carries it; the
/// driver refuses to drive a worker speaking any other version.
///
/// Version 2 added the `ping`/`pong` heartbeat pair — the liveness layer a
/// cross-host transport needs (a pipe to a child process fails fast on
/// crash; a TCP peer can wedge silently).
///
/// Version 3 added the service messages (`submit`/`accepted`/`progress`/
/// `result`/`cancel_campaign`) spoken between clients and `amulet serve`.
/// The worker-facing half of the protocol is unchanged.
///
/// Version 4 added `recovering`, the crash-recovery progress note a
/// state-dir-backed service sends after `accepted` when it resumed the
/// campaign from a write-ahead journal instead of starting from batch
/// zero. Purely informational — the `result` is fingerprint-identical
/// either way.
///
/// Version 5 added the overload/drain pair: `rejected` (a submit shed by
/// admission control, carrying the reason and an actionable
/// `retry_after_ms` hint) and `draining` (the service is shutting down
/// gracefully: no new campaigns are admitted, in-flight work is finished
/// or journal-checkpointed). Neither carries campaign state, so neither
/// can perturb a fingerprint.
///
/// Version 6 added two optional fields for corpus records: `"records":true`
/// on a `batch` asks the worker to minimize the batch's violations, and the
/// answering `fragment` carries a `records` array parallel to
/// `violations`. Both are omitted when absent, so older lines parse and
/// re-encode byte-identically; the bump makes an older worker fail at
/// `hello` instead of answering a records batch without records.
pub const PROTO_VERSION: u64 = 6;

/// The worker's startup announcement: protocol version plus an echo of the
/// campaign identity it resolved from its command line, so a driver/worker
/// flag mismatch fails the handshake instead of silently producing a
/// fingerprint from a different campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The worker's [`PROTO_VERSION`].
    pub proto: u64,
    /// Defense display name (e.g. `"Baseline"`).
    pub defense: String,
    /// Contract paper name (e.g. `"CT-SEQ"`).
    pub contract: String,
    /// Speculation source name (`"PHT"`/`"STL"`). Absent on the wire means
    /// `"PHT"`, so pre-STL workers interoperate — and a worker that does
    /// not understand `--source` announces `"PHT"` and fails the handshake
    /// loudly when the driver expects STL.
    pub source: String,
    /// Campaign seed.
    pub seed: u64,
    /// Campaign instances — with `programs` and `inputs`, the shape echo
    /// that catches a `--scale` mismatch (same defense/contract/seed,
    /// different case stream).
    pub instances: u64,
    /// Programs per instance.
    pub programs: u64,
    /// Inputs per program.
    pub inputs: u64,
}

impl Hello {
    /// The hello a worker running `cfg` announces.
    pub fn for_config(cfg: &CampaignConfig) -> Self {
        Hello {
            proto: PROTO_VERSION,
            defense: cfg.defense.name().to_string(),
            contract: cfg.contract.name().to_string(),
            source: cfg.source.name().to_string(),
            seed: cfg.seed,
            instances: cfg.instances as u64,
            programs: cfg.programs_per_instance as u64,
            inputs: cfg.inputs.total() as u64,
        }
    }

    /// Checks this hello against the driver's expectation, returning a
    /// description of the first mismatch.
    pub fn check(&self, cfg: &CampaignConfig) -> Result<(), String> {
        if self.proto != PROTO_VERSION {
            return Err(format!(
                "protocol version mismatch: worker speaks v{}, driver v{PROTO_VERSION}",
                self.proto
            ));
        }
        let expect = Hello::for_config(cfg);
        if *self != expect {
            return Err(format!(
                "config mismatch: worker announced {}/{}/{} seed {} shape {}x{}x{}, \
                 driver expects {}/{}/{} seed {} shape {}x{}x{}",
                self.defense,
                self.contract,
                self.source,
                self.seed,
                self.instances,
                self.programs,
                self.inputs,
                expect.defense,
                expect.contract,
                expect.source,
                expect.seed,
                expect.instances,
                expect.programs,
                expect.inputs
            ));
        }
        Ok(())
    }
}

/// One batch's results in wire form: the deterministic reduction inputs
/// (counters + violation digests) plus, when the batch asked for records,
/// each violation's minimized [`Reduction`]. The full artefacts — the
/// original programs, starting contexts and debug logs — stay in the
/// worker process.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentReport {
    /// Global batch index this fragment answers.
    pub index: usize,
    /// True when the worker skipped execution because the batch index lies
    /// past a received [`Msg::Cancel`] floor. Skipped fragments carry zero
    /// stats and are always past the earliest hit, so the reducer drops
    /// them with the rest of the post-hit suffix.
    pub skipped: bool,
    /// Detector counters for this batch.
    pub stats: ScanStats,
    /// Seconds from the worker's anchor to the batch's first confirmation.
    pub first_detection_s: Option<f64>,
    /// Per-violation deterministic digests, in confirmation order.
    pub violations: Vec<ViolationDigest>,
    /// Minimized corpus fields, parallel to `violations` (empty unless the
    /// batch asked for records).
    pub records: Vec<Reduction>,
}

impl FragmentReport {
    /// The wire form of an executed [`Fragment`].
    pub fn from_fragment(frag: &Fragment) -> Self {
        FragmentReport {
            index: frag.index,
            skipped: false,
            stats: frag.stats,
            first_detection_s: frag.first_detection.map(|d| d.as_secs_f64()),
            violations: frag.digests.clone(),
            records: frag.records.clone(),
        }
    }

    /// A skipped-batch acknowledgement (see [`FragmentReport::skipped`]).
    pub fn skipped(index: usize) -> Self {
        FragmentReport {
            index,
            skipped: true,
            stats: ScanStats::default(),
            first_detection_s: None,
            violations: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Converts back into the reducer's [`Fragment`] (digests and records;
    /// the `violations` artefact list stays empty). An out-of-range detection
    /// time degrades to `None` rather than panicking — [`Msg::parse_line`]
    /// already rejects such values, this is the backstop for hand-built
    /// reports.
    pub fn into_fragment(self) -> Fragment {
        Fragment {
            index: self.index,
            violations: Vec::new(),
            digests: self.violations,
            records: self.records,
            stats: self.stats,
            first_detection: self
                .first_detection_s
                .and_then(|s| Duration::try_from_secs_f64(s).ok()),
        }
    }
}

/// A client's campaign request in wire form — everything needed to rebuild
/// the [`CampaignConfig`] the service will run, and nothing more. Two
/// submits with equal fields are by definition the same deterministic
/// campaign, so [`CampaignSpec::cache_key`] is the service's result-cache
/// key.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Defense display name (e.g. `"Baseline"`) — resolved against the
    /// registry, exact match.
    pub defense: String,
    /// Contract paper name (e.g. `"CT-SEQ"`).
    pub contract: String,
    /// Speculation source name (`"PHT"`/`"STL"`); absent on the wire means
    /// `"PHT"` (pre-STL clients).
    pub source: String,
    /// Campaign seed.
    pub seed: u64,
    /// `None` = the quick shape; `Some(s)` = [`CampaignConfig::paper_scaled`]
    /// at scale `s` (must be finite and positive).
    pub scale: Option<f64>,
    /// Stop at the first confirmed violation.
    pub find_first: bool,
    /// Programs per wire batch (the shard-plan granularity — part of the
    /// campaign identity because it shapes the batch plan).
    pub batch_programs: usize,
    /// Simulator cycle-skip (on by default; off for warp-regression runs).
    pub cycle_skip: bool,
}

impl CampaignSpec {
    /// Resolves the spec into a runnable [`CampaignConfig`], rejecting
    /// unknown names and degenerate shapes with a client-facing message.
    pub fn resolve(&self) -> Result<CampaignConfig, String> {
        let defense = DefenseKind::ALL
            .iter()
            .copied()
            .find(|d| d.name() == self.defense)
            .ok_or_else(|| format!("unknown defense {:?}", self.defense))?;
        let contract = ContractKind::ALL
            .iter()
            .copied()
            .find(|c| c.name() == self.contract)
            .ok_or_else(|| format!("unknown contract {:?}", self.contract))?;
        let source = SpecSource::from_name(&self.source)
            .ok_or_else(|| format!("unknown source {:?}", self.source))?;
        let cfg = match self.scale {
            Some(s) if s.is_finite() && s > 0.0 => {
                CampaignConfig::paper_scaled(defense, contract, s)
            }
            Some(s) => return Err(format!("scale must be finite and positive, got {s}")),
            None => CampaignConfig::quick(defense, contract),
        };
        if self.batch_programs == 0 {
            return Err("batch must be at least 1".into());
        }
        let mut cfg = cfg.with_source(source);
        cfg.seed = self.seed;
        cfg.stop_on_first = self.find_first;
        cfg.sim.cycle_skip = self.cycle_skip;
        Ok(cfg)
    }

    /// The service's result-cache key: every field that shapes the
    /// deterministic outcome, and nothing wall-clock. `scale` enters via
    /// its bit pattern so `0.1 + 0.2`-style float surprises cannot alias
    /// distinct campaigns.
    pub fn cache_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{:?}|{}|{}|{}",
            self.defense,
            self.contract,
            self.source,
            self.seed,
            self.scale.map(f64::to_bits),
            self.find_first,
            self.batch_programs,
            self.cycle_skip
        )
    }
}

/// A completed campaign report in wire form: the fingerprint inputs —
/// config identity, aggregate counters, violation digests — but no
/// wall-clock fields, so a cached replay is byte-identical to the first
/// serve by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportWire {
    /// Defense display name.
    pub defense: String,
    /// Contract paper name.
    pub contract: String,
    /// Execution mode name (`"Naive"`/`"Opt"`).
    pub mode: String,
    /// Trace format name.
    pub format: String,
    /// Speculation source name (`"PHT"`/`"STL"`); absent on the wire means
    /// `"PHT"`.
    pub source: String,
    /// Whether the baseline trace included the L1I.
    pub include_l1i: bool,
    /// Campaign seed.
    pub seed: u64,
    /// Campaign instances.
    pub instances: u64,
    /// Programs per instance.
    pub programs: u64,
    /// Inputs per program.
    pub inputs: u64,
    /// Aggregate detector counters.
    pub stats: ScanStats,
    /// Number of recorded first-detection samples.
    pub detections: u64,
    /// Deduplicated violation digests, in confirmation order.
    pub digests: Vec<ViolationDigest>,
}

impl ReportWire {
    /// The wire form of a completed [`CampaignReport`].
    pub fn from_report(report: &CampaignReport) -> Self {
        ReportWire {
            defense: report.config.defense.name().to_string(),
            contract: report.config.contract.name().to_string(),
            mode: report.config.mode.name().to_string(),
            format: report.config.format.name().to_string(),
            source: report.config.source.name().to_string(),
            include_l1i: report.config.include_l1i,
            seed: report.config.seed,
            instances: report.config.instances as u64,
            programs: report.config.programs_per_instance as u64,
            inputs: report.config.inputs.total() as u64,
            stats: report.stats,
            detections: report.detection_times.count(),
            digests: report.digests.clone(),
        }
    }

    /// Exactly [`CampaignReport::fingerprint`] computed from the wire
    /// fields — the two agree bit-for-bit for a report and its wire form
    /// (asserted by this module's tests).
    pub fn fingerprint(&self) -> u64 {
        campaign::fingerprint_parts(
            [&self.defense, &self.contract, &self.mode, &self.format],
            &self.source,
            self.include_l1i,
            self.seed,
            [self.instances, self.programs, self.inputs],
            &self.stats,
            self.detections,
            &self.digests,
        )
    }
}

/// The terminal message of one submitted campaign: a report, a clean
/// cancellation, or an error — exactly one of which is populated.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultMsg {
    /// The campaign id from the matching [`Msg::Accepted`].
    pub campaign: u64,
    /// True when this result was served from the fingerprint-keyed cache
    /// (in which case `executed_batches` is 0).
    pub cached: bool,
    /// True when the campaign ended via [`Msg::CancelCampaign`]; `report`
    /// is absent.
    pub cancelled: bool,
    /// Batches the service actually executed for this campaign.
    pub executed_batches: u64,
    /// The completed report (absent on cancellation or error).
    pub report: Option<ReportWire>,
    /// A client-facing failure description (absent on success).
    pub error: Option<String>,
}

/// A wire message — one JSON object per line, discriminated by its
/// `"type"` tag.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → driver, once on startup: version handshake + config echo.
    Hello(Hello),
    /// Driver → worker: liveness probe. A live worker answers immediately
    /// with a [`Msg::Pong`] echoing the token; a driver that hears nothing
    /// within its liveness deadline declares the link dead. Carries no
    /// campaign state, so probes can never perturb results.
    Ping {
        /// Opaque echo token matching a probe to its reply.
        token: u64,
    },
    /// Worker → driver: probe echo (same token).
    Pong {
        /// The token of the [`Msg::Ping`] this answers.
        token: u64,
    },
    /// Driver → worker: execute this batch and answer with a fragment.
    Batch(BatchSpec),
    /// Driver → worker: a violation was confirmed in batch `earliest`;
    /// batches with a greater index may be answered with a skipped
    /// fragment.
    Cancel {
        /// Earliest batch index with a confirmed violation so far.
        earliest: usize,
    },
    /// Driver → worker: no more batches; exit cleanly.
    Shutdown,
    /// Worker → driver: one batch's results.
    Fragment(FragmentReport),
    /// Client → service: run this campaign.
    Submit(CampaignSpec),
    /// Service → client: the submit was accepted under this campaign id.
    /// `cached: true` means the result is already known — the matching
    /// [`Msg::CampaignResult`] follows immediately and no batch will run.
    Accepted {
        /// Service-assigned campaign id (scopes progress/result/cancel).
        campaign: u64,
        /// Whether the result is served from the cache.
        cached: bool,
    },
    /// Service → client (protocol v5): the submit was *shed* by admission
    /// control — no campaign id was assigned and no batch will run. The
    /// client should wait roughly `retry_after_ms` and resubmit; the
    /// identical spec converges on the identical fingerprint whenever it
    /// is finally admitted.
    Rejected {
        /// Why the submit was shed (queue full, quota, draining).
        reason: String,
        /// The service's actionable backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// Service → client (protocol v4): sent right after [`Msg::Accepted`]
    /// when the service resumed this campaign from an on-disk write-ahead
    /// journal — `recovered` of the `total` planned batches replayed from
    /// the journal and will not be re-executed. Informational: the final
    /// `result` is fingerprint-identical to an uninterrupted run.
    Recovering {
        /// The campaign being resumed.
        campaign: u64,
        /// Batches replayed from the journal.
        recovered: u64,
        /// Batches in the campaign's plan.
        total: u64,
    },
    /// Service → client: streamed progress for one campaign.
    Progress {
        /// The campaign this progress belongs to.
        campaign: u64,
        /// Batches completed so far.
        done: u64,
        /// Batches in the campaign's plan.
        total: u64,
        /// Test cases executed so far (cumulative).
        cases: u64,
    },
    /// Service → client: the campaign's terminal message (tag `"result"`).
    CampaignResult(ResultMsg),
    /// Service → client (protocol v5): the service received a drain
    /// request (SIGTERM). No new campaigns are admitted; `active` ones
    /// are finished (no state dir) or journal-checkpointed (state dir —
    /// resubmit after the restart to resume batch-granularly). The
    /// session ends shortly after this message.
    Draining {
        /// Campaigns still in flight at drain time.
        active: u64,
    },
    /// Client → service: abandon a submitted campaign. Batches already
    /// leased may still complete; no result report is produced.
    CancelCampaign {
        /// The campaign id from [`Msg::Accepted`].
        campaign: u64,
    },
}

impl Msg {
    /// Every `"type"` tag the protocol emits, in flow order. The operator's
    /// handbook (`docs/DISTRIBUTED.md`) documents exactly this set — a test
    /// asserts the two never drift apart.
    pub const TAGS: [&'static str; 15] = [
        "hello",
        "ping",
        "pong",
        "batch",
        "cancel",
        "shutdown",
        "fragment",
        "submit",
        "accepted",
        "rejected",
        "recovering",
        "progress",
        "result",
        "draining",
        "cancel_campaign",
    ];

    /// This message's `"type"` tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::Hello(_) => "hello",
            Msg::Ping { .. } => "ping",
            Msg::Pong { .. } => "pong",
            Msg::Batch(_) => "batch",
            Msg::Cancel { .. } => "cancel",
            Msg::Shutdown => "shutdown",
            Msg::Fragment(_) => "fragment",
            Msg::Submit(_) => "submit",
            Msg::Accepted { .. } => "accepted",
            Msg::Rejected { .. } => "rejected",
            Msg::Recovering { .. } => "recovering",
            Msg::Progress { .. } => "progress",
            Msg::CampaignResult(_) => "result",
            Msg::Draining { .. } => "draining",
            Msg::CancelCampaign { .. } => "cancel_campaign",
        }
    }

    /// Serialises to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let obj = JsonObj::new().str("type", self.tag());
        match self {
            Msg::Hello(h) => {
                let mut out = obj
                    .int("proto", h.proto)
                    .str("defense", &h.defense)
                    .str("contract", &h.contract);
                // The default source is omitted (like Submit's `scale`), so
                // PHT hello lines are byte-identical to pre-STL ones.
                if h.source != "PHT" {
                    out = out.str("source", &h.source);
                }
                // Strings for the same reason report lines use them: a u64
                // above 2^53 would be rounded by double-based readers.
                out.str("seed", &h.seed.to_string())
                    .int("instances", h.instances)
                    .int("programs", h.programs)
                    .int("inputs", h.inputs)
                    .finish()
            }
            Msg::Ping { token } | Msg::Pong { token } => obj.int("token", *token).finish(),
            Msg::Batch(b) => {
                let out = obj
                    .int("index", b.index as u64)
                    .int("instance", b.instance as u64)
                    .int("batch", b.batch as u64)
                    .int("programs", b.programs as u64);
                if b.records {
                    out.bool("records", true)
                } else {
                    out
                }
                .finish()
            }
            Msg::Cancel { earliest } => obj.int("earliest", *earliest as u64).finish(),
            Msg::Shutdown => obj.finish(),
            Msg::Fragment(f) => {
                let mut out = obj.int("index", f.index as u64).bool("skipped", f.skipped);
                out = out
                    .int("cases", f.stats.cases as u64)
                    .int("classes", f.stats.classes as u64)
                    .int("candidates", f.stats.candidates as u64)
                    .int("validation_runs", f.stats.validation_runs as u64)
                    .int("confirmed", f.stats.confirmed as u64)
                    .int("sim_cycles", f.stats.sim_cycles)
                    .int("warped_cycles", f.stats.warped_cycles);
                if let Some(s) = f.first_detection_s {
                    out = out.num("first_detection_s", s);
                }
                let violations: Vec<String> = f.violations.iter().map(violation_to_json).collect();
                out = out.raw("violations", &format!("[{}]", violations.join(",")));
                if !f.records.is_empty() {
                    let records: Vec<String> = f.records.iter().map(reduction_to_json).collect();
                    out = out.raw("records", &format!("[{}]", records.join(",")));
                }
                out.finish()
            }
            Msg::Submit(s) => {
                let mut out = obj.str("defense", &s.defense).str("contract", &s.contract);
                if s.source != "PHT" {
                    out = out.str("source", &s.source);
                }
                let mut out = out.str("seed", &s.seed.to_string());
                if let Some(scale) = s.scale {
                    out = out.num("scale", scale);
                }
                out.bool("find_first", s.find_first)
                    .int("batch", s.batch_programs as u64)
                    .bool("cycle_skip", s.cycle_skip)
                    .finish()
            }
            Msg::Accepted { campaign, cached } => obj
                .int("campaign", *campaign)
                .bool("cached", *cached)
                .finish(),
            Msg::Rejected {
                reason,
                retry_after_ms,
            } => obj
                .str("reason", reason)
                .int("retry_after_ms", *retry_after_ms)
                .finish(),
            Msg::Draining { active } => obj.int("active", *active).finish(),
            Msg::Recovering {
                campaign,
                recovered,
                total,
            } => obj
                .int("campaign", *campaign)
                .int("recovered", *recovered)
                .int("total", *total)
                .finish(),
            Msg::Progress {
                campaign,
                done,
                total,
                cases,
            } => obj
                .int("campaign", *campaign)
                .int("done", *done)
                .int("total", *total)
                .int("cases", *cases)
                .finish(),
            Msg::CampaignResult(r) => {
                let mut out = obj
                    .int("campaign", r.campaign)
                    .bool("cached", r.cached)
                    .bool("cancelled", r.cancelled)
                    .int("executed_batches", r.executed_batches);
                if let Some(rep) = &r.report {
                    // The fingerprint rides along redundantly so scripts
                    // can diff results without recomputing the hash; the
                    // parser verifies it against the report fields.
                    out = out
                        .raw("report", &report_to_json(rep))
                        .str("fingerprint", &format!("{:#018x}", rep.fingerprint()));
                }
                if let Some(e) = &r.error {
                    out = out.str("error", e);
                }
                out.finish()
            }
            Msg::CancelCampaign { campaign } => obj.int("campaign", *campaign).finish(),
        }
    }

    /// Parses one JSON line back into a message.
    ///
    /// # Examples
    ///
    /// ```
    /// use amulet_core::proto::Msg;
    ///
    /// let msg = Msg::parse_line(r#"{"type":"cancel","earliest":3}"#).unwrap();
    /// assert_eq!(msg, Msg::Cancel { earliest: 3 });
    /// assert!(Msg::parse_line(r#"{"type":"warp"}"#).is_err());
    /// ```
    pub fn parse_line(line: &str) -> Result<Msg, String> {
        let v = parse_json(line.trim())?;
        let tag = str_field(&v, "type")?;
        match tag {
            "hello" => Ok(Msg::Hello(Hello {
                proto: u64_field(&v, "proto")?,
                defense: str_field(&v, "defense")?.to_string(),
                contract: str_field(&v, "contract")?.to_string(),
                source: source_field(&v)?,
                seed: str_field(&v, "seed")?
                    .parse()
                    .map_err(|_| "hello: bad seed".to_string())?,
                instances: u64_field(&v, "instances")?,
                programs: u64_field(&v, "programs")?,
                inputs: u64_field(&v, "inputs")?,
            })),
            "ping" => Ok(Msg::Ping {
                token: u64_field(&v, "token")?,
            }),
            "pong" => Ok(Msg::Pong {
                token: u64_field(&v, "token")?,
            }),
            "batch" => Ok(Msg::Batch(BatchSpec {
                index: usize_field(&v, "index")?,
                instance: usize_field(&v, "instance")?,
                batch: usize_field(&v, "batch")?,
                programs: usize_field(&v, "programs")?,
                records: v
                    .get("records")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
            })),
            "cancel" => Ok(Msg::Cancel {
                earliest: usize_field(&v, "earliest")?,
            }),
            "shutdown" => Ok(Msg::Shutdown),
            "fragment" => {
                let stats = ScanStats {
                    cases: usize_field(&v, "cases")?,
                    classes: usize_field(&v, "classes")?,
                    candidates: usize_field(&v, "candidates")?,
                    validation_runs: usize_field(&v, "validation_runs")?,
                    confirmed: usize_field(&v, "confirmed")?,
                    sim_cycles: u64_field(&v, "sim_cycles")?,
                    warped_cycles: u64_field(&v, "warped_cycles")?,
                };
                let violations = v
                    .get("violations")
                    .and_then(JsonValue::as_arr)
                    .ok_or("fragment: missing violations array")?
                    .iter()
                    .map(violation_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let records = match v.get("records") {
                    None | Some(JsonValue::Null) => Vec::new(),
                    Some(arr) => arr
                        .as_arr()
                        .ok_or("fragment: records must be an array")?
                        .iter()
                        .map(reduction_from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                };
                // Validate here so a malformed worker yields a protocol
                // error, not a Duration-conversion panic downstream. The
                // parser can produce non-finite values (`1e999` → inf) and
                // `Duration::from_secs_f64` panics at or above 2^64
                // seconds, so both bounds are load-bearing.
                let first_detection_s = match v.get("first_detection_s").and_then(JsonValue::as_f64)
                {
                    Some(s) if !s.is_finite() || s < 0.0 || s >= u64::MAX as f64 => {
                        return Err(format!("fragment: bad first_detection_s {s}"))
                    }
                    other => other,
                };
                Ok(Msg::Fragment(FragmentReport {
                    index: usize_field(&v, "index")?,
                    skipped: v
                        .get("skipped")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false),
                    stats,
                    first_detection_s,
                    violations,
                    records,
                }))
            }
            "submit" => {
                // `scale` may arrive as an integer (`"scale":1`) from
                // hand-written clients; `as_f64` covers both JSON number
                // shapes. Absent means the quick shape.
                let scale = match v.get("scale") {
                    None | Some(JsonValue::Null) => None,
                    Some(x) => Some(x.as_f64().ok_or("submit: bad scale")?),
                };
                Ok(Msg::Submit(CampaignSpec {
                    defense: str_field(&v, "defense")?.to_string(),
                    contract: str_field(&v, "contract")?.to_string(),
                    source: source_field(&v)?,
                    seed: str_field(&v, "seed")?
                        .parse()
                        .map_err(|_| "submit: bad seed".to_string())?,
                    scale,
                    find_first: bool_field(&v, "find_first")?,
                    batch_programs: usize_field(&v, "batch")?,
                    cycle_skip: bool_field(&v, "cycle_skip")?,
                }))
            }
            "accepted" => Ok(Msg::Accepted {
                campaign: u64_field(&v, "campaign")?,
                cached: bool_field(&v, "cached")?,
            }),
            "rejected" => Ok(Msg::Rejected {
                reason: str_field(&v, "reason")?.to_string(),
                retry_after_ms: u64_field(&v, "retry_after_ms")?,
            }),
            "draining" => Ok(Msg::Draining {
                active: u64_field(&v, "active")?,
            }),
            "recovering" => Ok(Msg::Recovering {
                campaign: u64_field(&v, "campaign")?,
                recovered: u64_field(&v, "recovered")?,
                total: u64_field(&v, "total")?,
            }),
            "progress" => Ok(Msg::Progress {
                campaign: u64_field(&v, "campaign")?,
                done: u64_field(&v, "done")?,
                total: u64_field(&v, "total")?,
                cases: u64_field(&v, "cases")?,
            }),
            "result" => {
                let report = match v.get("report") {
                    None | Some(JsonValue::Null) => None,
                    Some(obj) => Some(report_from_json(obj)?),
                };
                if let Some(rep) = &report {
                    // The redundant fingerprint must agree with the report
                    // it annotates — a mismatch means wire corruption or a
                    // buggy peer, either way a protocol error.
                    let claimed = hex_u64(str_field(&v, "fingerprint")?)?;
                    if claimed != rep.fingerprint() {
                        return Err(format!(
                            "result: fingerprint {claimed:#018x} does not match report ({:#018x})",
                            rep.fingerprint()
                        ));
                    }
                }
                let error = match v.get("error") {
                    None | Some(JsonValue::Null) => None,
                    Some(e) => Some(
                        e.as_str()
                            .ok_or("result: error must be a string")?
                            .to_string(),
                    ),
                };
                Ok(Msg::CampaignResult(ResultMsg {
                    campaign: u64_field(&v, "campaign")?,
                    cached: bool_field(&v, "cached")?,
                    cancelled: bool_field(&v, "cancelled")?,
                    executed_batches: u64_field(&v, "executed_batches")?,
                    report,
                    error,
                }))
            }
            "cancel_campaign" => Ok(Msg::CancelCampaign {
                campaign: u64_field(&v, "campaign")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

/// Serialises a [`ReportWire`] as a JSON object (the `"report"` value of a
/// `result` line). Counters are exact integers, the seed a string, and
/// violation digests ride the same hex encoding as fragment lines — the
/// cache-replay byte-identity contract depends on this function being
/// deterministic.
fn report_to_json(r: &ReportWire) -> String {
    let violations: Vec<String> = r.digests.iter().map(violation_to_json).collect();
    let mut out = JsonObj::new()
        .str("defense", &r.defense)
        .str("contract", &r.contract)
        .str("mode", &r.mode)
        .str("format", &r.format);
    // Omitted when default, so cached PHT result lines replay byte-identically
    // against journals written before the field existed.
    if r.source != "PHT" {
        out = out.str("source", &r.source);
    }
    out.bool("include_l1i", r.include_l1i)
        .str("seed", &r.seed.to_string())
        .int("instances", r.instances)
        .int("programs", r.programs)
        .int("inputs", r.inputs)
        .int("cases", r.stats.cases as u64)
        .int("classes", r.stats.classes as u64)
        .int("candidates", r.stats.candidates as u64)
        .int("validation_runs", r.stats.validation_runs as u64)
        .int("confirmed", r.stats.confirmed as u64)
        .int("sim_cycles", r.stats.sim_cycles)
        .int("warped_cycles", r.stats.warped_cycles)
        .int("detections", r.detections)
        .raw("violations", &format!("[{}]", violations.join(",")))
        .finish()
}

fn report_from_json(v: &JsonValue) -> Result<ReportWire, String> {
    let digests = v
        .get("violations")
        .and_then(JsonValue::as_arr)
        .ok_or("report: missing violations array")?
        .iter()
        .map(violation_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ReportWire {
        defense: str_field(v, "defense")?.to_string(),
        contract: str_field(v, "contract")?.to_string(),
        mode: str_field(v, "mode")?.to_string(),
        format: str_field(v, "format")?.to_string(),
        source: source_field(v)?,
        include_l1i: bool_field(v, "include_l1i")?,
        seed: str_field(v, "seed")?
            .parse()
            .map_err(|_| "report: bad seed".to_string())?,
        instances: u64_field(v, "instances")?,
        programs: u64_field(v, "programs")?,
        inputs: u64_field(v, "inputs")?,
        stats: ScanStats {
            cases: usize_field(v, "cases")?,
            classes: usize_field(v, "classes")?,
            candidates: usize_field(v, "candidates")?,
            validation_runs: usize_field(v, "validation_runs")?,
            confirmed: usize_field(v, "confirmed")?,
            sim_cycles: u64_field(v, "sim_cycles")?,
            warped_cycles: u64_field(v, "warped_cycles")?,
        },
        detections: u64_field(v, "detections")?,
        digests,
    })
}

/// Serialises one violation digest as a JSON object. Digests and diff
/// entries are hex strings — bit-exact for any JSON reader. Shared with
/// the corpus (`crate::corpus`), whose lines embed the same digest shape.
pub(crate) fn violation_to_json(d: &ViolationDigest) -> String {
    let hex_arr = |xs: &[u64]| {
        let items: Vec<String> = xs.iter().map(|x| format!("\"{x:#x}\"")).collect();
        format!("[{}]", items.join(","))
    };
    JsonObj::new()
        .str("class", d.class.paper_id())
        .str("ctrace", &format!("{:#018x}", d.ctrace_digest))
        .raw("l1d_diff", &hex_arr(&d.l1d_diff))
        .raw("dtlb_diff", &hex_arr(&d.dtlb_diff))
        .raw("l1i_diff", &hex_arr(&d.l1i_diff))
        .finish()
}

pub(crate) fn violation_from_json(v: &JsonValue) -> Result<ViolationDigest, String> {
    let class_id = str_field(v, "class")?;
    let class = ViolationClass::from_paper_id(class_id)
        .ok_or_else(|| format!("unknown violation class {class_id:?}"))?;
    Ok(ViolationDigest {
        class,
        ctrace_digest: hex_u64(str_field(v, "ctrace")?)?,
        l1d_diff: hex_arr_field(v, "l1d_diff")?,
        dtlb_diff: hex_arr_field(v, "dtlb_diff")?,
        l1i_diff: hex_arr_field(v, "l1i_diff")?,
    })
}

/// The optional `source` field shared by hello/submit/report objects:
/// absent or `null` means the original PHT-only protocol.
fn source_field(v: &JsonValue) -> Result<String, String> {
    match v.get("source") {
        None | Some(JsonValue::Null) => Ok("PHT".to_string()),
        Some(x) => Ok(x.as_str().ok_or("source must be a string")?.to_string()),
    }
}

pub(crate) fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

pub(crate) fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
    u64_field(v, key).map(|n| n as usize)
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| format!("missing boolean field {key:?}"))
}

pub(crate) fn hex_u64(s: &str) -> Result<u64, String> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected 0x-prefixed hex, got {s:?}"))?;
    u64::from_str_radix(digits, 16).map_err(|_| format!("bad hex value {s:?}"))
}

pub(crate) fn hex_arr_field(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))?
        .iter()
        .map(|item| {
            item.as_str()
                .ok_or_else(|| format!("{key}: expected hex string"))
                .and_then(hex_u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_digest() -> ViolationDigest {
        ViolationDigest {
            class: ViolationClass::SpectreV1,
            ctrace_digest: 0xdead_beef_cafe_f00d,
            l1d_diff: vec![0x4740, 0x4100],
            dtlb_diff: vec![4],
            l1i_diff: vec![],
        }
    }

    fn sample_reduction() -> Reduction {
        let input = |seed: u64| crate::corpus::CorpusInput {
            regs: [seed; 16],
            flags: 0x46,
            mem_digest: u64::MAX - seed,
            mem_len: 4096,
        };
        Reduction {
            program: ".bb_main.0:\n    JL .bb_main.exit\n.bb_main.exit:\n".into(),
            removed: 7,
            input_a: input(1),
            input_b: input(2),
        }
    }

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed: 2025,
            scale: None,
            find_first: false,
            batch_programs: 3,
            cycle_skip: true,
        }
    }

    fn sample_report() -> ReportWire {
        ReportWire {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            mode: "Opt".into(),
            format: "L1D+DTLB".into(),
            source: "PHT".into(),
            include_l1i: false,
            seed: u64::MAX,
            instances: 2,
            programs: 12,
            inputs: 28,
            stats: ScanStats {
                cases: 672,
                classes: 96,
                candidates: 5,
                validation_runs: 10,
                confirmed: 3,
                sim_cycles: 1 << 40,
                warped_cycles: 1 << 39,
            },
            detections: 1,
            digests: vec![sample_digest()],
        }
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = [
            Msg::Hello(Hello {
                proto: PROTO_VERSION,
                defense: "Baseline".into(),
                contract: "CT-SEQ".into(),
                source: "PHT".into(),
                seed: u64::MAX,
                instances: 2,
                programs: 12,
                inputs: 28,
            }),
            Msg::Ping { token: u64::MAX },
            Msg::Pong { token: 0 },
            Msg::Batch(BatchSpec {
                index: 11,
                instance: 1,
                batch: 5,
                programs: 4,
                records: false,
            }),
            Msg::Batch(BatchSpec {
                index: 12,
                instance: 1,
                batch: 6,
                programs: 4,
                records: true,
            }),
            Msg::Cancel { earliest: 3 },
            Msg::Shutdown,
            Msg::Fragment(FragmentReport {
                index: 11,
                skipped: false,
                stats: ScanStats {
                    cases: 112,
                    classes: 16,
                    candidates: 2,
                    validation_runs: 4,
                    confirmed: 1,
                    sim_cycles: u64::MAX - 7,
                    warped_cycles: 1 << 60,
                },
                first_detection_s: Some(0.015625),
                violations: vec![sample_digest()],
                records: vec![sample_reduction()],
            }),
            Msg::Fragment(FragmentReport::skipped(42)),
            Msg::Submit(sample_spec()),
            Msg::Submit(CampaignSpec {
                scale: Some(0.25),
                find_first: true,
                ..sample_spec()
            }),
            Msg::Accepted {
                campaign: 7,
                cached: true,
            },
            Msg::Rejected {
                reason: "admit queue full (4 active, 16 queued)".into(),
                retry_after_ms: 1700,
            },
            Msg::Recovering {
                campaign: 7,
                recovered: 5,
                total: 8,
            },
            Msg::Progress {
                campaign: 7,
                done: 3,
                total: 8,
                cases: 252,
            },
            Msg::CampaignResult(ResultMsg {
                campaign: 7,
                cached: false,
                cancelled: false,
                executed_batches: 8,
                report: Some(sample_report()),
                error: None,
            }),
            Msg::CampaignResult(ResultMsg {
                campaign: 8,
                cached: false,
                cancelled: true,
                executed_batches: 2,
                report: None,
                error: None,
            }),
            Msg::CampaignResult(ResultMsg {
                campaign: 9,
                cached: false,
                cancelled: false,
                executed_batches: 0,
                report: None,
                error: Some("unknown defense \"Nope\"".into()),
            }),
            Msg::Draining { active: 3 },
            Msg::Draining { active: u64::MAX },
            Msg::CancelCampaign { campaign: 7 },
        ];
        for msg in msgs {
            let line = msg.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Msg::parse_line(&line).unwrap(), msg, "{line}");
        }
    }

    #[test]
    fn tags_match_the_enum() {
        let msgs = [
            Msg::Hello(Hello::for_config(&CampaignConfig::quick(
                amulet_defenses::DefenseKind::Baseline,
                amulet_contracts::ContractKind::CtSeq,
            ))),
            Msg::Ping { token: 1 },
            Msg::Pong { token: 1 },
            Msg::Batch(BatchSpec {
                index: 0,
                instance: 0,
                batch: 0,
                programs: 1,
                records: false,
            }),
            Msg::Cancel { earliest: 0 },
            Msg::Shutdown,
            Msg::Fragment(FragmentReport::skipped(0)),
            Msg::Submit(sample_spec()),
            Msg::Accepted {
                campaign: 0,
                cached: false,
            },
            Msg::Rejected {
                reason: "draining".into(),
                retry_after_ms: 0,
            },
            Msg::Recovering {
                campaign: 0,
                recovered: 0,
                total: 1,
            },
            Msg::Progress {
                campaign: 0,
                done: 0,
                total: 1,
                cases: 0,
            },
            Msg::CampaignResult(ResultMsg {
                campaign: 0,
                cached: false,
                cancelled: true,
                executed_batches: 0,
                report: None,
                error: None,
            }),
            Msg::Draining { active: 0 },
            Msg::CancelCampaign { campaign: 0 },
        ];
        let tags: Vec<&str> = msgs.iter().map(Msg::tag).collect();
        assert_eq!(tags, Msg::TAGS);
    }

    /// The wire report's fingerprint is exactly the in-process report's —
    /// the identity every service determinism test rests on.
    #[test]
    fn report_wire_fingerprint_matches_the_report() {
        let cfg = CampaignConfig::quick(
            amulet_defenses::DefenseKind::Baseline,
            amulet_contracts::ContractKind::CtSeq,
        );
        let report = crate::Campaign::new(cfg).run_sharded(crate::ShardConfig::default());
        let wire = ReportWire::from_report(&report);
        assert_eq!(wire.fingerprint(), report.fingerprint());
        // And it survives the wire bit-exactly.
        let line = Msg::CampaignResult(ResultMsg {
            campaign: 1,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: Some(wire.clone()),
            error: None,
        })
        .to_line();
        let Msg::CampaignResult(parsed) = Msg::parse_line(&line).unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!(parsed.report.unwrap().fingerprint(), report.fingerprint());
    }

    /// A result whose redundant fingerprint disagrees with its report is a
    /// protocol error, not silently trusted.
    #[test]
    fn result_with_a_lying_fingerprint_is_rejected() {
        let line = Msg::CampaignResult(ResultMsg {
            campaign: 1,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: Some(sample_report()),
            error: None,
        })
        .to_line();
        let honest = &format!("{:#018x}", sample_report().fingerprint());
        let lying = line.replace(honest, "0x0000000000000bad");
        assert_ne!(line, lying, "the fingerprint must appear in the line");
        let err = Msg::parse_line(&lying).unwrap_err();
        assert!(err.contains("fingerprint"), "unexpected error: {err}");
    }

    /// A spec resolves to the campaign config its fields describe, and
    /// bad names, scales and shapes are client-facing errors.
    #[test]
    fn campaign_spec_resolves_and_validates() {
        let spec = sample_spec();
        let cfg = spec.resolve().unwrap();
        let quick = CampaignConfig::quick(
            amulet_defenses::DefenseKind::Baseline,
            amulet_contracts::ContractKind::CtSeq,
        );
        assert_eq!(cfg.seed, 2025);
        assert_eq!(cfg.instances, quick.instances);
        assert_eq!(cfg.programs_per_instance, quick.programs_per_instance);
        assert!(!cfg.stop_on_first);

        let scaled = CampaignSpec {
            scale: Some(1.0),
            ..sample_spec()
        }
        .resolve()
        .unwrap();
        assert_eq!(scaled.instances, 100);

        for bad in [
            CampaignSpec {
                defense: "Nope".into(),
                ..sample_spec()
            },
            CampaignSpec {
                contract: "CT-NOPE".into(),
                ..sample_spec()
            },
            CampaignSpec {
                scale: Some(0.0),
                ..sample_spec()
            },
            CampaignSpec {
                scale: Some(f64::INFINITY),
                ..sample_spec()
            },
            CampaignSpec {
                batch_programs: 0,
                ..sample_spec()
            },
        ] {
            assert!(bad.resolve().is_err(), "accepted {bad:?}");
        }

        // Distinct campaigns get distinct cache keys; equal specs agree.
        assert_eq!(sample_spec().cache_key(), sample_spec().cache_key());
        let mut keys: Vec<String> = vec![sample_spec().cache_key()];
        for other in [
            CampaignSpec {
                seed: 2026,
                ..sample_spec()
            },
            CampaignSpec {
                scale: Some(0.25),
                ..sample_spec()
            },
            CampaignSpec {
                find_first: true,
                ..sample_spec()
            },
            CampaignSpec {
                batch_programs: 4,
                ..sample_spec()
            },
            CampaignSpec {
                cycle_skip: false,
                ..sample_spec()
            },
        ] {
            keys.push(other.cache_key());
        }
        let unique: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "cache keys collided: {keys:?}");
    }

    #[test]
    fn hello_checks_version_and_config() {
        let cfg = CampaignConfig::quick(
            amulet_defenses::DefenseKind::Baseline,
            amulet_contracts::ContractKind::CtSeq,
        );
        let hello = Hello::for_config(&cfg);
        assert!(hello.check(&cfg).is_ok());
        let mut wrong_proto = hello.clone();
        wrong_proto.proto = PROTO_VERSION + 1;
        assert!(wrong_proto.check(&cfg).unwrap_err().contains("version"));
        let mut wrong_seed = hello.clone();
        wrong_seed.seed ^= 1;
        assert!(wrong_seed.check(&cfg).unwrap_err().contains("mismatch"));
    }

    #[test]
    fn fragment_to_fragment_round_trip_preserves_reduction_inputs() {
        let frag = Fragment {
            index: 5,
            violations: Vec::new(),
            digests: vec![sample_digest()],
            records: vec![sample_reduction()],
            stats: ScanStats {
                cases: 7,
                sim_cycles: 1234,
                ..ScanStats::default()
            },
            first_detection: Some(Duration::from_millis(125)),
        };
        let rep = FragmentReport::from_fragment(&frag);
        let line = Msg::Fragment(rep).to_line();
        let Msg::Fragment(parsed) = Msg::parse_line(&line).unwrap() else {
            panic!("wrong tag");
        };
        let back = parsed.into_fragment();
        assert_eq!(back.index, frag.index);
        assert_eq!(back.digests, frag.digests);
        assert_eq!(back.records, frag.records);
        assert_eq!(back.stats, frag.stats);
        assert_eq!(back.first_detection, frag.first_detection);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            r#"{"type":"batch","index":0}"#,
            r#"{"type":"fragment","index":0}"#,
            r#"{"type":"ping"}"#,
            r#"{"type":"pong","token":"seven"}"#,
            r#"{"type":"nope"}"#,
            "not json",
            // A negative, non-finite or Duration-overflowing detection
            // time must be a protocol error, not a later panic.
            r#"{"type":"fragment","index":0,"skipped":false,"cases":0,"classes":0,"candidates":0,"validation_runs":0,"confirmed":0,"sim_cycles":0,"warped_cycles":0,"first_detection_s":-0.5,"violations":[]}"#,
            r#"{"type":"fragment","index":0,"skipped":false,"cases":0,"classes":0,"candidates":0,"validation_runs":0,"confirmed":0,"sim_cycles":0,"warped_cycles":0,"first_detection_s":1e30,"violations":[]}"#,
            r#"{"type":"fragment","index":0,"skipped":false,"cases":0,"classes":0,"candidates":0,"validation_runs":0,"confirmed":0,"sim_cycles":0,"warped_cycles":0,"first_detection_s":1e999,"violations":[]}"#,
            // Service messages with missing or mistyped fields.
            r#"{"type":"submit","defense":"Baseline"}"#,
            r#"{"type":"submit","defense":"Baseline","contract":"CT-SEQ","seed":"x","find_first":false,"batch":3,"cycle_skip":true}"#,
            r#"{"type":"submit","defense":"Baseline","contract":"CT-SEQ","seed":"1","scale":"big","find_first":false,"batch":3,"cycle_skip":true}"#,
            r#"{"type":"accepted","campaign":1}"#,
            r#"{"type":"rejected","retry_after_ms":100}"#,
            r#"{"type":"rejected","reason":"queue full","retry_after_ms":"soon"}"#,
            r#"{"type":"draining"}"#,
            r#"{"type":"draining","active":"many"}"#,
            r#"{"type":"recovering","campaign":1}"#,
            r#"{"type":"recovering","campaign":1,"recovered":"five","total":8}"#,
            r#"{"type":"progress","campaign":1,"done":0,"total":8}"#,
            r#"{"type":"result","campaign":1,"cached":false,"cancelled":false}"#,
            r#"{"type":"result","campaign":1,"cached":false,"cancelled":false,"executed_batches":0,"error":7}"#,
            r#"{"type":"cancel_campaign"}"#,
        ] {
            assert!(Msg::parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }
}
