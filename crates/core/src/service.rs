//! The campaign service state machine behind `amulet serve` — many
//! concurrent campaigns multiplexed over one shared worker fleet, with a
//! fair-share batch scheduler, a fingerprint-keyed result cache, and the
//! persisted violation [`corpus`](crate::corpus).
//!
//! # Fair-share determinism contract
//!
//! The scheduler round-robins batch *leases* across active campaigns, so a
//! submit never starves behind a big earlier campaign. This cannot move
//! any result: a batch's outcome is a pure function of `(campaign config,
//! batch seed)` — see [`run_batch`] — so the interleaving chooses only
//! *when* each fragment arrives, never *what* it contains, and the
//! reduction ([`reduce_fragments`]) is order-insensitive by construction.
//! `tests/serve_session.rs` asserts the consequence: interleaved
//! fingerprints byte-equal their solo in-process runs.
//!
//! # Cache semantics
//!
//! A campaign is identified by [`CampaignSpec::cache_key`] — config
//! identity, seed, scale, shape knobs. The service is deterministic, so a
//! repeated submit *is* the earlier campaign; it is answered from the
//! cache with the byte-identical report and `executed_batches: 0`.
//! Cancelled and failed campaigns are never cached.
//!
//! # Crash safety
//!
//! With a [`StateDir`] attached ([`Service::with_persistence`]), the
//! service is a write-ahead machine: every completed fragment is appended
//! to the campaign's [`journal`](crate::journal) *before* the in-memory
//! state advances, and every completed report is written through to the
//! persisted cache before its journal is deleted. A submit that finds a
//! journal on disk resumes it — recovered fragments replay into the
//! campaign and only the missing batch indices are leased — and because
//! batches are pure functions of their seeds, the resumed report is
//! fingerprint-identical to an uninterrupted run. Persistence failures
//! (full disk, torn files) degrade to warnings, never to wrong results:
//! an unusable journal means recomputing, not corrupting.
//!
//! # The degradation floor
//!
//! Worker loops register as slots ([`Service::attach_slot`]), which may
//! retire or [refuse](Service::refuse) a campaign. A campaign with runnable
//! work and no live slot willing to serve it fails instead of waiting
//! forever — checked whenever a slot retires or refuses and at submit, but
//! never before the first slot attaches.
//!
//! The service is transport-agnostic: `amulet serve` (the CLI) wires
//! client sockets to [`Service::submit`]/[`Service::subscribe`] and worker
//! loops to [`Service::wait_lease`]/[`Service::complete`]; `amulet drive`
//! and [`Campaign::run_sharded`](crate::Campaign::run_sharded) run one
//! hand-shaped campaign through [`Service::submit_config`]; the in-memory
//! test suite drives the same methods directly. [`run_with_slots`] is the
//! single-campaign skeleton `run_sharded` and `drive` share, and
//! [`run_local_slot`] the one in-process worker loop, shared by
//! `run_sharded` and `serve`'s local workers.

use crate::campaign::{CampaignConfig, CampaignReport, UnitRuntime};
use crate::corpus::{records_from_report, Corpus};
use crate::journal::{
    create_journal, load_journal, CrashPlan, JournalHeader, LogAppender, Recovery, StateDir,
};
use crate::proto::{CampaignSpec, FragmentReport, Msg, ReportWire, ResultMsg};
use crate::shard::{
    plan_batches, reduce_fragments, run_batch, verify_fragment_coverage, BatchSpec, Fragment,
};
use amulet_util::events;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long an idle slot waits for a lease before housekeeping (dropping
/// finished campaigns' runtimes or sessions, shutdown checks).
pub const LEASE_POLL: Duration = Duration::from_millis(250);

/// A progress notification broadcast to every [`Service::subscribe`]r.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEvent {
    /// One more batch of `campaign` completed.
    Progress {
        /// The campaign id.
        campaign: u64,
        /// Batches completed so far.
        done: u64,
        /// Batches in the plan.
        total: u64,
        /// Cumulative test cases executed.
        cases: u64,
    },
    /// `campaign` reached its terminal state; its [`ResultMsg`] is ready
    /// via [`Service::take_result`].
    Finished {
        /// The campaign id.
        campaign: u64,
    },
    /// [`Service::drain`] was called: no new campaigns will be admitted.
    /// Session handlers forward this to their clients and wind down.
    Draining {
        /// Campaigns (active + queued) still in flight at drain time.
        active: u64,
    },
}

/// Admission-control limits for [`Service::set_admission`]. `max_active`
/// and `per_client` are "0 = unlimited" (the default is the fully open
/// service); `max_queue` is "0 = nothing queues" — overflow sheds
/// immediately once `max_active` is reached.
///
/// The shed policy, in check order per submit: a client over its
/// [`per_client`](Admission::per_client) quota is rejected; otherwise the
/// campaign activates if the concurrent-campaign cap
/// ([`max_active`](Admission::max_active)) has room, queues FIFO if the
/// bounded admit queue ([`max_queue`](Admission::max_queue)) has room, and
/// is rejected once both are full. Rejections are structured
/// ([`SubmitOutcome::Rejected`]) and carry an actionable
/// `retry_after_ms` hint; cache hits are always answered (they cost no
/// worker time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Admission {
    /// Campaigns executing concurrently (0 = unlimited).
    pub max_active: usize,
    /// Admitted-but-waiting campaigns in the FIFO queue (0 = none queue:
    /// with a `max_active` cap set, overflow is shed immediately).
    pub max_queue: usize,
    /// In-flight (active + queued) campaigns per client (0 = unlimited).
    pub per_client: usize,
}

/// What [`Service::submit`] decided.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// A new campaign was scheduled; progress events will stream and the
    /// result arrives via [`ServiceEvent::Finished`].
    Accepted {
        /// The assigned campaign id.
        campaign: u64,
        /// Batches in the plan.
        total_batches: u64,
        /// Batches replayed from an on-disk journal instead of executed —
        /// non-zero only when a crashed run's prefix was resumed.
        recovered: u64,
    },
    /// The cache already holds this campaign's report — here it is, with a
    /// fresh id and `executed_batches: 0`. No batch will run. Boxed: a
    /// full report dwarfs the `Accepted` variant.
    Cached {
        /// The assigned (fresh) campaign id.
        campaign: u64,
        /// The replayed result.
        result: Box<ResultMsg>,
    },
    /// Admission control shed the submit — no id was assigned, no batch
    /// will run, and nothing about this campaign is remembered. The same
    /// spec resubmitted after roughly `retry_after_ms` converges on the
    /// identical deterministic result whenever it is finally admitted.
    Rejected {
        /// Why the submit was shed (quota, queue full, draining).
        reason: String,
        /// Actionable backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
}

/// One leased batch: everything a worker needs to execute it and hand the
/// fragment back to the right campaign.
#[derive(Debug)]
pub struct Lease {
    /// The campaign this batch belongs to.
    pub campaign: u64,
    /// The batch assignment.
    pub spec: BatchSpec,
    /// The campaign's config (cloned per lease; workers keyed by campaign
    /// id keep their own persistent [`UnitRuntime`]s).
    pub cfg: CampaignConfig,
    /// The campaign's detection-time anchor.
    pub anchor: Instant,
    /// Whether this batch was returned by a failing slot and is being
    /// re-issued (an adopted orphan).
    pub adopted: bool,
    /// The campaign's find-first floor, shared live with the campaign.
    hit: Arc<AtomicUsize>,
}

impl Lease {
    /// The campaign's current find-first floor: the earliest batch index
    /// with a confirmed violation, if any. Batches past it are dropped by
    /// the reducer, so a remote worker may skip them.
    pub fn floor(&self) -> Option<usize> {
        floor_of(&self.hit)
    }
}

fn floor_of(hit: &AtomicUsize) -> Option<usize> {
    let hit = hit.load(Ordering::SeqCst);
    (hit != usize::MAX).then_some(hit)
}

/// The outcome of one [`Service::wait_lease`] call.
#[derive(Debug)]
pub enum LeaseWait {
    /// A batch to execute. Boxed: a [`Lease`] carries a full
    /// [`CampaignConfig`] and dwarfs the other variants.
    Lease(Box<Lease>),
    /// The deadline passed with no runnable batch — poll again.
    Idle,
    /// The service is shutting down — the worker loop should exit.
    Shutdown,
}

/// One in-flight campaign.
struct ActiveCampaign {
    id: u64,
    /// The submitting client's identity (`u64::MAX` = anonymous) — what
    /// the per-client in-flight quota counts.
    owner: u64,
    key: String,
    cfg: CampaignConfig,
    /// Batches still to execute. After a journal resume this holds only
    /// the *missing* indices — `total_batches` keeps the plan size.
    batches: Vec<BatchSpec>,
    /// Batches in the full plan (progress totals, coverage check).
    total_batches: usize,
    /// Whether this campaign owns an entry in `Inner::journaled_keys`.
    journaled: bool,
    /// Next unleased index into `batches`.
    cursor: usize,
    /// Batches returned unexecuted by a failing worker — re-leased before
    /// the cursor advances, lowest index first.
    orphans: Vec<BatchSpec>,
    /// Earliest batch index with a confirmed violation (find-first;
    /// `usize::MAX` = none yet), shared with every lease.
    hit: Arc<AtomicUsize>,
    /// Leases handed out and not yet completed or released.
    outstanding: usize,
    executed: u64,
    fragments: Vec<Fragment>,
    cases_done: u64,
    done_batches: u64,
    cancelled: bool,
    /// Slots that refused this campaign, with their handshake errors.
    refused: HashMap<u64, String>,
    /// A [`Service::submit_config`] campaign's report channel and
    /// fragment tee.
    reply: Option<Sender<Result<CampaignReport, String>>>,
    tee: Option<Box<dyn Write + Send>>,
    start: Instant,
}

impl ActiveCampaign {
    /// A campaign with nothing leased or executed yet.
    fn new(id: u64, cfg: CampaignConfig, batches: Vec<BatchSpec>, total_batches: usize) -> Self {
        ActiveCampaign {
            id,
            owner: u64::MAX,
            key: String::new(),
            cfg,
            batches,
            total_batches,
            journaled: false,
            cursor: 0,
            orphans: Vec::new(),
            hit: Arc::new(AtomicUsize::new(usize::MAX)),
            outstanding: 0,
            executed: 0,
            fragments: Vec::new(),
            cases_done: 0,
            done_batches: 0,
            cancelled: false,
            refused: HashMap::new(),
            reply: None,
            tee: None,
            start: Instant::now(),
        }
    }

    fn earliest_hit(&self) -> Option<usize> {
        floor_of(&self.hit)
    }

    /// Whether `index` lies past the find-first cancellation floor.
    fn past_hit(&self, index: usize) -> bool {
        self.cfg.stop_on_first && self.earliest_hit().is_some_and(|hit| index > hit)
    }

    /// The next batch to lease and whether it is an adopted orphan:
    /// orphans first (lowest index — they block the coverage check), then
    /// the cursor, skipping past-hit work.
    fn next_runnable(&mut self) -> Option<(BatchSpec, bool)> {
        loop {
            let (spec, adopted) =
                if let Some(pos) = (0..self.orphans.len()).min_by_key(|&i| self.orphans[i].index) {
                    (self.orphans.swap_remove(pos), true)
                } else if self.cursor < self.batches.len() {
                    self.cursor += 1;
                    (self.batches[self.cursor - 1], false)
                } else {
                    return None;
                };
            if !self.past_hit(spec.index) {
                return Some((spec, adopted));
            }
            // Past-hit batches are dropped, not executed: the reducer
            // keeps only the prefix up to the hit anyway.
        }
    }

    fn has_runnable(&self) -> bool {
        self.orphans.iter().any(|s| !self.past_hit(s.index))
            || self.batches[self.cursor..]
                .iter()
                .any(|s| !self.past_hit(s.index))
    }

    /// Whether every lease is settled and nothing is left to lease.
    fn drained(&self) -> bool {
        self.outstanding == 0 && !self.has_runnable()
    }
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    /// Round-robin pointer into `active` — the fair-share state.
    rr: usize,
    active: Vec<ActiveCampaign>,
    /// Admitted campaigns waiting for an active slot, FIFO. Bounded by
    /// [`Admission::max_queue`]; promoted whenever a campaign leaves
    /// `active`.
    queued: VecDeque<ActiveCampaign>,
    /// The configured admission limits.
    admission: Admission,
    /// Set by [`Service::drain`]: stop admitting, wind down.
    draining: bool,
    /// Terminal results awaiting [`Service::take_result`].
    finished: HashMap<u64, ResultMsg>,
    /// Completed reports keyed by [`CampaignSpec::cache_key`].
    cache: HashMap<String, ResultMsg>,
    /// Open write-ahead journals keyed by campaign id.
    journals: HashMap<u64, LogAppender>,
    /// Cache keys with an open journal — a second concurrent submit of the
    /// same identity runs unjournaled rather than sharing the file.
    journaled_keys: HashSet<String>,
    /// A deterministic crash point armed for the next journal opened
    /// (tests only; consumed by [`Service::submit`]).
    armed_crash: Option<CrashPlan>,
    subscribers: Vec<Sender<ServiceEvent>>,
    shutdown: bool,
    /// Slot ids handed out so far (0 = no slot ever attached).
    next_slot: u64,
    /// Attached slots that have not retired.
    live_slots: HashSet<u64>,
}

/// The long-lived campaign service: shared scheduler state plus the
/// optional on-disk corpus. Wrap it in an `Arc` and hand clones to worker
/// loops and client handlers.
pub struct Service {
    inner: Mutex<Inner>,
    wake: Condvar,
    corpus: Option<Corpus>,
    state: Option<StateDir>,
    executed_total: AtomicU64,
}

impl Service {
    /// A service with no corpus persistence.
    pub fn new() -> Self {
        Self::with_corpus(None)
    }

    /// A service appending validated violations to `corpus`.
    pub fn with_corpus(corpus: Option<Corpus>) -> Self {
        Self::build(corpus, None, Vec::new())
    }

    /// A crash-safe service over `state`: the persisted cache entries a
    /// [`StateDir::recover`] pass loaded are seeded into the in-memory
    /// cache (later entries supersede earlier ones), and every future
    /// campaign is journaled through `state`.
    pub fn with_persistence(corpus: Option<Corpus>, state: StateDir, recovery: Recovery) -> Self {
        Self::build(corpus, Some(state), recovery.cache)
    }

    fn build(
        corpus: Option<Corpus>,
        state: Option<StateDir>,
        cache: Vec<(String, ResultMsg)>,
    ) -> Self {
        let mut inner = Inner::default();
        for (key, result) in cache {
            inner.cache.insert(key, result);
        }
        Service {
            inner: Mutex::new(inner),
            wake: Condvar::new(),
            corpus,
            state,
            executed_total: AtomicU64::new(0),
        }
    }

    /// Arms a deterministic storage crash for the next journal
    /// [`Service::submit`] opens — the test hook behind the crash-point
    /// matrix. One-shot: consumed by that submit.
    pub fn arm_crash_plan(&self, plan: CrashPlan) {
        self.inner.lock().unwrap().armed_crash = Some(plan);
    }

    /// Total batches executed across every campaign since startup — the
    /// counter the cache-hit tests pin at "unchanged".
    pub fn executed_batches_total(&self) -> u64 {
        self.executed_total.load(Ordering::SeqCst)
    }

    /// Configures admission control. Raising limits promotes queued
    /// campaigns immediately; lowering them never evicts admitted work —
    /// the new limits apply to future submits.
    pub fn set_admission(&self, admission: Admission) {
        let mut inner = self.inner.lock().unwrap();
        inner.admission = admission;
        Self::promote(&mut inner);
        drop(inner);
        self.wake.notify_all();
    }

    /// Submits a campaign anonymously — [`Service::submit_for`] with the
    /// anonymous client identity (`u64::MAX`).
    pub fn submit(&self, spec: &CampaignSpec) -> Result<SubmitOutcome, String> {
        self.submit_for(u64::MAX, spec)
    }

    /// Submits a campaign on behalf of `client`: a cache hit replays the
    /// stored result under a fresh id; a miss passes admission control
    /// (per-client quota, active cap, bounded FIFO admit queue — see
    /// [`Admission`]) and then plans the batches and joins the fair-share
    /// rotation (or the admit queue). `Err` is reserved for malformed
    /// specs and hard shutdown; overload is the structured
    /// [`SubmitOutcome::Rejected`].
    pub fn submit_for(&self, client: u64, spec: &CampaignSpec) -> Result<SubmitOutcome, String> {
        let cfg = spec.resolve()?;
        let key = spec.cache_key();
        let batches = self.plan(&cfg, spec.batch_programs);
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return Err("service is shutting down".into());
        }
        let id = inner.next_id;
        inner.next_id += 1;
        if let Some(hit) = inner.cache.get(&key) {
            let result = ResultMsg {
                campaign: id,
                cached: true,
                executed_batches: 0,
                ..hit.clone()
            };
            return Ok(SubmitOutcome::Cached {
                campaign: id,
                result: Box::new(result),
            });
        }
        // Admission control. Cache hits are always answered (zero worker
        // cost); everything below here would execute batches, so it is
        // subject to the drain state and the configured limits. The
        // retry hint scales with the load actually ahead of the client.
        let load = inner.active.len() + inner.queued.len();
        let retry_after_ms = (100 * (1 + load as u64)).min(5_000);
        if inner.draining {
            return Ok(SubmitOutcome::Rejected {
                reason: "draining: not admitting new campaigns".into(),
                retry_after_ms: 1_000,
            });
        }
        let adm = inner.admission;
        if adm.per_client > 0 {
            let in_flight = inner.active.iter().filter(|c| c.owner == client).count()
                + inner.queued.iter().filter(|c| c.owner == client).count();
            if in_flight >= adm.per_client {
                return Ok(SubmitOutcome::Rejected {
                    reason: format!(
                        "client quota: {in_flight} campaign(s) already in flight (limit {})",
                        adm.per_client
                    ),
                    retry_after_ms,
                });
            }
        }
        let active_full = adm.max_active > 0 && inner.active.len() >= adm.max_active;
        if active_full && inner.queued.len() >= adm.max_queue {
            return Ok(SubmitOutcome::Rejected {
                reason: format!(
                    "admit queue full ({} active, {} queued)",
                    inner.active.len(),
                    inner.queued.len()
                ),
                retry_after_ms,
            });
        }
        let total = batches.len();
        let total_batches = total as u64;

        // Crash recovery: if a state dir holds this identity's journal,
        // replay its fragment prefix and lease only the missing indices. An
        // unusable journal (wrong plan, corruption) means recomputing from
        // scratch over a fresh file — never trusting bad data.
        let mut recovered_frags: Vec<Fragment> = Vec::new();
        let mut journal: Option<LogAppender> = None;
        if let Some(state) = &self.state {
            if !inner.journaled_keys.contains(&key) {
                let path = state.journal_path(&key);
                let header = JournalHeader::for_spec(spec, total_batches);
                let replay = match load_journal(&path, &key) {
                    Ok(Some(r)) if r.header.total_batches == total_batches => Some(r),
                    Ok(Some(r)) => {
                        events::stderr().emit("persist", "journal_plan_mismatch", |o| {
                            o.str("key", &key)
                                .int("journaled", r.header.total_batches)
                                .int("planned", total_batches)
                        });
                        None
                    }
                    Ok(None) => None,
                    Err(e) => {
                        events::stderr().emit("persist", "journal_unusable", |o| {
                            o.str("key", &key).str("error", &e)
                        });
                        None
                    }
                };
                let opened = match &replay {
                    Some(_) => LogAppender::open(&path),
                    None => create_journal(&path, &header),
                };
                match opened {
                    Ok(j) => journal = Some(j),
                    // Keep the replayed fragments even if the reopen failed:
                    // recovered work is valid work, it just won't extend.
                    Err(e) => events::stderr().emit("persist", "journal_open_failed", |o| {
                        o.str("key", &key).str("error", &e)
                    }),
                }
                if let Some(r) = replay {
                    // A violating fragment journaled without records (by a
                    // corpus-less daemon, or before batches carried them)
                    // cannot feed the corpus: its batch re-runs instead.
                    recovered_frags = r
                        .fragments
                        .into_iter()
                        .filter(|f| self.corpus.is_none() || f.records.len() == f.violations.len())
                        .map(FragmentReport::into_fragment)
                        .collect();
                }
            }
        }
        if let Some(j) = &mut journal {
            if let Some(plan) = inner.armed_crash.take() {
                j.arm(Some(plan));
            }
        }

        let recovered = recovered_frags.len() as u64;
        let have: HashSet<usize> = recovered_frags.iter().map(|f| f.index).collect();
        let missing: Vec<BatchSpec> = batches
            .into_iter()
            .filter(|b| !have.contains(&b.index))
            .collect();
        let earliest_hit = cfg
            .stop_on_first
            .then(|| {
                recovered_frags
                    .iter()
                    .filter(|f| !f.digests.is_empty())
                    .map(|f| f.index)
                    .min()
            })
            .flatten();
        let camp = ActiveCampaign {
            owner: client,
            key: key.clone(),
            journaled: journal.is_some(),
            hit: Arc::new(AtomicUsize::new(earliest_hit.unwrap_or(usize::MAX))),
            cases_done: recovered_frags.iter().map(|f| f.stats.cases as u64).sum(),
            fragments: recovered_frags,
            done_batches: recovered,
            ..ActiveCampaign::new(id, cfg, missing, total)
        };
        if let Some(j) = journal {
            inner.journals.insert(id, j);
            inner.journaled_keys.insert(key);
        }
        if active_full && !camp.drained() {
            // Checked above: the queue has room. Journal resume already
            // happened, so a queued campaign loses nothing by waiting.
            inner.queued.push_back(camp);
            self.enforce_floor(inner);
        } else {
            // A campaign the journal already covers (modulo past-hit
            // batches) finalizes right here, consuming no admission slot.
            self.admit(inner, camp);
        }
        Ok(SubmitOutcome::Accepted {
            campaign: id,
            total_batches,
            recovered,
        })
    }

    /// Submits a hand-shaped campaign config — the single-campaign path
    /// `amulet drive` runs on. It bypasses the result cache, admission
    /// control and the journal (a [`CampaignConfig`] has no
    /// [`CampaignSpec`] identity), and it yields the reduced
    /// [`CampaignReport`] itself on the returned channel — or the error
    /// that ended the campaign. `tee`, when given, receives every executed
    /// fragment as one protocol line; a failed tee write fails the
    /// campaign.
    pub fn submit_config(
        &self,
        cfg: CampaignConfig,
        batch_programs: usize,
        tee: Option<Box<dyn Write + Send>>,
    ) -> Receiver<Result<CampaignReport, String>> {
        let (reply, rx) = channel();
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            let _ = reply.send(Err("service is shutting down".into()));
            return rx;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let batches = self.plan(&cfg, batch_programs);
        let total = batches.len();
        let camp = ActiveCampaign {
            reply: Some(reply),
            tee,
            ..ActiveCampaign::new(id, cfg, batches, total)
        };
        self.admit(inner, camp);
        rx
    }

    /// The batch plan for `cfg`. With a corpus, every batch asks for
    /// records — the only place that request is made.
    fn plan(&self, cfg: &CampaignConfig, batch_programs: usize) -> Vec<BatchSpec> {
        let mut batches = plan_batches(cfg, batch_programs);
        for b in &mut batches {
            b.records = self.corpus.is_some();
        }
        batches
    }

    /// Activates a campaign — or finalizes it at once when it has nothing
    /// left to lease — then applies the degradation floor.
    fn admit(&self, mut inner: MutexGuard<'_, Inner>, camp: ActiveCampaign) {
        if camp.drained() {
            drop(inner);
            self.finalize(camp, None);
        } else {
            inner.active.push(camp);
            self.enforce_floor(inner);
        }
    }

    /// Moves queued campaigns into freed active slots, FIFO, until the
    /// cap is reached again. Queued campaigns are never `cancelled` in
    /// place (cancel removes them from the queue directly) and never
    /// `drained()` (a fully-journaled submit finalizes without queueing),
    /// so every promotion yields leasable work.
    fn promote(inner: &mut Inner) {
        while inner.admission.max_active == 0 || inner.active.len() < inner.admission.max_active {
            match inner.queued.pop_front() {
                Some(camp) => inner.active.push(camp),
                None => break,
            }
        }
    }

    /// Cancels a campaign. Already-leased batches may still complete (their
    /// fragments are discarded); the terminal [`ResultMsg`] has
    /// `cancelled: true` and no report, and the cache is not populated.
    /// Unknown or already-finished ids are a no-op. A queued campaign
    /// resolves immediately — it holds no leases by construction.
    pub fn cancel(&self, campaign: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(pos) = inner.queued.iter().position(|c| c.id == campaign) {
            let camp = inner.queued.remove(pos).expect("position came from iter");
            Self::finish_cancelled(&mut inner, camp);
            drop(inner);
            self.wake.notify_all();
            return;
        }
        let Some(pos) = inner.active.iter().position(|c| c.id == campaign) else {
            return;
        };
        inner.active[pos].cancelled = true;
        if inner.active[pos].outstanding == 0 {
            let camp = inner.active.swap_remove(pos);
            Self::finish_cancelled(&mut inner, camp);
            Self::promote(&mut inner);
        }
        drop(inner);
        self.wake.notify_all();
    }

    /// Enters the drain state: no new campaigns are admitted (submits shed
    /// with a `draining` reason), every subscriber hears
    /// [`ServiceEvent::Draining`], and — on a persistent service — lease
    /// waiters see [`LeaseWait::Shutdown`] so in-flight campaigns stop at
    /// their journaled checkpoint instead of running to completion.
    /// Returns the campaigns (active + queued) still in flight; idempotent
    /// (repeat calls neither re-announce nor change the count's meaning).
    pub fn drain(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let in_flight = (inner.active.len() + inner.queued.len()) as u64;
        if !inner.draining {
            inner.draining = true;
            Self::broadcast(&mut inner, ServiceEvent::Draining { active: in_flight });
        }
        drop(inner);
        self.wake.notify_all();
        in_flight
    }

    /// Whether [`Service::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// Whether this service journals through a [`StateDir`] — the switch
    /// between checkpoint-drain (persistent: stop leasing, the journal is
    /// the hand-off) and finish-drain (in-memory: run active campaigns to
    /// completion, results would otherwise be lost).
    pub fn persistent(&self) -> bool {
        self.state.is_some()
    }

    /// Terminal results not yet collected by [`Service::take_result`] —
    /// the overload tests pin this at zero to bound eviction memory.
    pub fn pending_results(&self) -> usize {
        self.inner.lock().unwrap().finished.len()
    }

    /// Waits up to `timeout` for a batch lease from any active campaign.
    pub fn wait_lease(&self, timeout: Duration) -> LeaseWait {
        self.wait_lease_for(None, timeout)
    }

    /// Waits up to `timeout` for a lease on behalf of `slot`, skipping the
    /// campaigns that slot has [refused](Service::refuse).
    pub fn wait_lease_for(&self, slot: Option<u64>, timeout: Duration) -> LeaseWait {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if self.stopping(&inner) {
                return LeaseWait::Shutdown;
            }
            if let Some(lease) = Self::try_lease(&mut inner, slot) {
                return LeaseWait::Lease(Box::new(lease));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return LeaseWait::Idle;
            }
            let (guard, _) = self.wake.wait_timeout(inner, remaining).unwrap();
            inner = guard;
        }
    }

    /// Round-robin lease: resume one past the campaign that got the
    /// previous lease, so concurrent campaigns alternate A, B, A, B...
    fn try_lease(inner: &mut Inner, slot: Option<u64>) -> Option<Lease> {
        let n = inner.active.len();
        for step in 0..n {
            let pos = (inner.rr + step) % n;
            let camp = &mut inner.active[pos];
            if camp.cancelled || slot.is_some_and(|s| camp.refused.contains_key(&s)) {
                continue;
            }
            if let Some((spec, adopted)) = camp.next_runnable() {
                camp.outstanding += 1;
                let lease = Lease {
                    campaign: camp.id,
                    spec,
                    cfg: camp.cfg.clone(),
                    anchor: camp.start,
                    adopted,
                    hit: camp.hit.clone(),
                };
                inner.rr = (pos + 1) % n;
                return Some(lease);
            }
        }
        None
    }

    /// Whether lease waiters should exit: on shutdown, and on a
    /// checkpoint-drain — with a journal under every campaign the cheapest
    /// correct hand-off is to stop leasing (the executed prefix is already
    /// on disk and a restart resumes it exactly). Without persistence the
    /// fleet keeps working through a drain (finish-drain).
    fn stopping(&self, inner: &Inner) -> bool {
        inner.shutdown || (inner.draining && self.state.is_some())
    }

    /// Registers a worker slot as live; the id names it to
    /// [`Service::wait_lease_for`], [`Service::refuse`] and
    /// [`Service::retire_slot`].
    pub fn attach_slot(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.next_slot;
        inner.next_slot += 1;
        inner.live_slots.insert(slot);
        slot
    }

    /// Retires a slot (quarantine, or its loop exiting) and applies the
    /// degradation floor to the campaigns it leaves behind.
    pub fn retire_slot(&self, slot: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.live_slots.remove(&slot);
        self.enforce_floor(inner);
    }

    /// Returns a lease unexecuted (worker failure, or a batch the worker
    /// skipped past the find-first floor): the batch goes back into the
    /// campaign's orphan pool for the next taker.
    pub fn release(&self, lease: Lease) {
        self.settle_unexecuted(lease, None);
    }

    /// Returns a lease because `slot`'s worker refused the campaign's
    /// config (a hello mismatch): the slot is never offered this campaign
    /// again, and when no live slot is left willing to serve it the
    /// campaign fails with `error`.
    pub fn refuse(&self, slot: u64, lease: Lease, error: String) {
        self.settle_unexecuted(lease, Some((slot, error)));
    }

    fn settle_unexecuted(&self, lease: Lease, refusal: Option<(u64, String)>) {
        let mut inner = self.inner.lock().unwrap();
        let mut finished = None;
        if let Some(pos) = inner.active.iter().position(|c| c.id == lease.campaign) {
            let camp = &mut inner.active[pos];
            camp.outstanding -= 1;
            camp.orphans.push(lease.spec);
            if let Some((slot, error)) = refusal {
                camp.refused.insert(slot, error);
            }
            if camp.cancelled && camp.outstanding == 0 {
                let camp = inner.active.swap_remove(pos);
                Self::finish_cancelled(&mut inner, camp);
                Self::promote(&mut inner);
            } else if camp.drained() {
                // Only past-hit work was returned: nothing is left to run.
                finished = Some(inner.active.swap_remove(pos));
                Self::promote(&mut inner);
            }
        }
        self.enforce_floor(inner);
        if let Some(camp) = finished {
            self.finalize(camp, None);
        }
    }

    /// The degradation floor: finalizes with an error every campaign that
    /// has runnable work but no live slot willing to serve it — with a
    /// refusing slot's handshake error when slots refused it, "campaign
    /// incomplete" when they retired. Exempt are a service no slot has
    /// attached to yet, and a stopping one (its slots leave on purpose and
    /// its campaigns stop at their checkpoint).
    fn enforce_floor(&self, mut inner: MutexGuard<'_, Inner>) {
        let mut stranded = Vec::new();
        if inner.next_slot > 0 && !self.stopping(&inner) {
            let mut pos = 0;
            while pos < inner.active.len() {
                let camp = &inner.active[pos];
                let willing = inner
                    .live_slots
                    .iter()
                    .any(|s| !camp.refused.contains_key(s));
                if willing || camp.cancelled || !camp.has_runnable() {
                    pos += 1;
                } else {
                    stranded.push(inner.active.swap_remove(pos));
                }
            }
            if inner.live_slots.is_empty() {
                stranded.extend(inner.queued.drain(..));
            }
            Self::promote(&mut inner);
        }
        drop(inner);
        self.wake.notify_all();
        for camp in stranded {
            let error = camp.refused.values().min().cloned().unwrap_or_else(|| {
                format!(
                    "campaign incomplete: every worker slot failed with {}+ batch(es) \
                     still runnable (see the fleet event log)",
                    camp.orphans.len() + camp.batches.len() - camp.cursor
                )
            });
            self.finalize(camp, Some(error));
        }
    }

    /// Completes a lease with its executed fragment. Drives the campaign's
    /// progress stream and, on the final fragment, the reduction, the cache
    /// fill and the corpus append.
    pub fn complete(&self, lease: Lease, mut fragment: Fragment) {
        self.executed_total.fetch_add(1, Ordering::SeqCst);
        let mut inner = self.inner.lock().unwrap();
        let Some(pos) = inner.active.iter().position(|c| c.id == lease.campaign) else {
            // Campaign already torn down (cancelled and drained while this
            // batch ran) — the fragment is surplus, drop it.
            return;
        };
        // A submitted campaign's report is built from digests and records
        // only, so it cannot depend on whether an in-process slot also
        // handed over artefacts. A `submit_config` caller gets them.
        if inner.active[pos].reply.is_none() {
            fragment.violations = Vec::new();
        }
        // Write-ahead: the fragment reaches disk before the in-memory state
        // learns about it, so a crash after this point loses nothing. An
        // append failure (full disk, injected crash) downgrades the campaign
        // to unjournaled — the run continues, resume just won't see this
        // suffix.
        if let Some(journal) = inner.journals.get_mut(&lease.campaign) {
            let line = Msg::Fragment(FragmentReport::from_fragment(&fragment)).to_line();
            if let Err(e) = journal.append(line) {
                events::stderr().emit("persist", "journal_append_failed", |o| {
                    o.int("campaign", lease.campaign).str("error", &e)
                });
                inner.journals.remove(&lease.campaign);
            }
        }
        let camp = &mut inner.active[pos];
        camp.outstanding -= 1;
        camp.executed += 1;
        if camp.cancelled {
            if camp.outstanding == 0 {
                let camp = inner.active.swap_remove(pos);
                Self::finish_cancelled(&mut inner, camp);
                Self::promote(&mut inner);
            }
            drop(inner);
            self.wake.notify_all();
            return;
        }
        let tee_error = camp.tee.as_mut().and_then(|tee| {
            let line = Msg::Fragment(FragmentReport::from_fragment(&fragment)).to_line();
            writeln!(tee, "{line}")
                .err()
                .map(|e| format!("fragment tee write failed: {e}"))
        });
        if camp.cfg.stop_on_first && !fragment.digests.is_empty() {
            camp.hit.fetch_min(fragment.index, Ordering::SeqCst);
        }
        camp.done_batches += 1;
        camp.cases_done += fragment.stats.cases as u64;
        let event = ServiceEvent::Progress {
            campaign: camp.id,
            done: camp.done_batches,
            total: camp.total_batches as u64,
            cases: camp.cases_done,
        };
        camp.fragments.push(fragment);
        let finished =
            (tee_error.is_some() || camp.drained()).then(|| inner.active.swap_remove(pos));
        if finished.is_some() {
            Self::promote(&mut inner);
        }
        Self::broadcast(&mut inner, event);
        drop(inner);
        self.wake.notify_all();
        if let Some(camp) = finished {
            self.finalize(camp, tee_error);
        }
    }

    /// Reduces a drained campaign to its terminal result — or fails it with
    /// `failure` — fills the cache (writing through to the state dir, then
    /// retiring the journal), appends to the corpus, and announces
    /// [`ServiceEvent::Finished`]. A [`Service::submit_config`] campaign
    /// instead receives its report (or error) on its own channel.
    fn finalize(&self, camp: ActiveCampaign, failure: Option<String>) {
        let hit = camp.earliest_hit();
        let outcome = match failure {
            Some(e) => Err(e),
            None => verify_fragment_coverage(&camp.cfg, &camp.fragments, hit, camp.total_batches)
                .map(|()| reduce_fragments(camp.cfg, camp.fragments, hit, camp.start.elapsed()))
                .map_err(|e| format!("campaign incomplete: {e}")),
        };
        if let (Ok(report), Some(corpus)) = (&outcome, &self.corpus) {
            // Best-effort: a full disk must not fail the campaign, but the
            // operator should hear about it. Under the service lock, so two
            // campaigns finishing at once never share the file.
            let records = records_from_report(report);
            let _serial = self.inner.lock().unwrap();
            if let Err(e) = corpus.append(&records) {
                events::stderr().emit("persist", "corpus_append_failed", |o| o.str("error", &e));
            }
        }
        if let Some(reply) = camp.reply {
            let _ = reply.send(outcome);
            return;
        }
        let result = ResultMsg {
            campaign: camp.id,
            cached: false,
            cancelled: false,
            executed_batches: camp.executed,
            report: outcome.as_ref().ok().map(ReportWire::from_report),
            error: outcome.err(),
        };
        let mut inner = self.inner.lock().unwrap();
        // Close the journal handle before any unlink.
        drop(inner.journals.remove(&camp.id));
        if camp.journaled {
            inner.journaled_keys.remove(&camp.key);
        }
        if result.report.is_some() {
            if let Some(state) = &self.state {
                // Write-through THEN delete: a crash between the two leaves
                // both files, and the startup pass clears the stale journal
                // against the cache. A failed write-through keeps the
                // journal, so a restart resumes with zero re-execution.
                match state.append_cache(&camp.key, &result) {
                    Ok(()) if camp.journaled => {
                        let _ = std::fs::remove_file(state.journal_path(&camp.key));
                    }
                    Ok(()) => {}
                    Err(e) => events::stderr().emit("persist", "cache_write_failed", |o| {
                        o.str("key", &camp.key).str("error", &e)
                    }),
                }
            }
            inner.cache.insert(camp.key.clone(), result.clone());
        }
        inner.finished.insert(camp.id, result);
        Self::broadcast(&mut inner, ServiceEvent::Finished { campaign: camp.id });
        drop(inner);
        self.wake.notify_all();
    }

    fn finish_cancelled(inner: &mut Inner, camp: ActiveCampaign) {
        // The journal handle closes here, but the FILE stays: a cancelled
        // campaign's executed prefix is valid work a resubmit can resume.
        drop(inner.journals.remove(&camp.id));
        if camp.journaled {
            inner.journaled_keys.remove(&camp.key);
        }
        inner.finished.insert(
            camp.id,
            ResultMsg {
                campaign: camp.id,
                cached: false,
                cancelled: true,
                executed_batches: camp.executed,
                report: None,
                error: None,
            },
        );
        Self::broadcast(inner, ServiceEvent::Finished { campaign: camp.id });
    }

    fn broadcast(inner: &mut Inner, event: ServiceEvent) {
        inner
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Subscribes to every future [`ServiceEvent`]. A dropped receiver is
    /// pruned on the next broadcast.
    pub fn subscribe(&self) -> Receiver<ServiceEvent> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.inner.lock().unwrap().subscribers.push(tx);
        rx
    }

    /// Removes and returns a finished campaign's terminal result.
    pub fn take_result(&self, campaign: u64) -> Option<ResultMsg> {
        self.inner.lock().unwrap().finished.remove(&campaign)
    }

    /// Whether `campaign` is still in flight (active or queued) — worker
    /// loops use this to garbage-collect per-campaign runtimes.
    pub fn is_active(&self, campaign: u64) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.active.iter().any(|c| c.id == campaign)
            || inner.queued.iter().any(|c| c.id == campaign)
    }

    /// Begins shutdown: no new submits; every [`Service::wait_lease`]
    /// returns [`LeaseWait::Shutdown`] so worker loops drain.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.wake.notify_all();
    }
}

impl Default for Service {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs one [`Service::submit_config`] campaign on a fresh service fed by
/// `slots` scoped threads, each running `slot_loop(service, id, n)` as
/// slot number `n`, attached as `id`, until the service shuts down. This
/// is `Campaign::run_sharded` with [`run_local_slot`] loops and `amulet
/// drive` with linked ones.
pub fn run_with_slots(
    cfg: CampaignConfig,
    batch_programs: usize,
    tee: Option<Box<dyn Write + Send>>,
    slots: usize,
    slot_loop: impl Fn(&Service, u64, usize) + Sync,
) -> Result<CampaignReport, String> {
    let service = Service::new();
    // Attach every slot before the submit, so the degradation floor can
    // never see an empty fleet that is merely still starting up.
    let ids: Vec<u64> = (0..slots.max(1)).map(|_| service.attach_slot()).collect();
    let done = service.submit_config(cfg, batch_programs, tee);
    std::thread::scope(|scope| {
        for (n, id) in ids.into_iter().enumerate() {
            let (service, slot_loop) = (&service, &slot_loop);
            scope.spawn(move || slot_loop(service, id, n));
        }
        let outcome = done
            .recv()
            .unwrap_or_else(|_| Err("campaign ended without a result".into()));
        service.shutdown();
        outcome
    })
}

/// The in-process slot loop: lease, execute, complete, as attached slot
/// `slot`, until the service shuts down (then the slot retires).
///
/// Runtimes are per-campaign (a [`UnitRuntime`] must never serve two
/// configs). Those of campaigns that left the active set are dropped
/// whenever a lease names a campaign the slot holds no runtime for, and
/// whenever the slot goes idle, so a slot under continuous load keeps no
/// finished campaign's runtime.
///
/// A batch that panics fails its campaign, not the slot: the slot drops
/// that campaign's runtime and [refuses](Service::refuse) the campaign
/// with the panic message, so once every live slot has refused it the
/// degradation floor ends the campaign with that message instead of
/// leaving it waiting on a dead thread.
pub fn run_local_slot(service: &Service, slot: u64) {
    let mut runtimes: HashMap<u64, UnitRuntime> = HashMap::new();
    loop {
        match service.wait_lease_for(Some(slot), LEASE_POLL) {
            LeaseWait::Shutdown => return service.retire_slot(slot),
            LeaseWait::Idle => runtimes.retain(|id, _| service.is_active(*id)),
            LeaseWait::Lease(lease) => {
                let rt = runtime_for(&mut runtimes, lease.campaign, |id| service.is_active(id));
                let run = catch_unwind(AssertUnwindSafe(|| {
                    run_batch(&lease.cfg, &lease.spec, lease.anchor, rt)
                }));
                match run {
                    Ok(fragment) => service.complete(*lease, fragment),
                    Err(panic) => {
                        runtimes.remove(&lease.campaign);
                        let error = format!(
                            "batch {} panicked: {}",
                            lease.spec.index,
                            panic_message(panic.as_ref())
                        );
                        service.refuse(slot, *lease, error);
                    }
                }
            }
        }
    }
}

/// `campaign`'s runtime in `runtimes`, created on first use. A campaign
/// without one first drops every runtime whose campaign `is_active` denies.
fn runtime_for(
    runtimes: &mut HashMap<u64, UnitRuntime>,
    campaign: u64,
    is_active: impl Fn(u64) -> bool,
) -> &mut UnitRuntime {
    if !runtimes.contains_key(&campaign) {
        runtimes.retain(|id, _| is_active(*id));
    }
    runtimes.entry(campaign).or_default()
}

/// The message a panic was raised with (`panic!` payloads are a `&str` or
/// a `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn quick_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed,
            scale: None,
            find_first: false,
            batch_programs: 3,
            cycle_skip: true,
        }
    }

    /// With no workers attached, leases are observable one at a time — the
    /// round-robin must alternate strictly between two active campaigns.
    #[test]
    fn fair_share_alternates_between_active_campaigns() {
        let service = Service::new();
        let SubmitOutcome::Accepted { campaign: a, .. } = service.submit(&quick_spec(1)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        let SubmitOutcome::Accepted { campaign: b, .. } = service.submit(&quick_spec(2)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        let mut owners = Vec::new();
        for _ in 0..6 {
            match service.wait_lease(Duration::from_millis(10)) {
                LeaseWait::Lease(lease) => owners.push(lease.campaign),
                other => panic!("expected a lease, got {other:?}"),
            }
        }
        assert_eq!(owners, vec![a, b, a, b, a, b], "round-robin broke");
    }

    /// Cancelling a campaign that never got a worker resolves immediately
    /// with a cancelled result, and a resubmit is accepted (not cached).
    #[test]
    fn cancel_without_workers_resolves_and_does_not_cache() {
        let service = Service::new();
        let SubmitOutcome::Accepted { campaign, .. } = service.submit(&quick_spec(7)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        service.cancel(campaign);
        let result = service.take_result(campaign).expect("cancel is terminal");
        assert!(result.cancelled);
        assert_eq!(result.executed_batches, 0);
        assert!(result.report.is_none());
        assert!(matches!(
            service.submit(&quick_spec(7)).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
    }

    /// Bad specs are client errors; shutdown refuses new work and turns
    /// lease waits into [`LeaseWait::Shutdown`].
    #[test]
    fn bad_specs_error_and_shutdown_drains_waiters() {
        let service = Service::new();
        let err = service
            .submit(&CampaignSpec {
                defense: "Nope".into(),
                ..quick_spec(1)
            })
            .unwrap_err();
        assert!(err.contains("unknown defense"), "{err}");
        service.shutdown();
        assert!(service.submit(&quick_spec(1)).is_err());
        assert!(matches!(
            service.wait_lease(Duration::from_secs(5)),
            LeaseWait::Shutdown
        ));
    }

    /// With `max_active: 1` the second submit queues (admitted, no lease)
    /// and the third sheds with an actionable hint; freeing the active
    /// slot promotes the queue head FIFO.
    #[test]
    fn admission_caps_queue_fifo_and_shed_overflow() {
        let service = Service::new();
        service.set_admission(Admission {
            max_active: 1,
            max_queue: 1,
            per_client: 0,
        });
        let SubmitOutcome::Accepted { campaign: a, .. } = service.submit(&quick_spec(10)).unwrap()
        else {
            panic!("first submit must activate")
        };
        let SubmitOutcome::Accepted { campaign: b, .. } = service.submit(&quick_spec(11)).unwrap()
        else {
            panic!("second submit must queue")
        };
        assert!(service.is_active(b), "queued campaigns are in flight");
        let SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } = service.submit(&quick_spec(12)).unwrap()
        else {
            panic!("third submit must shed")
        };
        assert!(reason.contains("queue full"), "{reason}");
        assert!(retry_after_ms > 0, "hint must be actionable");
        // Only the active campaign leases while b waits in the queue.
        let mut held = Vec::new();
        for _ in 0..3 {
            let LeaseWait::Lease(lease) = service.wait_lease(Duration::from_millis(10)) else {
                panic!("expected a lease")
            };
            assert_eq!(lease.campaign, a, "queued campaign must not lease");
            held.push(lease);
        }
        // A cancelled campaign holds its slot until its leases settle.
        service.cancel(a);
        for lease in held {
            service.release(*lease);
        }
        let LeaseWait::Lease(lease) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("expected a lease after promotion")
        };
        assert_eq!(lease.campaign, b, "queue head must promote FIFO");
    }

    /// The per-client quota counts active + queued per identity and never
    /// penalizes other clients; cancelling a queued campaign resolves it
    /// immediately and frees the quota.
    #[test]
    fn per_client_quota_is_per_identity() {
        let service = Service::new();
        service.set_admission(Admission {
            max_active: 0,
            max_queue: 0,
            per_client: 1,
        });
        let SubmitOutcome::Accepted { campaign, .. } =
            service.submit_for(7, &quick_spec(20)).unwrap()
        else {
            panic!("first submit must activate")
        };
        let SubmitOutcome::Rejected { reason, .. } =
            service.submit_for(7, &quick_spec(21)).unwrap()
        else {
            panic!("over-quota submit must shed")
        };
        assert!(reason.contains("quota"), "{reason}");
        assert!(matches!(
            service.submit_for(8, &quick_spec(21)).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
        service.cancel(campaign);
        let result = service.take_result(campaign).expect("cancel is terminal");
        assert!(result.cancelled);
        assert!(matches!(
            service.submit_for(7, &quick_spec(22)).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
    }

    /// Drain announces once, sheds new submits with a `draining` reason,
    /// and — without persistence — keeps leasing so active campaigns can
    /// finish (finish-drain). Cache hits still answer during drain.
    #[test]
    fn drain_sheds_submits_but_finish_drain_keeps_leasing() {
        let service = Service::new();
        let events = service.subscribe();
        let SubmitOutcome::Accepted { campaign, .. } = service.submit(&quick_spec(30)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        assert_eq!(service.drain(), 1);
        assert!(service.is_draining());
        assert_eq!(service.drain(), 1, "drain is idempotent");
        assert_eq!(
            events.recv_timeout(Duration::from_secs(5)).unwrap(),
            ServiceEvent::Draining { active: 1 },
            "drain must announce to subscribers"
        );
        let SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } = service.submit(&quick_spec(31)).unwrap()
        else {
            panic!("submit during drain must shed")
        };
        assert!(reason.contains("draining"), "{reason}");
        assert!(retry_after_ms > 0);
        let LeaseWait::Lease(lease) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("finish-drain must keep leasing active work")
        };
        assert_eq!(lease.campaign, campaign);
        assert!(!service.persistent());
    }

    /// The degradation floor: a campaign waits while no slot has attached;
    /// it fails with the handshake error once every live slot refused it,
    /// and with "campaign incomplete" once every slot retired — as does
    /// any later submit.
    #[test]
    fn degradation_floor_fails_campaigns_no_live_slot_will_serve() {
        let accept = |service: &Service, seed| match service.submit(&quick_spec(seed)).unwrap() {
            SubmitOutcome::Accepted { campaign, .. } => campaign,
            other => panic!("fresh submit must be accepted, got {other:?}"),
        };
        let service = Service::new();
        let refused = accept(&service, 40);
        assert!(
            service.is_active(refused),
            "no slot yet: the campaign waits"
        );
        let slot = service.attach_slot();
        let LeaseWait::Lease(lease) = service.wait_lease_for(Some(slot), Duration::from_millis(10))
        else {
            panic!("expected a lease")
        };
        service.refuse(slot, *lease, "config mismatch".into());
        let result = service
            .take_result(refused)
            .expect("every live slot refused");
        assert_eq!(result.error.as_deref(), Some("config mismatch"));

        let stranded = accept(&service, 41);
        let LeaseWait::Lease(lease) = service.wait_lease_for(Some(slot), Duration::from_millis(10))
        else {
            panic!("a refusal covers one campaign, not the slot")
        };
        assert_eq!(lease.campaign, stranded);
        service.release(*lease);
        service.retire_slot(slot);
        for campaign in [stranded, accept(&service, 42)] {
            let error = service.take_result(campaign).and_then(|r| r.error);
            assert!(
                error
                    .as_deref()
                    .is_some_and(|e| e.contains("campaign incomplete")),
                "campaign {campaign}: {error:?}"
            );
        }
    }

    /// With a corpus, a journaled violating fragment that carries no
    /// records (written by a corpus-less daemon) is not replayed: its batch
    /// is leased again, asking for records. A clean fragment still
    /// replays, and a corpus-less service replays both.
    #[test]
    fn corpus_resume_reruns_violating_fragments_without_records() {
        use crate::analyze::ViolationClass;
        use crate::campaign::ViolationDigest;
        use crate::detect::ScanStats;
        use crate::journal::{create_journal, JournalHeader};

        let dir =
            std::env::temp_dir().join(format!("amulet_service_records_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = StateDir::open(&dir).unwrap();
        let spec = quick_spec(50);
        let total = plan_batches(&spec.resolve().unwrap(), spec.batch_programs).len() as u64;
        let fragment = |index, violations| FragmentReport {
            index,
            skipped: false,
            stats: ScanStats::default(),
            first_detection_s: None,
            violations,
            records: Vec::new(),
        };
        let digest = ViolationDigest {
            class: ViolationClass::SpectreV1,
            ctrace_digest: 1,
            l1d_diff: vec![0x4740],
            dtlb_diff: Vec::new(),
            l1i_diff: Vec::new(),
        };
        let boot = |corpus: Option<Corpus>| {
            let path = state.journal_path(&spec.cache_key());
            let header = JournalHeader::for_spec(&spec, total);
            let mut journal = create_journal(&path, &header).unwrap();
            for frag in [fragment(0, vec![digest.clone()]), fragment(1, Vec::new())] {
                journal.append(Msg::Fragment(frag).to_line()).unwrap();
            }
            Service::with_persistence(corpus, state.clone(), state.recover().unwrap())
        };

        let plain = boot(None);
        let SubmitOutcome::Accepted { recovered, .. } = plain.submit(&spec).unwrap() else {
            panic!("a journaled campaign resumes")
        };
        assert_eq!(recovered, 2, "without a corpus both fragments replay");

        let corpus = Corpus::open(dir.join("corpus.jsonl"));
        let with_corpus = boot(Some(corpus));
        let SubmitOutcome::Accepted { recovered, .. } = with_corpus.submit(&spec).unwrap() else {
            panic!("a journaled campaign resumes")
        };
        assert_eq!(recovered, 1, "only the clean fragment replays");
        let LeaseWait::Lease(lease) = with_corpus.wait_lease(Duration::from_millis(10)) else {
            panic!("expected a lease")
        };
        assert_eq!(lease.spec.index, 0, "the violating batch re-runs first");
        assert!(lease.spec.records, "and asks for records");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-instance, ten-batch hand-shaped campaign (one program per
    /// batch), submitted through [`Service::submit_config`].
    fn ten_batches(
        service: &Service,
        stop_on_first: bool,
    ) -> Receiver<Result<CampaignReport, String>> {
        let mut cfg = CampaignConfig::quick(
            amulet_defenses::DefenseKind::Baseline,
            amulet_contracts::ContractKind::CtSeq,
        );
        cfg.instances = 1;
        cfg.programs_per_instance = 10;
        cfg.stop_on_first = stop_on_first;
        service.submit_config(cfg, 1, None)
    }

    fn lease(service: &Service) -> Box<Lease> {
        match service.wait_lease(Duration::from_millis(10)) {
            LeaseWait::Lease(lease) => lease,
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    /// A fragment for `lease`'s batch; `hit` gives it one confirmed
    /// violation (a find-first hit).
    fn fragment(lease: &Lease, hit: bool) -> Fragment {
        use crate::analyze::ViolationClass;
        use crate::campaign::ViolationDigest;
        let digest = ViolationDigest {
            class: ViolationClass::SpectreV1,
            ctrace_digest: lease.spec.index as u64,
            l1d_diff: vec![0x4740],
            dtlb_diff: Vec::new(),
            l1i_diff: Vec::new(),
        };
        Fragment {
            index: lease.spec.index,
            digests: if hit { vec![digest] } else { Vec::new() },
            ..Fragment::default()
        }
    }

    /// Find-first: leases come out in batch order; a hit withholds every
    /// later batch; the floor only ever decreases; and the report keeps
    /// exactly the prefix up to the earliest hit.
    #[test]
    fn find_first_leases_in_order_and_withhold_batches_past_the_floor() {
        let service = Service::new();
        let done = ten_batches(&service, true);
        let mut held: Vec<Option<Box<Lease>>> = (0..6).map(|_| Some(lease(&service))).collect();
        let indices: Vec<usize> = held.iter().flatten().map(|l| l.spec.index).collect();
        assert_eq!(
            indices,
            vec![0, 1, 2, 3, 4, 5],
            "leases are handed out in order"
        );
        let mut settle = |i: usize, hit: bool| {
            let lease = held[i].take().unwrap();
            let frag = fragment(&lease, hit);
            service.complete(*lease, frag);
            held[0].as_ref().and_then(|l| l.floor())
        };
        assert_eq!(settle(5, true), Some(5));
        assert_eq!(settle(3, true), Some(3), "an earlier hit lowers the floor");
        assert_eq!(settle(4, true), Some(3), "a later hit never raises it");
        assert!(
            matches!(
                service.wait_lease(Duration::from_millis(10)),
                LeaseWait::Idle
            ),
            "batches past the floor are withheld"
        );
        for i in (0..3).rev() {
            settle(i, false);
        }
        let report = done.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        let kept: Vec<u64> = report.digests.iter().map(|d| d.ctrace_digest).collect();
        assert_eq!(
            kept,
            vec![3],
            "only the prefix up to the earliest hit is kept"
        );
    }

    /// Without find-first a hit is recorded nowhere and withholds nothing:
    /// every planned batch still leases.
    #[test]
    fn hits_are_ignored_without_find_first() {
        let service = Service::new();
        let _done = ten_batches(&service, false);
        let first = lease(&service);
        let frag = fragment(&first, true);
        let later = lease(&service);
        service.complete(*first, frag);
        assert_eq!(later.floor(), None, "no floor without stop_on_first");
        let rest: Vec<usize> = (0..8).map(|_| lease(&service).spec.index).collect();
        assert_eq!(
            rest,
            (2..10).collect::<Vec<_>>(),
            "every batch still leases"
        );
    }

    /// A slot that never goes idle drops a finished campaign's runtime when
    /// the next campaign's first lease reaches it.
    #[test]
    fn a_busy_slot_drops_finished_runtimes_on_the_next_campaign() {
        let service = Service::new();
        let spec = |seed| CampaignSpec {
            batch_programs: 12,
            ..quick_spec(seed)
        };
        let mut runtimes: HashMap<u64, UnitRuntime> = HashMap::new();
        let run_next = |runtimes: &mut HashMap<u64, UnitRuntime>| {
            let lease = lease(&service);
            let rt = runtime_for(runtimes, lease.campaign, |id| service.is_active(id));
            let fragment = run_batch(&lease.cfg, &lease.spec, lease.anchor, rt);
            let campaign = lease.campaign;
            service.complete(*lease, fragment);
            campaign
        };
        let SubmitOutcome::Accepted {
            campaign: first, ..
        } = service.submit(&spec(1)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        while service.is_active(first) {
            assert_eq!(run_next(&mut runtimes), first);
        }
        assert!(runtimes.contains_key(&first), "no idle poll has run");
        let SubmitOutcome::Accepted {
            campaign: second, ..
        } = service.submit(&spec(2)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        assert_eq!(run_next(&mut runtimes), second);
        assert!(
            !runtimes.contains_key(&first),
            "the finished campaign's runtime must go"
        );
        assert!(runtimes.contains_key(&second));
    }

    /// A released lease goes back to the same campaign and is re-leased
    /// before the cursor advances past it.
    #[test]
    fn released_leases_are_reissued_first() {
        let service = Service::new();
        let SubmitOutcome::Accepted { campaign, .. } = service.submit(&quick_spec(3)).unwrap()
        else {
            panic!("fresh submit must not hit the cache")
        };
        let LeaseWait::Lease(first) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("expected a lease")
        };
        let first_index = first.spec.index;
        service.release(*first);
        let LeaseWait::Lease(again) = service.wait_lease(Duration::from_millis(10)) else {
            panic!("expected a lease")
        };
        assert_eq!(again.campaign, campaign);
        assert_eq!(
            again.spec.index, first_index,
            "orphan must be re-leased first"
        );
    }
}
