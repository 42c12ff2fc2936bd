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
//! # One outbox per client
//!
//! A client [connects](Service::connect) an outbox and gets its client id.
//! Everything the service says to a client arrives there as a [`Msg`]: the
//! answer to each [submit](Service::submit) (`accepted`, `recovering`,
//! `rejected`, or an error `result`), then each accepted campaign's
//! `progress` and terminal `result`, and every `draining`. A client
//! [cancels](Service::cancel) only its own campaigns, and
//! [`Service::disconnect`] cancels whatever it still has in flight.
//!
//! The service is transport-agnostic: `amulet serve` (the CLI) wires each
//! client socket to an outbox and [`Service::submit`], and worker
//! loops to [`Service::wait_lease`]/[`Service::complete`]; `amulet drive`
//! and [`Campaign::run_sharded`](crate::Campaign::run_sharded) run one
//! campaign through [`Service::submit_config`]; the in-memory
//! test suite drives the same methods directly. [`run_with_slots`] is the
//! single-campaign skeleton `run_sharded` and `drive` share, and
//! [`run_local_slot`] the one in-process worker loop, shared by
//! `run_sharded` and `serve`'s local workers.
//!
//! # No clock in a slot
//!
//! A slot's only wait is [`Service::wait_lease`], which has no deadline.
//! It returns a lease, shutdown, or [`LeaseWait::Ended`] for a campaign
//! the slot leased from once that campaign leaves the active set (every
//! removal goes through one helper that queues the end), so a slot frees
//! a finished campaign's runtime or worker session without polling.

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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// A client's outbox ([`Service::connect`]): takes one message and says
/// whether its receiver is still there.
type Outbox = Box<dyn Fn(Msg) -> bool + Send>;

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
/// ([`Msg::Rejected`]) and carry an actionable `retry_after_ms` hint;
/// cache hits are always answered (they cost no worker time).
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
    /// The spec `cfg` was resolved from — what a linked slot sends its
    /// worker. `None` for a hand-built config, which only local slots run.
    pub campaign_spec: Option<Arc<CampaignSpec>>,
    /// The campaign's detection-time anchor.
    pub anchor: Instant,
    /// Whether this batch was returned by a failing slot and is being
    /// re-issued (an adopted orphan).
    pub adopted: bool,
}

/// The outcome of one [`Service::wait_lease`] call.
#[derive(Debug)]
pub enum LeaseWait {
    /// A batch to execute. Boxed: a [`Lease`] carries a full
    /// [`CampaignConfig`] and dwarfs the other variants.
    Lease(Box<Lease>),
    /// A campaign this slot leased from left the active set (finished,
    /// failed or cancelled): the slot drops what it holds for it.
    Ended(u64),
    /// The service is shutting down — the worker loop should exit.
    Shutdown,
}

/// One in-flight campaign.
struct ActiveCampaign {
    id: u64,
    /// The submitting client — the one outbox told of this campaign, and
    /// what the per-client in-flight quota counts. `u64::MAX` for a
    /// [`Service::submit_config`] campaign, which has no outbox.
    owner: u64,
    /// The spec `cfg` was resolved from (`None` for a hand-built config);
    /// its [`CampaignSpec::cache_key`] keys the result cache and journal.
    spec: Option<Arc<CampaignSpec>>,
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
    /// Earliest batch index with a confirmed violation (find-first only):
    /// the one find-first floor. Batches past it are never leased; a batch
    /// leased before it dropped still runs, and the reducer discards it.
    hit: Option<usize>,
    /// Leases handed out and not yet completed or released.
    outstanding: usize,
    /// Slots that leased from this campaign — the ones told when it ends.
    leased_by: HashSet<u64>,
    executed: u64,
    fragments: Vec<Fragment>,
    cases_done: u64,
    cancelled: bool,
    /// Slots that refused this campaign, with their errors.
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
            spec: None,
            cfg,
            batches,
            total_batches,
            journaled: false,
            cursor: 0,
            orphans: Vec::new(),
            hit: None,
            outstanding: 0,
            leased_by: HashSet::new(),
            executed: 0,
            fragments: Vec::new(),
            cases_done: 0,
            cancelled: false,
            refused: HashMap::new(),
            reply: None,
            tee: None,
            start: Instant::now(),
        }
    }

    /// The result-cache and journal key (empty for a hand-built config,
    /// which is never cached or journaled).
    fn key(&self) -> String {
        self.spec
            .as_deref()
            .map_or_else(String::new, CampaignSpec::cache_key)
    }

    /// Whether `index` lies past the find-first cancellation floor.
    fn past_hit(&self, index: usize) -> bool {
        self.hit.is_some_and(|hit| index > hit)
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
    /// Client ids handed out so far.
    next_client: u64,
    /// Connected clients' outboxes, by client id.
    outboxes: HashMap<u64, Outbox>,
    shutdown: bool,
    /// Slot ids handed out so far (0 = no slot ever attached).
    next_slot: u64,
    /// Attached slots that have not retired, each with the campaigns it
    /// leased from that ended since its last [`Service::wait_lease`].
    live_slots: HashMap<u64, Vec<u64>>,
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

    /// Registers a client's outbox and returns its client id: from now on
    /// `tx` receives, converted to its message type, the answer to every
    /// submit the client makes, the `progress` and `result` of every
    /// campaign it has accepted, and every `draining`. A session can thus
    /// wait on its input and its outbox as one channel.
    pub fn connect<T: From<Msg> + Send + 'static>(&self, tx: Sender<T>) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let client = inner.next_client;
        inner.next_client += 1;
        let outbox = move |msg: Msg| tx.send(msg.into()).is_ok();
        inner.outboxes.insert(client, Box::new(outbox));
        client
    }

    /// Ends a client's conversation: drops its outbox and cancels every
    /// campaign it still has active or queued — a result nobody will read
    /// is not worth worker time.
    pub fn disconnect(&self, client: u64) {
        self.inner.lock().unwrap().outboxes.remove(&client);
        self.cancel_where(|c| c.owner == client);
    }

    /// Outboxes currently connected.
    pub fn connected(&self) -> usize {
        self.inner.lock().unwrap().outboxes.len()
    }

    /// Submits a campaign on behalf of `client` and answers it in the
    /// client's outbox, under the service lock, before any message of the
    /// campaign itself. A cache hit is `accepted{cached:true}` followed by
    /// the stored result under the fresh id. A miss passes admission
    /// control (per-client quota, active cap, bounded FIFO admit queue —
    /// see [`Admission`]): shed, it is `rejected` and takes no id;
    /// admitted, it is `accepted` (plus `recovering` on a journal resume)
    /// and joins the fair-share rotation or the admit queue. A malformed
    /// spec or a shut-down service is answered with an error `result`
    /// under campaign `u64::MAX`, since no id was assigned.
    pub fn submit(&self, client: u64, spec: &CampaignSpec) {
        let planned = spec
            .resolve()
            .map(|cfg| (self.plan(&cfg, spec.batch_programs), cfg));
        let key = spec.cache_key();
        let mut inner = self.inner.lock().unwrap();
        let (batches, cfg) = match planned {
            Ok(planned) if !inner.shutdown => planned,
            failed => {
                let error = failed
                    .err()
                    .unwrap_or_else(|| "service is shutting down".into());
                let result = ResultMsg {
                    campaign: u64::MAX,
                    cached: false,
                    cancelled: false,
                    executed_batches: 0,
                    report: None,
                    error: Some(error),
                };
                return Self::tell(&mut inner, client, Msg::CampaignResult(result));
            }
        };
        if let Some(hit) = inner.cache.get(&key).cloned() {
            let id = Self::accept(&mut inner, client, true);
            let result = ResultMsg {
                campaign: id,
                cached: true,
                executed_batches: 0,
                ..hit
            };
            return Self::tell(&mut inner, client, Msg::CampaignResult(result));
        }
        let queue = match Self::admission(&inner, client) {
            Ok(queue) => queue,
            Err((reason, retry_after_ms)) => {
                let rejected = Msg::Rejected {
                    reason,
                    retry_after_ms,
                };
                return Self::tell(&mut inner, client, rejected);
            }
        };
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
        let hit = cfg
            .stop_on_first
            .then(|| {
                recovered_frags
                    .iter()
                    .filter(|f| !f.digests.is_empty())
                    .map(|f| f.index)
                    .min()
            })
            .flatten();
        let id = Self::accept(&mut inner, client, false);
        if recovered > 0 {
            let recovering = Msg::Recovering {
                campaign: id,
                recovered,
                total: total_batches,
            };
            Self::tell(&mut inner, client, recovering);
        }
        let camp = ActiveCampaign {
            owner: client,
            spec: Some(Arc::new(spec.clone())),
            journaled: journal.is_some(),
            hit,
            cases_done: recovered_frags.iter().map(|f| f.stats.cases as u64).sum(),
            fragments: recovered_frags,
            ..ActiveCampaign::new(id, cfg, missing, total)
        };
        if let Some(j) = journal {
            inner.journals.insert(id, j);
            inner.journaled_keys.insert(key);
        }
        if queue && !camp.drained() {
            // Admission found room in the queue. Journal resume already
            // happened, so a queued campaign loses nothing by waiting.
            inner.queued.push_back(camp);
            self.enforce_floor(inner);
        } else {
            // A campaign the journal already covers (modulo past-hit
            // batches) finalizes right here, consuming no admission slot.
            self.admit(inner, camp);
        }
    }

    /// Admission control for a submit the cache cannot answer: whether the
    /// campaign must wait in the admit queue, or why it is shed and when to
    /// retry, in milliseconds. Cache hits skip it (zero worker cost);
    /// everything here would execute batches, so it is subject to the drain
    /// state and the configured limits. The retry hint scales with the load
    /// actually ahead of the client.
    fn admission(inner: &Inner, client: u64) -> Result<bool, (String, u64)> {
        let load = inner.active.len() + inner.queued.len();
        let retry_after_ms = (100 * (1 + load as u64)).min(5_000);
        if inner.draining {
            return Err(("draining: not admitting new campaigns".into(), 1_000));
        }
        let adm = inner.admission;
        if adm.per_client > 0 {
            let in_flight = inner.active.iter().filter(|c| c.owner == client).count()
                + inner.queued.iter().filter(|c| c.owner == client).count();
            if in_flight >= adm.per_client {
                let reason = format!(
                    "client quota: {in_flight} campaign(s) already in flight (limit {})",
                    adm.per_client
                );
                return Err((reason, retry_after_ms));
            }
        }
        let active_full = adm.max_active > 0 && inner.active.len() >= adm.max_active;
        if active_full && inner.queued.len() >= adm.max_queue {
            let reason = format!(
                "admit queue full ({} active, {} queued)",
                inner.active.len(),
                inner.queued.len()
            );
            return Err((reason, retry_after_ms));
        }
        Ok(active_full)
    }

    /// Assigns the next campaign id — only an accepted submit takes one —
    /// and tells `client` its submit was accepted under it.
    fn accept(inner: &mut Inner, client: u64, cached: bool) -> u64 {
        let campaign = inner.next_id;
        inner.next_id += 1;
        Self::tell(inner, client, Msg::Accepted { campaign, cached });
        campaign
    }

    /// Submits one campaign config — the single-campaign path
    /// `Campaign::run_sharded` and `amulet drive` run on. It bypasses the
    /// result cache, admission control and the journal, and it yields the
    /// reduced [`CampaignReport`] itself on the returned channel — or the
    /// error that ended the campaign. `spec`, when given, is the spec `cfg`
    /// was resolved from: it rides every lease, which is what lets linked
    /// slots send the campaign to their workers. A hand-built config has
    /// none and runs on local slots only. `tee`, when given, receives every
    /// executed fragment as one protocol line; a failed tee write fails the
    /// campaign.
    pub fn submit_config(
        &self,
        cfg: CampaignConfig,
        spec: Option<&CampaignSpec>,
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
            spec: spec.map(|s| Arc::new(s.clone())),
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

    /// Cancels `client`'s campaign `campaign`. Already-leased batches may
    /// still complete (their fragments are discarded); the terminal
    /// [`ResultMsg`] has `cancelled: true` and no report, and the cache is
    /// not populated. An unknown, finished or other client's campaign is a
    /// no-op.
    pub fn cancel(&self, client: u64, campaign: u64) {
        self.cancel_where(|c| c.owner == client && c.id == campaign);
    }

    /// Cancels every active or queued campaign `hit` selects. A queued one
    /// resolves at once (it holds no leases by construction), an active one
    /// once its outstanding leases settle.
    fn cancel_where(&self, hit: impl Fn(&ActiveCampaign) -> bool) {
        let mut inner = self.inner.lock().unwrap();
        let (gone, kept) = inner.queued.drain(..).partition(|c| hit(c));
        inner.queued = kept;
        for camp in gone {
            Self::finish_cancelled(&mut inner, camp);
        }
        let mut pos = 0;
        while pos < inner.active.len() {
            let camp = &mut inner.active[pos];
            if hit(camp) {
                camp.cancelled = true;
                if camp.outstanding == 0 {
                    let camp = Self::deactivate(&mut inner, pos);
                    Self::finish_cancelled(&mut inner, camp);
                    continue;
                }
            }
            pos += 1;
        }
        drop(inner);
        self.wake.notify_all();
    }

    /// Enters the drain state: no new campaigns are admitted (submits shed
    /// with a `draining` reason), every outbox receives
    /// [`Msg::Draining`], and — on a persistent service — lease
    /// waiters see [`LeaseWait::Shutdown`] so in-flight campaigns stop at
    /// their journaled checkpoint instead of running to completion.
    /// Returns the campaigns (active + queued) still in flight; idempotent
    /// (repeat calls neither re-announce nor change the count's meaning).
    pub fn drain(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let in_flight = (inner.active.len() + inner.queued.len()) as u64;
        if !inner.draining {
            inner.draining = true;
            let draining = Msg::Draining { active: in_flight };
            inner.outboxes.retain(|_, outbox| outbox(draining.clone()));
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

    /// Blocks attached slot `slot` until the scheduler has something for
    /// it: shutdown, the end of a campaign it leased from, or a batch from
    /// a campaign it has not [refused](Service::refuse). There is no
    /// deadline: every change that could answer a waiter wakes it.
    pub fn wait_lease(&self, slot: u64) -> LeaseWait {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if self.stopping(&inner) {
                return LeaseWait::Shutdown;
            }
            if let Some(campaign) = inner.live_slots.get_mut(&slot).and_then(Vec::pop) {
                return LeaseWait::Ended(campaign);
            }
            if let Some(lease) = Self::next_lease(&mut inner, Some(slot)) {
                return LeaseWait::Lease(Box::new(lease));
            }
            inner = self.wake.wait(inner).unwrap();
        }
    }

    /// A lease runnable right now, taken on behalf of no slot — the probe
    /// for callers that drive the scheduler by hand, such as tests.
    pub fn try_lease(&self) -> Option<Lease> {
        Self::next_lease(&mut self.inner.lock().unwrap(), None)
    }

    /// Round-robin lease: resume one past the campaign that got the
    /// previous lease, so concurrent campaigns alternate A, B, A, B...
    fn next_lease(inner: &mut Inner, slot: Option<u64>) -> Option<Lease> {
        let n = inner.active.len();
        for step in 0..n {
            let pos = (inner.rr + step) % n;
            let camp = &mut inner.active[pos];
            if camp.cancelled || slot.is_some_and(|s| camp.refused.contains_key(&s)) {
                continue;
            }
            if let Some((spec, adopted)) = camp.next_runnable() {
                camp.outstanding += 1;
                camp.leased_by.extend(slot);
                let lease = Lease {
                    campaign: camp.id,
                    spec,
                    cfg: camp.cfg.clone(),
                    campaign_spec: camp.spec.clone(),
                    anchor: camp.start,
                    adopted,
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
    /// [`Service::wait_lease`], [`Service::refuse`] and
    /// [`Service::retire_slot`].
    pub fn attach_slot(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.next_slot;
        inner.next_slot += 1;
        inner.live_slots.insert(slot, Vec::new());
        slot
    }

    /// Retires a slot (quarantine, or its loop exiting), dropping the
    /// campaign ends it has not heard, and applies the degradation floor to
    /// the campaigns it leaves behind.
    pub fn retire_slot(&self, slot: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.live_slots.remove(&slot);
        self.enforce_floor(inner);
    }

    /// Returns a lease unexecuted (worker failure): the batch goes back
    /// into the campaign's orphan pool for the next taker.
    pub fn release(&self, lease: Lease) {
        self.settle_unexecuted(lease, None);
    }

    /// Returns a lease because `slot` cannot serve its campaign: a local
    /// slot whose batch panicked, or a linked slot whose worker speaks
    /// another protocol version, rejected the campaign's spec, or was
    /// leased a hand-built config it has no spec to send for. The slot is
    /// never offered this campaign again, and when no live slot is left
    /// willing to serve it the campaign fails with `error`.
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
                let camp = Self::deactivate(&mut inner, pos);
                Self::finish_cancelled(&mut inner, camp);
            } else if camp.drained() {
                // Only past-hit work was returned: nothing is left to run.
                finished = Some(Self::deactivate(&mut inner, pos));
            }
        }
        self.enforce_floor(inner);
        if let Some(camp) = finished {
            self.finalize(camp, None);
        }
    }

    /// The degradation floor: finalizes with an error every campaign that
    /// has runnable work but no live slot willing to serve it — with a
    /// refusing slot's error when slots refused it, "campaign
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
                    .keys()
                    .any(|s| !camp.refused.contains_key(s));
                if willing || camp.cancelled || !camp.has_runnable() {
                    pos += 1;
                } else {
                    stranded.push(Self::deactivate(&mut inner, pos));
                }
            }
            if inner.live_slots.is_empty() {
                stranded.extend(inner.queued.drain(..));
            }
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
                let camp = Self::deactivate(&mut inner, pos);
                Self::finish_cancelled(&mut inner, camp);
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
            camp.hit = Some(camp.hit.map_or(fragment.index, |h| h.min(fragment.index)));
        }
        camp.cases_done += fragment.stats.cases as u64;
        camp.fragments.push(fragment);
        let owner = camp.owner;
        let progress = Msg::Progress {
            campaign: camp.id,
            done: camp.fragments.len() as u64,
            total: camp.total_batches as u64,
            cases: camp.cases_done,
        };
        let finished =
            (tee_error.is_some() || camp.drained()).then(|| Self::deactivate(&mut inner, pos));
        Self::tell(&mut inner, owner, progress);
        drop(inner);
        self.wake.notify_all();
        if let Some(camp) = finished {
            self.finalize(camp, tee_error);
        }
    }

    /// Reduces a drained campaign to its terminal result — or fails it with
    /// `failure` — fills the cache (writing through to the state dir, then
    /// retiring the journal), appends to the corpus, and only then sends the
    /// result to its owner's outbox, so a resubmit that follows it hits the
    /// cache. A [`Service::submit_config`] campaign instead receives its
    /// report (or error) on its own channel.
    fn finalize(&self, camp: ActiveCampaign, failure: Option<String>) {
        let (hit, key) = (camp.hit, camp.key());
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
            inner.journaled_keys.remove(&key);
        }
        if result.report.is_some() {
            if let Some(state) = &self.state {
                // Write-through THEN delete: a crash between the two leaves
                // both files, and the startup pass clears the stale journal
                // against the cache. A failed write-through keeps the
                // journal, so a restart resumes with zero re-execution.
                match state.append_cache(&key, &result) {
                    Ok(()) if camp.journaled => {
                        let _ = std::fs::remove_file(state.journal_path(&key));
                    }
                    Ok(()) => {}
                    Err(e) => events::stderr().emit("persist", "cache_write_failed", |o| {
                        o.str("key", &key).str("error", &e)
                    }),
                }
            }
            inner.cache.insert(key, result.clone());
        }
        Self::tell(&mut inner, camp.owner, Msg::CampaignResult(result));
        drop(inner);
        self.wake.notify_all();
    }

    /// Takes `active[pos]` out of the rotation — the one way a campaign
    /// leaves it — queues its end for every live slot that leased from it,
    /// and promotes the admit queue into the freed place. The caller wakes
    /// the waiters.
    fn deactivate(inner: &mut Inner, pos: usize) -> ActiveCampaign {
        let camp = inner.active.swap_remove(pos);
        for slot in &camp.leased_by {
            if let Some(ended) = inner.live_slots.get_mut(slot) {
                ended.push(camp.id);
            }
        }
        Self::promote(inner);
        camp
    }

    fn finish_cancelled(inner: &mut Inner, camp: ActiveCampaign) {
        // The journal handle closes here, but the FILE stays: a cancelled
        // campaign's executed prefix is valid work a resubmit can resume.
        drop(inner.journals.remove(&camp.id));
        if camp.journaled {
            inner.journaled_keys.remove(&camp.key());
        }
        let cancelled = ResultMsg {
            campaign: camp.id,
            cached: false,
            cancelled: true,
            executed_batches: camp.executed,
            report: None,
            error: None,
        };
        Self::tell(inner, camp.owner, Msg::CampaignResult(cancelled));
    }

    /// Sends `msg` to `client`'s outbox, if it is connected; an outbox
    /// whose receiver is gone is dropped.
    fn tell(inner: &mut Inner, client: u64, msg: Msg) {
        if inner
            .outboxes
            .get(&client)
            .is_some_and(|outbox| !outbox(msg))
        {
            inner.outboxes.remove(&client);
        }
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
/// drive` with linked ones (which need the campaign's `spec`).
pub fn run_with_slots(
    cfg: CampaignConfig,
    spec: Option<&CampaignSpec>,
    batch_programs: usize,
    tee: Option<Box<dyn Write + Send>>,
    slots: usize,
    slot_loop: impl Fn(&Service, u64, usize) + Sync,
) -> Result<CampaignReport, String> {
    let service = Service::new();
    // Attach every slot before the submit, so the degradation floor can
    // never see an empty fleet that is merely still starting up.
    let ids: Vec<u64> = (0..slots.max(1)).map(|_| service.attach_slot()).collect();
    let done = service.submit_config(cfg, spec, batch_programs, tee);
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
/// configs). A campaign's runtime is dropped when the service reports its
/// end ([`LeaseWait::Ended`]), so a slot keeps no finished campaign's
/// runtime and needs no clock.
///
/// A batch that panics fails its campaign, not the slot: the slot drops
/// that campaign's runtime and [refuses](Service::refuse) the campaign
/// with the panic message, so once every live slot has refused it the
/// degradation floor ends the campaign with that message instead of
/// leaving it waiting on a dead thread.
pub fn run_local_slot(service: &Service, slot: u64) {
    let mut runtimes: HashMap<u64, UnitRuntime> = HashMap::new();
    loop {
        match service.wait_lease(slot) {
            LeaseWait::Shutdown => return service.retire_slot(slot),
            LeaseWait::Ended(campaign) => drop(runtimes.remove(&campaign)),
            LeaseWait::Lease(lease) => {
                let rt = runtimes.entry(lease.campaign).or_default();
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

    /// A connected client and its outbox.
    fn client(service: &Service) -> (u64, Receiver<Msg>) {
        let (tx, outbox) = channel();
        (service.connect(tx), outbox)
    }

    /// `client`'s submit of `spec`, answered in its outbox: the accepted
    /// campaign's id, or the message that refused it.
    fn submit(
        service: &Service,
        client: u64,
        outbox: &Receiver<Msg>,
        spec: &CampaignSpec,
    ) -> Result<u64, Box<Msg>> {
        service.submit(client, spec);
        match outbox.try_recv().expect("a submit is answered at once") {
            Msg::Accepted {
                campaign,
                cached: false,
            } => Ok(campaign),
            refused => Err(Box::new(refused)),
        }
    }

    /// The first terminal result waiting in `outbox`, if any.
    fn result(outbox: &Receiver<Msg>) -> Option<ResultMsg> {
        outbox.try_iter().find_map(|msg| match msg {
            Msg::CampaignResult(result) => Some(result),
            _ => None,
        })
    }

    /// With no workers attached, leases are observable one at a time — the
    /// round-robin must alternate strictly between two active campaigns.
    #[test]
    fn fair_share_alternates_between_active_campaigns() {
        let service = Service::new();
        let (c, outbox) = client(&service);
        let a = submit(&service, c, &outbox, &quick_spec(1))
            .expect("fresh submit must not hit the cache");
        let b = submit(&service, c, &outbox, &quick_spec(2))
            .expect("fresh submit must not hit the cache");
        let owners: Vec<u64> = (0..6).map(|_| lease(&service).campaign).collect();
        assert_eq!(owners, vec![a, b, a, b, a, b], "round-robin broke");
    }

    /// Cancelling a campaign that never got a worker resolves immediately
    /// with a cancelled result, and a resubmit is accepted (not cached).
    #[test]
    fn cancel_without_workers_resolves_and_does_not_cache() {
        let service = Service::new();
        let (c, outbox) = client(&service);
        let campaign = submit(&service, c, &outbox, &quick_spec(7))
            .expect("fresh submit must not hit the cache");
        service.cancel(c, campaign);
        let result = result(&outbox).expect("cancel is terminal");
        assert!(result.cancelled);
        assert_eq!(result.executed_batches, 0);
        assert!(result.report.is_none());
        assert!(submit(&service, c, &outbox, &quick_spec(7)).is_ok());
    }

    /// Bad specs are client errors, answered with an error result under no
    /// campaign id; shutdown refuses new work the same way and turns lease
    /// waits into [`LeaseWait::Shutdown`].
    #[test]
    fn bad_specs_error_and_shutdown_drains_waiters() {
        let service = Service::new();
        let (c, outbox) = client(&service);
        let error = |spec: &CampaignSpec| match *submit(&service, c, &outbox, spec).unwrap_err() {
            Msg::CampaignResult(result) if result.campaign == u64::MAX => result.error,
            other => panic!("expected an error result, got {other:?}"),
        };
        let bad = CampaignSpec {
            defense: "Nope".into(),
            ..quick_spec(1)
        };
        let err = error(&bad).unwrap();
        assert!(err.contains("unknown defense"), "{err}");
        service.shutdown();
        assert!(error(&quick_spec(1)).is_some_and(|e| e.contains("shutting down")));
        assert!(matches!(
            service.wait_lease(service.attach_slot()),
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
        let (c, outbox) = client(&service);
        let a = submit(&service, c, &outbox, &quick_spec(10)).expect("first submit must activate");
        let b = submit(&service, c, &outbox, &quick_spec(11)).expect("second submit must queue");
        assert!(result(&outbox).is_none(), "queued campaigns wait");
        let Msg::Rejected {
            reason,
            retry_after_ms,
        } = *submit(&service, c, &outbox, &quick_spec(12)).unwrap_err()
        else {
            panic!("third submit must shed")
        };
        assert!(reason.contains("queue full"), "{reason}");
        assert!(retry_after_ms > 0, "hint must be actionable");
        // Only the active campaign leases while b waits in the queue.
        let mut held = Vec::new();
        for _ in 0..3 {
            let lease = lease(&service);
            assert_eq!(lease.campaign, a, "queued campaign must not lease");
            held.push(lease);
        }
        // A cancelled campaign holds its slot until its leases settle.
        service.cancel(c, a);
        for lease in held {
            service.release(lease);
        }
        assert_eq!(lease(&service).campaign, b, "queue head must promote FIFO");
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
        let ((greedy, outbox), (other, other_outbox)) = (client(&service), client(&service));
        let campaign =
            submit(&service, greedy, &outbox, &quick_spec(20)).expect("first submit must activate");
        let Msg::Rejected { reason, .. } =
            *submit(&service, greedy, &outbox, &quick_spec(21)).unwrap_err()
        else {
            panic!("over-quota submit must shed")
        };
        assert!(reason.contains("quota"), "{reason}");
        assert!(submit(&service, other, &other_outbox, &quick_spec(21)).is_ok());
        service.cancel(greedy, campaign);
        let result = result(&outbox).expect("cancel is terminal");
        assert!(result.cancelled);
        assert!(submit(&service, greedy, &outbox, &quick_spec(22)).is_ok());
    }

    /// Drain announces once, sheds new submits with a `draining` reason,
    /// and — without persistence — keeps leasing so active campaigns can
    /// finish (finish-drain). Cache hits still answer during drain.
    #[test]
    fn drain_sheds_submits_but_finish_drain_keeps_leasing() {
        let service = Service::new();
        let (c, outbox) = client(&service);
        let campaign = submit(&service, c, &outbox, &quick_spec(30))
            .expect("fresh submit must not hit the cache");
        assert_eq!(service.drain(), 1);
        assert!(service.is_draining());
        assert_eq!(service.drain(), 1, "drain is idempotent");
        assert_eq!(
            outbox.recv_timeout(Duration::from_secs(5)).unwrap(),
            Msg::Draining { active: 1 },
            "drain must announce to every outbox"
        );
        let Msg::Rejected {
            reason,
            retry_after_ms,
        } = *submit(&service, c, &outbox, &quick_spec(31)).unwrap_err()
        else {
            panic!("submit during drain must shed")
        };
        assert!(reason.contains("draining"), "{reason}");
        assert!(retry_after_ms > 0);
        let lease = service
            .try_lease()
            .expect("finish-drain must keep leasing active work");
        assert_eq!(lease.campaign, campaign);
        assert!(!service.persistent());
    }

    /// The degradation floor: a campaign waits while no slot has attached;
    /// it fails with the refusal error once every live slot refused it (and
    /// the refusing slot hears its end), and with "campaign incomplete"
    /// once every slot retired — as does any later submit.
    #[test]
    fn degradation_floor_fails_campaigns_no_live_slot_will_serve() {
        let service = Service::new();
        let (c, outbox) = client(&service);
        let accept = |seed| match submit(&service, c, &outbox, &quick_spec(seed)) {
            Ok(campaign) => campaign,
            Err(other) => panic!("fresh submit must be accepted, got {other:?}"),
        };
        let refused = accept(40);
        assert!(result(&outbox).is_none(), "no slot yet: the campaign waits");
        let slot = service.attach_slot();
        let LeaseWait::Lease(lease) = service.wait_lease(slot) else {
            panic!("expected a lease")
        };
        service.refuse(slot, *lease, "config mismatch".into());
        let failed = result(&outbox).expect("every live slot refused");
        assert_eq!(failed.campaign, refused);
        assert_eq!(failed.error.as_deref(), Some("config mismatch"));
        assert!(
            matches!(service.wait_lease(slot), LeaseWait::Ended(c) if c == refused),
            "the refusing slot hears the failed campaign's end"
        );

        let stranded = accept(41);
        let LeaseWait::Lease(lease) = service.wait_lease(slot) else {
            panic!("a refusal covers one campaign, not the slot")
        };
        assert_eq!(lease.campaign, stranded);
        service.release(*lease);
        service.retire_slot(slot);
        let stranded_result = result(&outbox);
        let late = accept(42);
        for (campaign, failed) in [(stranded, stranded_result), (late, result(&outbox))] {
            let failed = failed.expect("a stranded campaign fails");
            assert_eq!(failed.campaign, campaign);
            let error = failed.error;
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
        use crate::journal::{create_journal, JournalHeader};

        let dir =
            std::env::temp_dir().join(format!("amulet_service_records_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = StateDir::open(&dir).unwrap();
        let spec = quick_spec(50);
        let total = plan_batches(&spec.resolve().unwrap(), spec.batch_programs).len() as u64;
        let fragment = |index, violations| FragmentReport {
            index,
            violations,
            ..FragmentReport::default()
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
        let (c, outbox) = client(&plain);
        let resumed = |service: &Service, c, outbox: &Receiver<Msg>| {
            submit(service, c, outbox, &spec).expect("fresh submit must not hit the cache");
            match outbox.try_recv() {
                Ok(Msg::Recovering { recovered, .. }) => recovered,
                other => panic!("a journaled campaign resumes, got {other:?}"),
            }
        };
        let recovered = resumed(&plain, c, &outbox);
        assert_eq!(recovered, 2, "without a corpus both fragments replay");

        let corpus = Corpus::open(dir.join("corpus.jsonl"));
        let with_corpus = boot(Some(corpus));
        let (c, outbox) = client(&with_corpus);
        let recovered = resumed(&with_corpus, c, &outbox);
        assert_eq!(recovered, 1, "only the clean fragment replays");
        let lease = with_corpus.try_lease().expect("expected a lease");
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
        service.submit_config(cfg, None, 1, None)
    }

    fn lease(service: &Service) -> Lease {
        service.try_lease().expect("expected a runnable lease")
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
        let mut held: Vec<Option<Lease>> = (0..7).map(|_| Some(lease(&service))).collect();
        let indices: Vec<usize> = held.iter().flatten().map(|l| l.spec.index).collect();
        assert_eq!(
            indices,
            vec![0, 1, 2, 3, 4, 5, 6],
            "leases are handed out in order"
        );
        let mut take = |i: usize| held[i].take().unwrap();
        let settle = |lease: Lease, hit: bool| {
            let frag = fragment(&lease, hit);
            service.complete(lease, frag);
        };
        settle(take(6), true);
        assert!(
            service.try_lease().is_none(),
            "batches past the floor are withheld"
        );
        settle(take(3), true);
        service.release(take(5));
        assert!(
            service.try_lease().is_none(),
            "an earlier hit lowers the floor: a released batch past it is withheld"
        );
        settle(take(4), true);
        for i in (0..3).rev() {
            settle(take(i), false);
        }
        let report = done.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        let kept: Vec<u64> = report.digests.iter().map(|d| d.ctrace_digest).collect();
        assert_eq!(
            kept,
            vec![3],
            "only the prefix up to the earliest hit is kept: a later hit never raises the floor"
        );
    }

    /// Without find-first a hit withholds nothing: every planned batch
    /// still leases, and the report keeps every hit.
    #[test]
    fn hits_are_ignored_without_find_first() {
        let service = Service::new();
        let done = ten_batches(&service, false);
        let first = lease(&service);
        let frag = fragment(&first, true);
        service.complete(first, frag);
        let rest: Vec<Lease> = (0..9).map(|_| lease(&service)).collect();
        assert_eq!(
            rest.iter().map(|l| l.spec.index).collect::<Vec<_>>(),
            (1..10).collect::<Vec<_>>(),
            "every batch still leases"
        );
        for lease in rest {
            let frag = fragment(&lease, lease.spec.index == 9);
            service.complete(lease, frag);
        }
        let report = done.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        let kept: Vec<u64> = report.digests.iter().map(|d| d.ctrace_digest).collect();
        assert_eq!(kept, vec![0, 9], "every hit is kept");
    }

    /// A slot hears the end of each campaign it leased from, cancelled or
    /// finished, before its next lease; a slot that never leased from a
    /// campaign hears nothing of it.
    #[test]
    fn a_slot_hears_the_end_of_each_campaign_it_leased_from() {
        let service = Service::new();
        let (slot, bystander) = (service.attach_slot(), service.attach_slot());
        let lease_for = |slot| match service.wait_lease(slot) {
            LeaseWait::Lease(lease) => lease,
            other => panic!("expected a lease, got {other:?}"),
        };
        let ended = |slot| match service.wait_lease(slot) {
            LeaseWait::Ended(campaign) => campaign,
            other => panic!("expected a campaign end, got {other:?}"),
        };

        let (c, outbox) = client(&service);
        let cancelled = submit(&service, c, &outbox, &quick_spec(60))
            .expect("fresh submit must not hit the cache");
        let held = lease_for(slot);
        service.cancel(c, cancelled);
        service.release(*held);
        assert_eq!(
            ended(slot),
            cancelled,
            "a cancel ends once its leases settle"
        );

        let mut cfg = CampaignConfig::quick(
            amulet_defenses::DefenseKind::Baseline,
            amulet_contracts::ContractKind::CtSeq,
        );
        cfg.instances = 1;
        cfg.programs_per_instance = 1;
        let done = service.submit_config(cfg, None, 1, None);
        let only = lease_for(slot);
        let finished = only.campaign;
        let frag = fragment(&only, false);
        service.complete(*only, frag);
        assert!(done.recv_timeout(Duration::from_secs(5)).unwrap().is_ok());
        assert_eq!(ended(slot), finished, "a drained campaign ends");

        assert!(result(&outbox).is_some_and(|r| r.cancelled));
        let next = submit(&service, c, &outbox, &quick_spec(61))
            .expect("fresh submit must not hit the cache");
        assert_eq!(
            lease_for(bystander).campaign,
            next,
            "a slot hears only of campaigns it leased from"
        );
    }

    /// A released lease goes back to the same campaign and is re-leased
    /// before the cursor advances past it.
    #[test]
    fn released_leases_are_reissued_first() {
        let service = Service::new();
        let (c, outbox) = client(&service);
        let campaign = submit(&service, c, &outbox, &quick_spec(3))
            .expect("fresh submit must not hit the cache");
        let first = lease(&service);
        let first_index = first.spec.index;
        service.release(first);
        let again = lease(&service);
        assert_eq!(again.campaign, campaign);
        assert_eq!(
            again.spec.index, first_index,
            "orphan must be re-leased first"
        );
    }

    /// A campaign's progress and result reach only the outbox of the client
    /// that submitted it, and another client's cancel of it is a no-op.
    #[test]
    fn a_campaign_is_told_only_to_its_own_client() {
        let service = Service::new();
        let ((owner, outbox), (other, bystander)) = (client(&service), client(&service));
        let spec = quick_spec(70);
        let total_batches =
            plan_batches(&spec.resolve().unwrap(), spec.batch_programs).len() as u64;
        let campaign =
            submit(&service, owner, &outbox, &spec).expect("fresh submit must not hit the cache");
        service.cancel(other, campaign);
        while let Some(lease) = service.try_lease() {
            let frag = fragment(&lease, false);
            service.complete(lease, frag);
        }
        let told: Vec<Msg> = outbox.try_iter().collect();
        assert_eq!(
            told.len() as u64,
            total_batches + 1,
            "one progress per batch, then the result"
        );
        let Some(Msg::CampaignResult(result)) = told.last() else {
            panic!("the result comes last, got {:?}", told.last())
        };
        assert!(!result.cancelled, "another client's cancel is a no-op");
        assert!(result.report.is_some(), "{:?}", result.error);
        assert_eq!(
            bystander.try_iter().count(),
            0,
            "another client's outbox hears nothing of the campaign"
        );
    }

    /// Disconnecting drops the client's outbox and cancels its active and
    /// queued campaigns, and no other client's.
    #[test]
    fn disconnect_cancels_only_the_clients_campaigns() {
        let service = Service::new();
        service.set_admission(Admission {
            max_active: 1,
            max_queue: 2,
            per_client: 0,
        });
        let ((gone, gone_outbox), (stays, outbox)) = (client(&service), client(&service));
        let accept =
            |client, outbox, seed| match submit(&service, client, outbox, &quick_spec(seed)) {
                Ok(campaign) => campaign,
                Err(other) => panic!("fresh submit must be accepted, got {other:?}"),
            };
        accept(gone, &gone_outbox, 80);
        accept(gone, &gone_outbox, 81);
        let waiting = accept(stays, &outbox, 82);
        let held = lease(&service);
        service.disconnect(gone);
        assert_eq!(service.connected(), 1, "the outbox is dropped");
        service.release(held);
        assert_eq!(
            lease(&service).campaign,
            waiting,
            "the active campaign ends once its lease settles, and the queued one is gone"
        );
        assert!(
            result(&outbox).is_none(),
            "the other client's campaign runs on"
        );
    }

    /// Only an accepted submit takes a campaign id: a shed between two
    /// accepted submits leaves their ids consecutive.
    #[test]
    fn a_shed_submit_takes_no_campaign_id() {
        let service = Service::new();
        service.set_admission(Admission {
            per_client: 1,
            ..Admission::default()
        });
        let (c, outbox) = client(&service);
        let a = submit(&service, c, &outbox, &quick_spec(90)).expect("first submit must activate");
        let Msg::Rejected { .. } = *submit(&service, c, &outbox, &quick_spec(91)).unwrap_err()
        else {
            panic!("over-quota submit must shed")
        };
        service.cancel(c, a);
        assert!(result(&outbox).is_some_and(|r| r.cancelled));
        let next = submit(&service, c, &outbox, &quick_spec(92)).expect("the quota is free again");
        assert_eq!(next, a + 1, "the shed submit must not burn an id");
    }
}
