//! Crash safety end to end: a state-dir-backed [`Service`] killed at any
//! injected crash point must, on restart, either resume the interrupted
//! campaign from its journaled batch prefix or recompute cleanly — and in
//! every case produce a report fingerprint byte-identical to an
//! uninterrupted in-process run, never double-counting a fragment.
//!
//! The crash points come from two injectors:
//!
//! - **abandonment**: the first service is dropped after K completed
//!   batches — the process-death analogue (the journal holds exactly the
//!   K-record prefix a SIGKILL would leave);
//! - **[`CrashPlan`]**: the storage layer itself dies mid-append, leaving
//!   a seeded torn tail on disk — the fsync-boundary cases a clean drop
//!   cannot produce.
//!
//! The real-process version of the same matrix (serve → SIGKILL →
//! restart → resubmit) runs in CI as the kill-the-daemon smoke.

mod common;

use amulet::fuzz::proto::{CampaignSpec, Msg, ResultMsg};
use amulet::fuzz::{
    plan_batches, run_batch, Campaign, CrashPlan, Service, ShardConfig, StateDir, UnitRuntime,
};
use amulet::util::Xoshiro256;
use common::spawn_serve_client;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

fn spec(seed: u64, find_first: bool) -> CampaignSpec {
    CampaignSpec {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        source: "PHT".into(),
        seed,
        scale: None,
        find_first,
        batch_programs: 3,
        cycle_skip: true,
    }
}

/// The uninterrupted reference: the same campaign run in process.
fn solo_fingerprint(spec: &CampaignSpec) -> u64 {
    let cfg = spec.resolve().expect("test spec must resolve");
    Campaign::new(cfg)
        .run_sharded(ShardConfig {
            workers: 2,
            batch_programs: spec.batch_programs,
        })
        .fingerprint()
}

fn state_dir(tag: &str) -> StateDir {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "amulet_recovery_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    StateDir::open(dir).expect("temp state dir")
}

/// A service attached to `state`, exactly as `amulet serve --state-dir`
/// builds one: recovery pass first, then the service over its findings.
fn boot(state: &StateDir) -> Service {
    let recovery = state.recover().expect("recovery pass must not fail");
    Service::with_persistence(None, state.clone(), recovery)
}

/// Leases, executes and completes up to `max` batches — the in-process
/// stand-in for the daemon's worker loop, stopping exactly where the test
/// wants the "crash" to land.
fn drive(service: &Service, max: usize) -> usize {
    let mut runtimes: HashMap<u64, UnitRuntime> = HashMap::new();
    let mut done = 0;
    while done < max {
        let Some(lease) = service.try_lease() else {
            break;
        };
        let rt = runtimes.entry(lease.campaign).or_default();
        let fragment = run_batch(&lease.cfg, &lease.spec, lease.anchor, rt);
        service.complete(lease, fragment);
        done += 1;
    }
    done
}

/// Submits `spec` as a newly connected client of `service`; the client's
/// outbox comes back beside the answer, the first message read from it.
fn submit(service: &Service, spec: &CampaignSpec) -> (Msg, Receiver<Msg>) {
    let (tx, outbox) = channel();
    let client = service.connect(tx);
    service.submit(client, spec);
    let answer = outbox.try_recv().expect("a submit is answered at once");
    (answer, outbox)
}

/// The terminal result of a campaign already driven to its end.
fn result_in(outbox: &Receiver<Msg>) -> ResultMsg {
    outbox
        .try_iter()
        .find_map(|msg| match msg {
            Msg::CampaignResult(result) => Some(result),
            _ => None,
        })
        .expect("campaign must finalize")
}

/// Submits `spec` as [`submit`] does and unpacks an `accepted` answer:
/// the campaign id, its batch total, the batches a journal resume
/// recovered — announced by the `recovering` note that must directly
/// follow `accepted` — and the client's outbox.
fn accepted(service: &Service, spec: &CampaignSpec) -> (u64, u64, u64, Receiver<Msg>) {
    let (answer, outbox) = submit(service, spec);
    let Msg::Accepted {
        campaign,
        cached: false,
    } = answer
    else {
        panic!("expected accepted, got {answer:?}")
    };
    let total = plan_batches(&spec.resolve().unwrap(), spec.batch_programs).len() as u64;
    let recovered = match outbox.try_recv() {
        Ok(Msg::Recovering {
            campaign: resumed,
            recovered,
            total: announced,
        }) => {
            assert_eq!((resumed, announced), (campaign, total));
            recovered
        }
        Err(TryRecvError::Empty) => 0,
        other => panic!("only a recovering note may follow accepted, got {other:?}"),
    };
    (campaign, total, recovered, outbox)
}

/// The tentpole matrix: for every K in the plan, kill the first daemon
/// after exactly K journaled batches and prove the restarted one resumes
/// with `recovered == K`, executes exactly the missing `total - K`, and
/// lands on the uninterrupted fingerprint.
#[test]
fn crash_point_matrix_resumes_fingerprint_identical() {
    let spec = spec(2025, false);
    let solo = solo_fingerprint(&spec);

    for k in [0usize, 1, 3, 5, 7] {
        let state = state_dir(&format!("matrix{k}"));

        // First daemon: K batches land in the journal, then the "crash" —
        // the service is dropped with the campaign still active.
        let first = boot(&state);
        let (_, total, recovered, _) = accepted(&first, &spec);
        let total = total as usize;
        assert_eq!(recovered, 0, "fresh dir has nothing to recover");
        assert!(k < total, "crash point {k} must interrupt, not complete");
        assert_eq!(drive(&first, k), k);
        drop(first);

        // Restarted daemon: the resubmit resumes the journaled prefix.
        let second = boot(&state);
        let (_, _, recovered, outbox) = accepted(&second, &spec);
        assert_eq!(recovered as usize, k, "exactly the journaled prefix");
        assert_eq!(drive(&second, total), total - k, "only the missing run");
        let result = result_in(&outbox);
        assert_eq!(
            result.executed_batches,
            (total - k) as u64,
            "a resumed run must never re-execute (or double-count) a \
             journaled batch"
        );
        if k > 0 {
            assert!(
                result.executed_batches < total as u64,
                "the acceptance gate: strictly fewer batches than the plan"
            );
        }
        let report = result.report.expect("resumed campaign must succeed");
        assert_eq!(report.fingerprint(), solo, "crash point {k}");
        assert!(
            !state.journal_path(&spec.cache_key()).exists(),
            "a completed campaign's journal must be retired"
        );
        std::fs::remove_dir_all(state.path()).unwrap();
    }
}

/// Storage-level crash points: the journal dies mid-append under a seeded
/// [`CrashPlan`], leaving a torn trailing record. The restarted daemon
/// must replay exactly the intact prefix — the torn fragment re-executes.
#[test]
fn torn_append_crash_points_resume_exactly() {
    let spec = spec(2026, false);
    let solo = solo_fingerprint(&spec);
    let mut rng = Xoshiro256::seed_from_u64(0xc4a5_40ff);

    for k in [0usize, 2, 4, 6] {
        let torn_bytes = rng.range(0, 120) as usize;
        let state = state_dir(&format!("torn{k}"));

        let first = boot(&state);
        first.arm_crash_plan(CrashPlan::torn(k, torn_bytes));
        let (_, total, _, _) = accepted(&first, &spec);
        let total = total as usize;
        // Drive K+1: appends 0..K succeed, the (K+1)th tears the journal.
        // The campaign itself survives (persistence failures degrade to
        // warnings), but the crash leaves disk exactly as a mid-write kill
        // would.
        assert_eq!(drive(&first, k + 1), k + 1);
        drop(first);

        let second = boot(&state);
        let (_, _, recovered, outbox) = accepted(&second, &spec);
        assert_eq!(
            recovered as usize, k,
            "torn record (len {torn_bytes}) must not replay"
        );
        assert_eq!(drive(&second, total), total - k);
        let result = result_in(&outbox);
        assert_eq!(result.executed_batches, (total - k) as u64);
        assert_eq!(
            result.report.expect("must succeed").fingerprint(),
            solo,
            "torn crash point {k} (+{torn_bytes}b)"
        );
        std::fs::remove_dir_all(state.path()).unwrap();
    }
}

/// A fully journaled campaign completes: the report is written through to
/// the persisted cache and survives a restart byte-identically, answered
/// with `executed_batches: 0` and no re-execution.
#[test]
fn completed_campaign_replays_from_the_persisted_cache() {
    let spec = spec(2027, false);
    let state = state_dir("cache");

    let first = boot(&state);
    let (_, total, _, outbox) = accepted(&first, &spec);
    assert_eq!(drive(&first, total as usize), total as usize);
    let original = result_in(&outbox);
    let original_report = original.report.clone().expect("first run succeeds");
    drop(first);

    assert!(
        !state.journal_path(&spec.cache_key()).exists(),
        "write-through retires the journal"
    );
    let second = boot(&state);
    let (Msg::Accepted { cached: true, .. }, outbox) = submit(&second, &spec) else {
        panic!("a persisted report must answer the resubmit from cache")
    };
    let result = result_in(&outbox);
    assert!(result.cached);
    assert_eq!(result.executed_batches, 0);
    assert_eq!(
        result.report,
        Some(original_report),
        "the replay is byte-identical (same wire line modulo id fields)"
    );
    assert_eq!(second.executed_batches_total(), 0, "no batch ran");
    std::fs::remove_dir_all(state.path()).unwrap();
}

/// Unusable journals — wrong campaign identity, interior corruption —
/// must recompute cleanly: full batch count, correct fingerprint, never
/// a crash or a corrupted result.
#[test]
fn unusable_journals_recompute_cleanly() {
    let spec = spec(2028, false);
    let other = self::spec(999, false);
    let solo = solo_fingerprint(&spec);
    let path_of = |state: &StateDir| state.journal_path(&spec.cache_key());

    // (a) the file at our path holds a different campaign's journal;
    // (b) valid header, garbage record — interior corruption.
    let plant: [&dyn Fn(&StateDir); 2] = [
        &|state: &StateDir| {
            let first = boot(state);
            accepted(&first, &other);
            drive(&first, 2);
            drop(first);
            std::fs::rename(state.journal_path(&other.cache_key()), path_of(state)).unwrap();
        },
        &|state: &StateDir| {
            let first = boot(state);
            accepted(&first, &spec);
            drive(&first, 2);
            drop(first);
            let mut text = std::fs::read_to_string(path_of(state)).unwrap();
            let at = text.find("\"type\":\"fragment\"").unwrap();
            text.replace_range(at..at + 6, "zzzzzz");
            std::fs::write(path_of(state), text).unwrap();
        },
    ];
    for (case, plant) in plant.iter().enumerate() {
        let state = state_dir(&format!("unusable{case}"));
        plant(&state);

        let service = boot(&state);
        let (_, total, recovered, outbox) = accepted(&service, &spec);
        assert_eq!(recovered, 0, "case {case}: bad journals replay nothing");
        assert_eq!(drive(&service, total as usize), total as usize);
        let result = result_in(&outbox);
        assert_eq!(result.executed_batches, total, "full recompute");
        assert_eq!(result.report.expect("must succeed").fingerprint(), solo);
        std::fs::remove_dir_all(state.path()).unwrap();
    }
}

/// Find-first campaigns resume too: when the journaled prefix already
/// carries the earliest hit, the restarted service skips every past-hit
/// batch, finalizes straight from the journal with **zero** re-execution,
/// and the report equals the uninterrupted find-first run.
#[test]
fn find_first_campaigns_resume_with_their_hit() {
    // Seed 2029's first confirmed violation lands in batch 1 (the suite is
    // deterministic), so journaling batches 0 and 1 journals the hit.
    let spec = spec(2029, true);
    let solo = solo_fingerprint(&spec);
    let state = state_dir("findfirst");

    // Lease three batches concurrently, complete only the first two: the
    // hit reaches the journal, but the outstanding third lease keeps the
    // campaign from draining — so dropping the service here is a crash
    // *after* the hit, not a completed campaign.
    let first = boot(&state);
    accepted(&first, &spec);
    let mut leases = Vec::new();
    for _ in 0..3 {
        leases.push(first.try_lease().expect("expected a lease"));
    }
    let mut rt = UnitRuntime::default();
    for lease in leases.drain(..2) {
        let fragment = run_batch(&lease.cfg, &lease.spec, lease.anchor, &mut rt);
        first.complete(lease, fragment);
    }
    drop(first);

    // The resumed prefix contains the hit: everything else is past-hit,
    // the campaign drains at submit time and no batch ever re-executes.
    let second = boot(&state);
    let (_, _, recovered, outbox) = accepted(&second, &spec);
    assert_eq!(recovered, 2);
    let result = result_in(&outbox);
    assert_eq!(result.executed_batches, 0, "the hit was already on disk");
    assert_eq!(second.executed_batches_total(), 0);
    assert_eq!(
        result.report.expect("must succeed").fingerprint(),
        solo,
        "find-first resume must preserve the fingerprint"
    );
    std::fs::remove_dir_all(state.path()).unwrap();
}

/// The client-visible half: a resumed campaign announces itself with the
/// protocol-v4 `recovering` note between `accepted` and the first
/// `progress`, and the client still converges on the solo fingerprint.
#[test]
fn resumed_campaigns_announce_recovering_to_the_client() {
    let spec = spec(2030, false);
    let solo = solo_fingerprint(&spec);
    let state = state_dir("announce");

    let first = boot(&state);
    let (_, total, _, _) = accepted(&first, &spec);
    assert_eq!(drive(&first, 3), 3);
    drop(first);

    let second = Arc::new(boot(&state));
    let host = amulet_cli::ServiceHost::start(second.clone(), 2, &[]);
    let client = spawn_serve_client(&second);
    client.send(&Msg::Submit(spec.clone()));

    let timeout = Duration::from_secs(120);
    let Msg::Accepted { cached: false, .. } = client.recv(timeout) else {
        panic!("resumed campaign is accepted, not cached")
    };
    let Msg::Recovering {
        recovered,
        total: announced,
        ..
    } = client.recv(timeout)
    else {
        panic!("the recovering note must directly follow accepted")
    };
    assert_eq!(recovered, 3);
    assert_eq!(announced, total);
    let result = loop {
        match client.recv(timeout) {
            Msg::Progress { .. } => {}
            Msg::CampaignResult(r) => break r,
            other => panic!("unexpected {:?}", other.tag()),
        }
    };
    assert_eq!(result.executed_batches, total - 3);
    assert_eq!(result.report.expect("must succeed").fingerprint(), solo);
    drop(client);
    host.shutdown();
    std::fs::remove_dir_all(state.path()).unwrap();
}
