//! Overload and hostility: the daemon survives admission floods, hostile
//! byte streams, slowloris drips, mid-frame disconnects and drain
//! requests without losing determinism. Every test pairs an adversarial
//! condition with an honest client and proves the honest client's report
//! stays byte-identical to the in-process fingerprint while the daemon
//! sheds, evicts or drains with structured, actionable answers.
//!
//! Hostile byte streams come from [`AdversarialPlan`] — seeded, so every
//! failure replays — delivered through `common::spawn_hardened_client`,
//! which drives the real [`amulet_cli::serve_client_with`] handler over a
//! byte-granular channel (no newline framing, exactly like a socket).

mod common;

use amulet::contracts::ContractKind;
use amulet::defenses::DefenseKind;
use amulet::fuzz::proto::{CampaignSpec, Msg, ResultMsg};
use amulet::fuzz::{
    run_batch, Admission, Campaign, CampaignConfig, LeaseWait, Service, ShardConfig, StateDir,
    UnitRuntime,
};
use amulet_cli::{AdversarialPlan, ServiceHost, SessionLimits};
use common::{spawn_hardened_client, spawn_serve_client, MemClient};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Ample for a quick campaign on a loaded CI box.
const RESULT_TIMEOUT: Duration = Duration::from_secs(120);
/// The quick shape (2 instances × 12 programs) at batch 3 plans 8 batches.
const BATCHES: u64 = 8;

fn spec(seed: u64) -> CampaignSpec {
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

/// The in-process reference: same campaign, same batch plan, no service.
fn solo_fingerprint(seed: u64) -> u64 {
    let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    cfg.seed = seed;
    Campaign::new(cfg)
        .run_sharded(ShardConfig {
            workers: 2,
            batch_programs: 3,
        })
        .fingerprint()
}

/// Reads messages until the terminal `result`, tolerating the overload
/// chatter (`draining`, `recovering`) these tests deliberately provoke.
fn await_result(client: &MemClient) -> ResultMsg {
    loop {
        match client.recv(RESULT_TIMEOUT) {
            Msg::Progress { done, total, .. } => assert!(done <= total, "progress overshot"),
            Msg::Draining { .. } | Msg::Recovering { .. } => {}
            Msg::CampaignResult(result) => return result,
            other => panic!("unexpected {:?} while awaiting result", other.tag()),
        }
    }
}

fn expect_accepted(client: &MemClient) -> u64 {
    match client.recv(RESULT_TIMEOUT) {
        Msg::Accepted { campaign, .. } => campaign,
        other => panic!("expected accepted, got {:?}", other.tag()),
    }
}

fn expect_rejected(client: &MemClient, reason_hint: &str) -> u64 {
    match client.recv(RESULT_TIMEOUT) {
        Msg::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert!(
                reason.contains(reason_hint),
                "shed reason {reason:?} should mention {reason_hint:?}"
            );
            assert!(
                retry_after_ms > 0 && retry_after_ms <= 5_000,
                "retry hint must be actionable, got {retry_after_ms}ms"
            );
            retry_after_ms
        }
        other => panic!("expected rejected, got {:?}", other.tag()),
    }
}

fn fingerprint(result: &ResultMsg) -> u64 {
    result
        .report
        .as_ref()
        .expect("successful result carries a report")
        .fingerprint()
}

fn state_dir(tag: &str) -> StateDir {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "amulet_overload_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    StateDir::open(dir).expect("temp state dir")
}

/// One strike each from the three ladder rungs — a malformed line
/// (dripped in seeded chunks), an oversized frame, and a protocol-valid
/// but unexpected message — evicts the hostile session, while an honest
/// client sharing the service lands on the in-process fingerprint.
#[test]
fn strike_ladder_evicts_hostile_sessions_without_disturbing_honest_clients() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 2, &[]);
    let limits = SessionLimits {
        max_line_bytes: 256,
        strike_limit: 3,
        ..SessionLimits::default()
    };
    let (hostile_tx, _hostile_rx, hostile) = spawn_hardened_client(&service, limits);
    let honest = spawn_serve_client(&service);

    honest.send(&Msg::Submit(spec(501)));
    expect_accepted(&honest);

    let mut plan = AdversarialPlan::new(0xB000);
    // Strike 1: a malformed line, delivered byte-dribbled so the frame
    // assembler has to stitch it back together before rejecting it.
    let mut frame = plan.malformed_line().into_bytes();
    frame.push(b'\n');
    for chunk in plan.slow_chunks(&frame) {
        hostile_tx.send(chunk).expect("session died early");
    }
    // Strike 2: an oversized frame (discarded, never buffered whole).
    let mut oversized = vec![b'{'; 4 * 1024];
    oversized.push(b'\n');
    hostile_tx.send(oversized).expect("session died early");
    // Strike 3: protocol-valid chatter a client has no business sending.
    let mut unexpected = plan.unexpected_line().into_bytes();
    unexpected.push(b'\n');
    hostile_tx.send(unexpected).expect("session died early");

    let stats = hostile
        .join()
        .expect("session thread must not panic")
        .expect("eviction is an orderly return, not an error");
    assert_eq!(stats.evicted, Some("strikes"));
    assert_eq!(stats.malformed, 3, "each rung of the ladder is one strike");
    assert_eq!(stats.submitted, 0);

    let result = await_result(&honest);
    assert_eq!(result.error, None);
    assert_eq!(result.executed_batches, BATCHES);
    assert_eq!(fingerprint(&result), solo_fingerprint(501));
    drop(honest);
    host.shutdown();
    assert_eq!(
        service.pending_results(),
        0,
        "evicted sessions must not leave results pinned in memory"
    );
}

/// A slow writer that drips partial-frame bytes but never completes a
/// line is reaped on the idle clock — trickling bytes must not count as
/// liveness — while an honest campaign on the same service completes.
#[test]
fn slowloris_drip_is_idle_reaped_while_honest_sessions_proceed() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 2, &[]);
    let limits = SessionLimits {
        idle_timeout: Duration::from_millis(250),
        ..SessionLimits::default()
    };
    let (hostile_tx, _hostile_rx, hostile) = spawn_hardened_client(&service, limits);
    let honest = spawn_serve_client(&service);

    honest.send(&Msg::Submit(spec(502)));
    expect_accepted(&honest);

    // Drip a strict prefix of a real submit frame, a byte or three at a
    // time, faster than the idle clock — the session must be reaped
    // anyway, because no frame ever completes.
    let mut plan = AdversarialPlan::new(0x51_0C);
    let frame = format!("{}\n", Msg::Submit(spec(999)).to_line()).into_bytes();
    let prefix = plan.partial_prefix(&frame);
    let dripper = std::thread::spawn(move || {
        for i in 0..30 {
            // Cycle the prefix bytes — a newline never arrives.
            if hostile_tx.send(vec![prefix[i % prefix.len()]]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let stats = hostile
        .join()
        .expect("session thread must not panic")
        .expect("idle reaping is an orderly return");
    assert_eq!(stats.evicted, Some("idle"));
    assert_eq!(stats.submitted, 0, "the partial frame never parsed");
    dripper.join().expect("dripper thread");

    let result = await_result(&honest);
    assert_eq!(result.error, None);
    assert_eq!(fingerprint(&result), solo_fingerprint(502));
    drop(honest);
    host.shutdown();
}

/// With one active slot and one queue slot, the third concurrent submit
/// is shed with an actionable retry hint; the two admitted campaigns and
/// the retried one all land on their in-process fingerprints.
#[test]
fn admission_queue_sheds_overflow_with_actionable_retry_hints() {
    let service = Arc::new(Service::new());
    service.set_admission(Admission {
        max_active: 1,
        max_queue: 1,
        per_client: 0,
    });
    // No workers yet: admission state is pinned while the flood arrives.
    let mut host = ServiceHost::start(service.clone(), 0, &[]);
    let a = spawn_serve_client(&service);
    let b = spawn_serve_client(&service);
    let c = spawn_serve_client(&service);

    a.send(&Msg::Submit(spec(41)));
    expect_accepted(&a);
    b.send(&Msg::Submit(spec(42)));
    expect_accepted(&b); // admitted to the FIFO queue
    c.send(&Msg::Submit(spec(43)));
    expect_rejected(&c, "queue full");

    host.add_local_workers(2);
    let result_a = await_result(&a);
    let result_b = await_result(&b);
    assert_eq!(fingerprint(&result_a), solo_fingerprint(41));
    assert_eq!(
        fingerprint(&result_b),
        solo_fingerprint(42),
        "queueing must not change the admitted campaign's report"
    );

    // The shed client retries exactly as the hint instructs and converges
    // on the same fingerprint a never-shed run would have produced.
    c.send(&Msg::Submit(spec(43)));
    expect_accepted(&c);
    let result_c = await_result(&c);
    assert!(!result_c.cached && !result_c.cancelled);
    assert_eq!(fingerprint(&result_c), solo_fingerprint(43));
    drop((a, b, c));
    host.shutdown();
}

/// The per-client quota counts in-flight campaigns per connection
/// identity: the greedy client's second submit is shed while a different
/// client submits the very same spec unimpeded.
#[test]
fn per_client_quota_rejects_only_the_greedy_identity() {
    let service = Arc::new(Service::new());
    service.set_admission(Admission {
        max_active: 0,
        max_queue: 0,
        per_client: 1,
    });
    let mut host = ServiceHost::start(service.clone(), 0, &[]);
    let greedy = spawn_serve_client(&service);
    let other = spawn_serve_client(&service);

    greedy.send(&Msg::Submit(spec(61)));
    expect_accepted(&greedy);
    greedy.send(&Msg::Submit(spec(62)));
    expect_rejected(&greedy, "quota");
    other.send(&Msg::Submit(spec(62)));
    expect_accepted(&other);

    host.add_local_workers(2);
    assert_eq!(fingerprint(&await_result(&greedy)), solo_fingerprint(61));
    assert_eq!(fingerprint(&await_result(&other)), solo_fingerprint(62));
    drop((greedy, other));
    host.shutdown();
}

/// A client that dies mid-frame (a strict prefix of a valid submit, then
/// the socket drops) ends as a clean EOF: no strikes, no phantom submit,
/// and the service stays healthy for the next client.
#[test]
fn mid_frame_disconnect_is_a_clean_eof_not_a_strike() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 2, &[]);
    let (hostile_tx, _hostile_rx, hostile) =
        spawn_hardened_client(&service, SessionLimits::default());

    let mut plan = AdversarialPlan::new(0xD15C);
    let frame = format!("{}\n", Msg::Submit(spec(777)).to_line()).into_bytes();
    hostile_tx
        .send(plan.partial_prefix(&frame))
        .expect("session died early");
    drop(hostile_tx); // mid-frame disconnect

    let stats = hostile
        .join()
        .expect("session thread must not panic")
        .expect("EOF is a normal session end");
    assert_eq!(stats.evicted, None);
    assert_eq!(stats.malformed, 0, "a torn frame is not a protocol crime");
    assert_eq!(stats.submitted, 0, "the partial submit must not execute");

    let client = spawn_serve_client(&service);
    client.send(&Msg::Submit(spec(503)));
    expect_accepted(&client);
    assert_eq!(fingerprint(&await_result(&client)), solo_fingerprint(503));
    drop(client);
    host.shutdown();
}

/// In-memory drain (`--state-dir` absent): the draining service refuses
/// new submits but keeps leasing until owned campaigns finish, announces
/// `draining` to connected clients, and still delivers the in-process
/// fingerprint before the session winds down.
#[test]
fn finish_drain_delivers_owned_results_and_sheds_new_submits() {
    let service = Arc::new(Service::new());
    let mut host = ServiceHost::start(service.clone(), 0, &[]);
    let client = spawn_serve_client(&service);

    client.send(&Msg::Submit(spec(71)));
    expect_accepted(&client);

    assert_eq!(service.drain(), 1, "one campaign was in flight");
    assert!(service.is_draining());
    match client.recv(RESULT_TIMEOUT) {
        Msg::Draining { active } => assert_eq!(active, 1),
        other => panic!("expected draining, got {:?}", other.tag()),
    }
    client.send(&Msg::Submit(spec(72)));
    expect_rejected(&client, "draining");

    // Workers attached *after* the drain still finish the admitted work:
    // finish-drain means "stop admitting", not "stop computing".
    host.add_local_workers(2);
    let result = await_result(&client);
    assert!(!result.cancelled, "finish-drain must not cancel owned work");
    assert_eq!(result.executed_batches, BATCHES);
    assert_eq!(fingerprint(&result), solo_fingerprint(71));

    // With its owned campaign resolved, the drained session closes.
    assert!(
        client.rx.recv_timeout(RESULT_TIMEOUT).is_err(),
        "drained session must close after delivering owned results"
    );
    drop(client);
    host.shutdown();
}

/// Checkpoint drain (`--state-dir` present): draining mid-campaign stops
/// the lease flow, the session hands the journal back via cancellation,
/// and a restarted service resumes the journaled prefix batch-granularly
/// to the uninterrupted fingerprint.
///
/// The first run has no worker threads: the test leases and executes
/// exactly two batches itself, so the drain lands mid-campaign however
/// fast batches run.
#[test]
fn checkpoint_drain_journals_and_a_restart_resumes_fingerprint_identical() {
    let resume_spec = spec(81);
    let solo = solo_fingerprint(81);
    let state = state_dir("drain");

    let recovery = state.recover().expect("fresh dir recovers empty");
    let service = Arc::new(Service::with_persistence(None, state.clone(), recovery));
    let host = ServiceHost::start(service.clone(), 0, &[]);
    let client = spawn_serve_client(&service);

    client.send(&Msg::Submit(resume_spec.clone()));
    expect_accepted(&client);
    let mut rt = UnitRuntime::new();
    for _ in 0..2 {
        let LeaseWait::Lease(lease) = service.wait_lease(RESULT_TIMEOUT) else {
            panic!("the submitted campaign must offer a batch");
        };
        let fragment = run_batch(&lease.cfg, &lease.spec, lease.anchor, &mut rt);
        service.complete(*lease, fragment);
    }
    // Let at least two batches land in the journal before the "SIGTERM".
    let mut seen = 0;
    while seen < 2 {
        match client.recv(RESULT_TIMEOUT) {
            Msg::Progress { done, .. } => seen = done,
            other => panic!("expected progress, got {:?}", other.tag()),
        }
    }

    service.drain();
    // The session announces the drain, checkpoints (cancels) its owned
    // campaign and closes; the journal file stays on disk.
    let mut saw_draining = false;
    // The receive error is the session closing — the loop's exit.
    while let Ok(line) = client.rx.recv_timeout(RESULT_TIMEOUT) {
        match Msg::parse_line(&line).expect("malformed service line") {
            Msg::Draining { .. } => saw_draining = true,
            Msg::Progress { .. } | Msg::CampaignResult(_) => {}
            other => panic!("unexpected {:?} during drain", other.tag()),
        }
    }
    assert!(
        saw_draining,
        "client was never told the service is draining"
    );
    host.shutdown();

    // Restart: recovery finds the journaled prefix, the resubmitted spec
    // resumes it and executes only the missing batches.
    let recovery = state.recover().expect("recovery pass must not fail");
    let service = Arc::new(Service::with_persistence(None, state.clone(), recovery));
    let host = ServiceHost::start(service.clone(), 2, &[]);
    let client = spawn_serve_client(&service);

    client.send(&Msg::Submit(resume_spec));
    expect_accepted(&client);
    let mut recovered = 0;
    let result = loop {
        match client.recv(RESULT_TIMEOUT) {
            Msg::Recovering {
                recovered: r,
                total,
                ..
            } => {
                assert_eq!(total, BATCHES);
                recovered = r;
            }
            Msg::Progress { .. } => {}
            Msg::CampaignResult(result) => break result,
            other => panic!("unexpected {:?} while resuming", other.tag()),
        }
    };
    assert!(
        (2..BATCHES).contains(&recovered),
        "expected a partial journaled prefix, got {recovered}"
    );
    assert_eq!(result.error, None);
    assert!(!result.cancelled && !result.cached);
    assert_eq!(
        result.executed_batches,
        BATCHES - recovered,
        "the resumed run must execute exactly the missing suffix"
    );
    assert_eq!(
        fingerprint(&result),
        solo,
        "drain + resume changed the report"
    );
    drop(client);
    host.shutdown();
}
