//! Service-level determinism: every report produced *through* `amulet
//! serve`'s machinery — solo, interleaved under fair-share scheduling,
//! cancelled and resubmitted, or replayed from the result cache — is
//! fingerprint-identical to the same campaign run in-process.
//!
//! These tests drive the real [`amulet_cli::serve_client`] handler and
//! real [`amulet_cli::ServiceHost`] worker threads over in-memory pipes
//! (see `common::spawn_serve_client`); `crates/cli/tests/serve_tcp.rs`
//! proves the same contract over real sockets and processes.

mod common;

use amulet::contracts::ContractKind;
use amulet::defenses::DefenseKind;
use amulet::fuzz::proto::{CampaignSpec, Msg, ResultMsg};
use amulet::fuzz::{Admission, Campaign, CampaignConfig, Service, ShardConfig};
use amulet_cli::ServiceHost;
use common::{spawn_serve_client, MemClient};
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

/// Reads messages until the terminal `result`, asserting progress rows
/// are monotonic. Returns the raw result line plus its parsed form.
fn await_result(client: &MemClient) -> (String, ResultMsg) {
    let mut last_done = 0;
    loop {
        let line = client.recv_line(RESULT_TIMEOUT);
        match Msg::parse_line(&line).expect("malformed service line") {
            Msg::Progress { done, total, .. } => {
                assert!(done > last_done, "progress went backwards: {line}");
                assert!(done <= total, "progress overshot: {line}");
                last_done = done;
            }
            Msg::CampaignResult(result) => return (line, result),
            other => panic!("unexpected {:?} while awaiting result", other.tag()),
        }
    }
}

fn expect_accepted(client: &MemClient, want_cached: bool) -> u64 {
    match client.recv(RESULT_TIMEOUT) {
        Msg::Accepted { campaign, cached } => {
            assert_eq!(cached, want_cached, "wrong cache disposition");
            campaign
        }
        other => panic!("expected accepted, got {:?}", other.tag()),
    }
}

#[test]
fn solo_service_campaign_matches_the_in_process_fingerprint() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 2, &[]);
    let client = spawn_serve_client(&service);

    client.send(&Msg::Submit(spec(101)));
    expect_accepted(&client, false);
    let (_, result) = await_result(&client);

    assert_eq!(result.error, None);
    assert!(!result.cached && !result.cancelled);
    assert_eq!(result.executed_batches, BATCHES);
    let report = result.report.expect("successful result carries a report");
    assert_eq!(report.fingerprint(), solo_fingerprint(101));
    assert_eq!(service.executed_batches_total(), BATCHES);
    drop(client);
    host.shutdown();
}

#[test]
fn interleaved_campaigns_under_fair_share_match_their_solo_runs() {
    let service = Arc::new(Service::new());
    // Submit both campaigns *before* any worker exists, so the fair-share
    // source is guaranteed to interleave their batches once workers start.
    let mut host = ServiceHost::start(service.clone(), 0, &[]);
    let client_a = spawn_serve_client(&service);
    let client_b = spawn_serve_client(&service);

    client_a.send(&Msg::Submit(spec(11)));
    client_b.send(&Msg::Submit(spec(22)));
    let id_a = expect_accepted(&client_a, false);
    let id_b = expect_accepted(&client_b, false);
    assert_ne!(id_a, id_b);

    host.add_local_workers(2);
    let (_, result_a) = await_result(&client_a);
    let (_, result_b) = await_result(&client_b);

    for (result, seed) in [(&result_a, 11), (&result_b, 22)] {
        assert_eq!(result.error, None);
        assert_eq!(result.executed_batches, BATCHES);
        let report = result.report.as_ref().expect("report");
        assert_eq!(
            report.fingerprint(),
            solo_fingerprint(seed),
            "fair-share interleaving changed the seed-{seed} report"
        );
    }
    assert_eq!(service.executed_batches_total(), 2 * BATCHES);
    drop((client_a, client_b));
    host.shutdown();
}

#[test]
fn resubmission_replays_the_cached_report_without_executing_batches() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 2, &[]);
    let client = spawn_serve_client(&service);

    client.send(&Msg::Submit(spec(7)));
    expect_accepted(&client, false);
    let (first_line, first) = await_result(&client);
    assert_eq!(first.executed_batches, BATCHES);
    let executed_before = service.executed_batches_total();

    client.send(&Msg::Submit(spec(7)));
    expect_accepted(&client, true);
    let (second_line, second) = await_result(&client);

    assert!(second.cached, "resubmission must hit the cache");
    assert_eq!(second.executed_batches, 0, "cache hits execute nothing");
    assert_eq!(
        service.executed_batches_total(),
        executed_before,
        "the cache hit reached a worker"
    );
    // Byte-identical replay: everything from the report on (report body
    // and fingerprint) is the same bytes; only campaign id and the cache
    // flag ahead of it may differ.
    let tail = |line: &str| {
        let at = line.find("\"report\":").expect("result line has a report");
        line[at..].to_string()
    };
    assert_eq!(tail(&first_line), tail(&second_line));
    assert_eq!(
        first.report.unwrap().fingerprint(),
        second.report.unwrap().fingerprint()
    );

    // A different seed is a different campaign — no false sharing.
    client.send(&Msg::Submit(spec(8)));
    expect_accepted(&client, false);
    let (_, third) = await_result(&client);
    assert!(!third.cached);
    assert_eq!(third.report.unwrap().fingerprint(), solo_fingerprint(8));
    drop(client);
    host.shutdown();
}

#[test]
fn cancelled_campaigns_resolve_and_resubmission_recomputes_fresh() {
    let service = Arc::new(Service::new());
    // No workers yet: the campaign cannot make progress, so the cancel
    // races nothing.
    let mut host = ServiceHost::start(service.clone(), 0, &[]);
    let client = spawn_serve_client(&service);

    client.send(&Msg::Submit(spec(33)));
    let id = expect_accepted(&client, false);
    client.send(&Msg::CancelCampaign { campaign: id });
    let (_, cancelled) = await_result(&client);
    assert!(cancelled.cancelled);
    assert_eq!(cancelled.report, None);
    assert_eq!(cancelled.executed_batches, 0);

    // Cancelled campaigns are never cached: the resubmit runs for real
    // and still lands on the in-process fingerprint.
    host.add_local_workers(2);
    client.send(&Msg::Submit(spec(33)));
    expect_accepted(&client, false);
    let (_, rerun) = await_result(&client);
    assert!(!rerun.cached && !rerun.cancelled);
    assert_eq!(rerun.executed_batches, BATCHES);
    assert_eq!(rerun.report.unwrap().fingerprint(), solo_fingerprint(33));
    drop(client);
    host.shutdown();
}

/// A client cannot cancel another client's campaign: campaign ids are
/// sequential, so a `cancel_campaign` with someone else's id must be a
/// no-op, as one with an unknown id is. B's bad submit is answered only
/// after B's cancel was handled, so the cancel lands before any worker.
#[test]
fn a_client_cannot_cancel_another_clients_campaign() {
    let service = Arc::new(Service::new());
    let mut host = ServiceHost::start(service.clone(), 0, &[]);
    let (owner, other) = (spawn_serve_client(&service), spawn_serve_client(&service));

    owner.send(&Msg::Submit(spec(44)));
    let id = expect_accepted(&owner, false);
    other.send(&Msg::CancelCampaign { campaign: id });
    let mut bad = spec(1);
    bad.defense = "NoSuchDefense".into();
    other.send(&Msg::Submit(bad));
    let (_, refused) = await_result(&other);
    assert!(refused.error.is_some(), "the bad submit is answered");

    host.add_local_workers(2);
    let (_, result) = await_result(&owner);
    assert!(
        !result.cancelled,
        "another client's cancel must not reach it"
    );
    assert_eq!(result.executed_batches, BATCHES);
    let report = result.report.expect("the campaign completes");
    assert_eq!(report.fingerprint(), solo_fingerprint(44));
    drop((owner, other));
    host.shutdown();
}

#[test]
fn bad_submissions_are_answered_with_errors_not_silence() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 1, &[]);
    let client = spawn_serve_client(&service);

    let mut bad = spec(1);
    bad.defense = "NoSuchDefense".into();
    client.send(&Msg::Submit(bad));
    let (_, result) = await_result(&client);
    let error = result.error.expect("unknown defense must error");
    assert!(error.contains("NoSuchDefense"), "unhelpful error: {error}");
    assert_eq!(result.report, None);

    // The conversation survives the error: a good submit still works.
    client.send(&Msg::Submit(spec(1)));
    expect_accepted(&client, false);
    let (_, ok) = await_result(&client);
    assert_eq!(ok.report.unwrap().fingerprint(), solo_fingerprint(1));
    drop(client);
    host.shutdown();
}

/// A batch that panics on a local slot fails only its own campaign, and
/// fast: each slot refuses the campaign with the panic message, and once
/// both have, the degradation floor answers the caller instead of leaving
/// it waiting on dead threads. The slots live on and serve the next
/// campaign to its usual fingerprint.
#[test]
fn a_panicking_batch_fails_only_its_own_campaign() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 2, &[]);
    let mut bad = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    bad.sim.bp_entries = 3;
    let error = service
        .submit_config(bad, None, 3, None)
        .recv_timeout(Duration::from_secs(30))
        .expect("a panicking campaign must be answered, not hang")
        .expect_err("a panicking campaign cannot report");
    assert!(
        error.contains("PHT entries must be a power of two"),
        "the panic message must reach the caller: {error}"
    );

    let client = spawn_serve_client(&service);
    client.send(&Msg::Submit(spec(2025)));
    expect_accepted(&client, false);
    let (_, result) = await_result(&client);
    let report = result.report.expect("the next campaign completes");
    assert_eq!(report.fingerprint(), solo_fingerprint(2025));
    host.shutdown();
}

/// A client whose input ends right after its submit — a half-close — still
/// gets its result, and its session waits for the campaign on the service's
/// events instead of spinning on the closed input.
#[test]
fn a_half_closed_client_gets_its_result_without_spinning() {
    let service = Arc::new(Service::new());
    let host = ServiceHost::start(service.clone(), 1, &[]);
    let input = format!("{}\n", Msg::Submit(spec(103)).to_line());
    let (out, written) = common::SharedBuf::pair();
    let cpu_before = thread_cpu_s();
    let start = std::time::Instant::now();
    let stats = amulet_cli::serve_client(&service, std::io::Cursor::new(input), out)
        .expect("the session ends cleanly");
    let wall = start.elapsed().as_secs_f64();
    let cpu = thread_cpu_s()
        .zip(cpu_before)
        .map(|(after, before)| after - before);

    assert_eq!((stats.submitted, stats.results), (1, 1));
    let text = String::from_utf8(written.lock().unwrap().clone()).unwrap();
    let last = text.lines().last().expect("the session wrote lines");
    let Ok(Msg::CampaignResult(result)) = Msg::parse_line(last) else {
        panic!("the last line is not a result: {last}");
    };
    let report = result.report.expect("the campaign completes");
    assert_eq!(report.fingerprint(), solo_fingerprint(103));
    if let Some(cpu) = cpu {
        // CPU time is charged in whole clock ticks: allow one.
        assert!(
            cpu < wall / 4.0 + 0.01,
            "the session thread burned {cpu:.3} s of CPU over a {wall:.3} s campaign"
        );
    }
    host.shutdown();
}

/// The session counts each answer by its tag as it forwards it: a miss,
/// a shed second submit, the miss resubmitted once its result is in (a
/// cache hit) and an unresolvable spec read as two accepted submits, one
/// cache hit, one rejection and three results.
#[test]
fn the_session_counts_every_answer_by_its_tag() {
    let service = Arc::new(Service::new());
    service.set_admission(Admission {
        per_client: 1,
        ..Admission::default()
    });
    let mut host = ServiceHost::start(service.clone(), 0, &[]);
    let (input, lines, session) =
        common::spawn_hardened_client(&service, amulet_cli::SessionLimits::default());
    let send = |msg: Msg| {
        input
            .send(format!("{}\n", msg.to_line()).into_bytes())
            .expect("the session hung up")
    };
    let recv = || {
        let line = lines
            .recv_timeout(RESULT_TIMEOUT)
            .expect("service went silent");
        Msg::parse_line(&line).expect("service sent a malformed line")
    };
    let await_result = || loop {
        match recv() {
            Msg::Progress { .. } => {}
            Msg::CampaignResult(result) => break result,
            other => panic!("unexpected {:?} while awaiting result", other.tag()),
        }
    };

    send(Msg::Submit(spec(120)));
    assert!(matches!(recv(), Msg::Accepted { cached: false, .. }));
    send(Msg::Submit(spec(121)));
    let Msg::Rejected { reason, .. } = recv() else {
        panic!("the second submit is over the client quota")
    };
    assert!(reason.contains("quota"), "{reason}");
    host.add_local_workers(1);
    assert!(await_result().report.is_some(), "the miss completes");
    send(Msg::Submit(spec(120)));
    assert!(matches!(recv(), Msg::Accepted { cached: true, .. }));
    assert!(await_result().cached, "the resubmit is a cache hit");
    let mut bad = spec(1);
    bad.defense = "NoSuchDefense".into();
    send(Msg::Submit(bad));
    let refused = await_result();
    assert_eq!(refused.campaign, u64::MAX, "no id for a bad spec");
    assert!(refused.error.is_some());

    drop(input);
    let stats = session.join().unwrap().expect("the session ends cleanly");
    assert_eq!(
        (
            stats.submitted,
            stats.cache_hits,
            stats.rejected,
            stats.results
        ),
        (2, 1, 1, 3),
        "{stats:?}"
    );
    host.shutdown();
}

/// The calling thread's user + system CPU time, from
/// `/proc/thread-self/stat` (Linux only; clock ticks at the usual 100 Hz).
fn thread_cpu_s() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3, so
    // utime (14) and stime (15) are the 12th and 13th.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}
