//! The corpus is a function of the campaign, not of the fleet: one quick
//! Baseline × CT-SEQ campaign must write a corpus byte-identical to the
//! pinned `tests/data/corpus_quick_ref.jsonl` whichever slots ran its
//! batches — in-process workers, a TCP worker, a mix of both, a journaled
//! daemon that crashed and resumed, or fragments that crossed the wire
//! protocol one batch in two.
//!
//! Every failure names the topology, seed and batch size (the repro) and
//! the first line where the corpus differs.

use amulet::fuzz::proto::{CampaignSpec, FragmentReport, Msg, ResultMsg};
use amulet::fuzz::{
    plan_batches, run_batch, Corpus, CrashPlan, Fragment, Service, StateDir, UnitRuntime,
};
use amulet_cli::ServiceHost;
use std::io::BufReader;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

const REFERENCE: &str = include_str!("data/corpus_quick_ref.jsonl");
const SEED: u64 = 2025;
const BATCH: usize = 4;

fn spec() -> CampaignSpec {
    CampaignSpec {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        source: "PHT".into(),
        seed: SEED,
        scale: None,
        find_first: false,
        batch_programs: BATCH,
        cycle_skip: true,
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "amulet_corpus_topology_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Asserts the corpus at `path` equals the reference, with a one-line
/// seeded repro on failure.
fn assert_reference(topology: &str, path: &PathBuf) {
    let got = std::fs::read_to_string(path).unwrap_or_default();
    if got == REFERENCE {
        return;
    }
    let (want_lines, got_lines): (Vec<_>, Vec<_>) =
        (REFERENCE.lines().collect(), got.lines().collect());
    let at = (0..want_lines.len().max(got_lines.len()))
        .find(|&i| want_lines.get(i) != got_lines.get(i))
        .unwrap_or(0);
    let (want, got_line) = (
        want_lines.get(at).copied().unwrap_or("<none>"),
        got_lines.get(at).copied().unwrap_or("<none>"),
    );
    // Show both lines from just before their first differing byte.
    let from = want
        .bytes()
        .zip(got_line.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(0)
        .saturating_sub(24);
    let clip = |line: &str| -> String { line.chars().skip(from).take(120).collect() };
    panic!(
        "repro: topology={topology} seed={SEED} batch={BATCH}: corpus has {} lines, reference {}; \
         line {} differs from byte {from}: got {:?} | want {:?}",
        got_lines.len(),
        want_lines.len(),
        at + 1,
        clip(got_line),
        clip(want),
    );
}

/// A client of `service`: its id and its outbox.
fn connect(service: &Service) -> (u64, Receiver<Msg>) {
    let (tx, outbox) = channel();
    (service.connect(tx), outbox)
}

/// Submits the campaign for `client` and reads the answer from its
/// `outbox`: a fresh or journaled campaign is accepted, not cached.
fn accept(service: &Service, client: u64, outbox: &Receiver<Msg>) {
    service.submit(client, &spec());
    match outbox.try_recv() {
        Ok(Msg::Accepted { cached: false, .. }) => {}
        other => panic!("the campaign must be accepted, not cached: {other:?}"),
    }
}

/// The next campaign result in `outbox`, skipping progress.
fn await_result(outbox: &Receiver<Msg>) -> ResultMsg {
    loop {
        match outbox.recv_timeout(Duration::from_secs(120)) {
            Ok(Msg::CampaignResult(result)) => return result,
            Ok(_) => {}
            Err(e) => panic!("campaign never finished: {e}"),
        }
    }
}

/// Submits the campaign and waits for its result; the corpus append
/// happens before the result reaches the outbox.
fn run_to_result(service: &Service) {
    let (client, outbox) = connect(service);
    accept(service, client, &outbox);
    let result = await_result(&outbox);
    assert!(
        result.report.is_some(),
        "campaign failed: {:?}",
        result.error
    );
}

/// A loopback `amulet worker --listen` stand-in: the worker session loop
/// on a listener thread, one session at a time. Returns its address.
fn spawn_tcp_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let log = amulet::util::EventLog::off();
            let _ = amulet_cli::serve_session(reader, &stream, &log, None);
        }
    });
    addr
}

/// Runs the campaign on a service with a corpus, fed by a [`ServiceHost`]
/// with `local` in-process workers and `tcp` loopback TCP slots.
fn hosted(topology: &str, local: usize, tcp: usize) {
    let path = temp_path(topology);
    let service = Arc::new(Service::with_corpus(Some(Corpus::open(&path))));
    let connect: Vec<String> = (0..tcp).map(|_| spawn_tcp_worker()).collect();
    let host = ServiceHost::start(service.clone(), local, &connect);
    run_to_result(&service);
    host.shutdown();
    assert_reference(topology, &path);
    let _ = std::fs::remove_file(&path);
}

/// Leases, executes and completes up to `max` batches in process, passing
/// each fragment through `carry` on its way to the service.
fn drive(service: &Service, max: usize, carry: impl Fn(Fragment) -> Fragment) {
    let mut rt = UnitRuntime::new();
    for _ in 0..max {
        let Some(lease) = service.try_lease() else {
            break;
        };
        let fragment = run_batch(&lease.cfg, &lease.spec, lease.anchor, &mut rt);
        service.complete(lease, carry(fragment));
    }
}

#[test]
fn in_process_workers_write_the_reference_corpus() {
    hosted("in_process", 2, 0);
}

#[test]
fn a_tcp_only_fleet_writes_the_reference_corpus() {
    hosted("tcp_only", 0, 1);
}

#[test]
fn a_mixed_fleet_writes_the_reference_corpus() {
    hosted("mixed", 1, 1);
}

/// A journaled daemon whose storage dies mid-append after three batches,
/// abandoned one batch later, then restarted over the same state dir and
/// corpus. All eight violations of this campaign sit in batch 2, so the
/// resumed campaign takes every record from the journal instead of
/// minimizing again, and the corpus still equals the reference.
#[test]
fn a_crashed_and_resumed_daemon_writes_the_reference_corpus() {
    let (state_path, path) = (temp_path("crash_state"), temp_path("crash"));
    let state = StateDir::open(&state_path).unwrap();
    let boot = || {
        let recovery = state.recover().expect("recovery pass");
        Service::with_persistence(Some(Corpus::open(&path)), state.clone(), recovery)
    };

    let first = boot();
    first.arm_crash_plan(CrashPlan::torn(3, 17));
    let (client, outbox) = connect(&first);
    accept(&first, client, &outbox);
    drive(&first, 4, |f| f);
    drop(first);
    assert!(
        !path.exists(),
        "an unfinished campaign must not touch the corpus"
    );

    let second = boot();
    let (client, outbox) = connect(&second);
    accept(&second, client, &outbox);
    let Ok(Msg::Recovering {
        recovered,
        total: total_batches,
        ..
    }) = outbox.try_recv()
    else {
        panic!("a journaled campaign resumes")
    };
    assert_eq!(recovered, 3, "the three journaled batches are replayed");
    drive(&second, total_batches as usize, |f| f);
    let result = await_result(&outbox);
    assert!(result.report.is_some(), "{:?}", result.error);
    assert_reference("crash_resume", &path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&state_path);
}

/// Even batches cross the wire protocol (encode, parse, rebuild) while odd
/// ones stay in process — a mixed fleet, deterministically. Batch 2 holds
/// all eight violations, so every record crosses the wire.
#[test]
fn fragments_that_cross_the_wire_write_the_reference_corpus() {
    let path = temp_path("wire");
    let service = Service::with_corpus(Some(Corpus::open(&path)));
    let (client, outbox) = connect(&service);
    accept(&service, client, &outbox);
    let total_batches = plan_batches(&spec().resolve().unwrap(), BATCH).len();
    drive(&service, total_batches, |fragment| {
        if fragment.index % 2 == 1 {
            return fragment;
        }
        let line = Msg::Fragment(FragmentReport::from_fragment(&fragment)).to_line();
        let Msg::Fragment(parsed) = Msg::parse_line(&line).unwrap() else {
            panic!("a fragment line parses as a fragment")
        };
        parsed.into_fragment()
    });
    let result = await_result(&outbox);
    assert!(result.report.is_some(), "{:?}", result.error);
    assert_reference("wire_even_batches", &path);
    let _ = std::fs::remove_file(&path);
}
