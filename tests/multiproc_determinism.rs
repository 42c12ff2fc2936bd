//! Multi-process campaign determinism, exercised fully in memory: the real
//! `amulet worker` serve loop and the real `amulet drive` driver loop run
//! against each other over channel-backed links (the process transport
//! swapped out, every other line of the fabric identical), and the reduced
//! fingerprint must equal the in-process sharded run at any process count —
//! with find-first cancellation and worker crash/restart included.
//!
//! The hostile-network generalization (drops, truncations, severed links,
//! churn) lives in `tests/fleet_faults.rs`; the subprocess version of the
//! same assertion (spawned binaries, real pipes) in
//! `crates/cli/tests/drive_determinism.rs`; CI additionally diffs
//! `amulet drive --procs 2` and a loopback-TCP fleet against the
//! in-process CLI run.

mod common;

use amulet::fuzz::proto::{CampaignSpec, Msg};
use amulet::fuzz::CampaignReport;
use amulet::util::EventLog;
use amulet_cli::{run_driver, WorkerLink};
use common::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn drive_in_memory(spec: &CampaignSpec, procs: usize) -> CampaignReport {
    run_driver(
        spec,
        &quick_drive(procs),
        |_slot| Ok(spawn_mem_worker()),
        None,
        &EventLog::off(),
    )
    .expect("in-memory drive")
}

// ---- the determinism assertions -----------------------------------------

/// The acceptance criterion: in-process vs driven-over-the-wire at 1 and 4
/// worker processes — one fingerprint.
#[test]
fn in_process_and_driven_fingerprints_are_equal_at_any_proc_count() {
    let spec = quick_spec(false);
    let reference = in_process(&spec);
    assert!(
        reference.violation_found(),
        "quick baseline campaign finds violations ({:?})",
        reference.stats
    );
    for procs in [1usize, 4] {
        let driven = drive_in_memory(&spec, procs);
        assert_eq!(
            driven.fingerprint(),
            reference.fingerprint(),
            "fingerprint diverged at {procs} procs: {:?} vs {:?}",
            driven.stats,
            reference.stats
        );
        assert_eq!(driven.stats, reference.stats);
        // Wire-reduced reports carry digests, not the full artefacts.
        assert_eq!(driven.digests, reference.digests);
        assert!(driven.violations.is_empty());
        assert!(!reference.violations.is_empty());
    }
}

/// The STL source crosses the process boundary intact: the `source` field
/// of the session's submit re-arms the worker's generator and
/// disambiguation window, so the driven reduction equals the in-process STL run at any
/// process count.
#[test]
fn stl_campaigns_survive_the_process_boundary() {
    let spec = CampaignSpec {
        source: "STL".into(),
        ..quick_spec(false)
    };
    let reference = in_process(&spec);
    assert!(
        reference.violation_found(),
        "quick baseline STL campaign finds violations ({:?})",
        reference.stats
    );
    for procs in [1usize, 2] {
        let driven = drive_in_memory(&spec, procs);
        assert_eq!(
            driven.fingerprint(),
            reference.fingerprint(),
            "STL fingerprint diverged at {procs} procs: {:?} vs {:?}",
            driven.stats,
            reference.stats
        );
        assert_eq!(driven.stats, reference.stats);
        assert_eq!(driven.digests, reference.digests);
    }
}

/// Find-first across the wire: the scheduler's floor, and the batches
/// remote workers ran before it fell below them, must leave exactly the
/// same reduced prefix as the in-process early exit.
#[test]
fn find_first_cancellation_preserves_the_reduced_prefix() {
    let spec = quick_spec(true);
    let reference = in_process(&spec);
    assert!(reference.violation_found(), "{:?}", reference.stats);
    for procs in [1usize, 4] {
        let driven = drive_in_memory(&spec, procs);
        assert_eq!(
            driven.fingerprint(),
            reference.fingerprint(),
            "find-first fingerprint diverged at {procs} procs"
        );
        assert_eq!(
            driven.digests.first().map(|d| d.class),
            reference.digests.first().map(|d| d.class),
            "first violation class diverged at {procs} procs"
        );
    }
}

/// Failure/restart semantics: links that die mid-campaign are replaced and
/// their in-flight batch re-run on a fresh worker — batch results are
/// schedule-independent, so crash recovery cannot perturb the fingerprint.
#[test]
fn worker_crashes_and_restarts_do_not_perturb_the_fingerprint() {
    /// A link that drops dead on the first assignment of any batch still
    /// in `crash`, and records the slot it crashed on.
    struct FlakyLink<'a> {
        inner: MemLink,
        slot: usize,
        crash: &'a Mutex<HashSet<usize>>,
        crashed_on: &'a Mutex<Vec<usize>>,
    }

    impl WorkerLink for FlakyLink<'_> {
        fn send(&mut self, msg: &Msg) -> Result<(), String> {
            if let Msg::Batch(spec) = msg {
                if self.crash.lock().unwrap().remove(&spec.index) {
                    self.crashed_on.lock().unwrap().push(self.slot);
                    return Err("injected worker crash".to_string());
                }
            }
            self.inner.send(msg)
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
            self.inner.recv_timeout(timeout)
        }
    }

    let spec = quick_spec(false);
    let reference = in_process(&spec);

    // The first assignment of each of batches 0, 1 and 2 kills its link,
    // whichever slot holds it. Every crash makes that slot reconnect for
    // its retry (`retries: 2` per batch), so at least one first connection
    // plus three reconnects happen however the slots share the work.
    let crash = Mutex::new(HashSet::from([0, 1, 2]));
    let crashed_on = Mutex::new(Vec::new());
    let connections = AtomicUsize::new(0);
    let driven = run_driver(
        &spec,
        &quick_drive(3),
        |slot| {
            connections.fetch_add(1, Ordering::SeqCst);
            Ok(FlakyLink {
                inner: spawn_mem_worker(),
                slot,
                crash: &crash,
                crashed_on: &crashed_on,
            })
        },
        None,
        &EventLog::off(),
    )
    .expect("campaign survives worker crashes");
    let connections = connections.load(Ordering::SeqCst);
    assert!(
        connections > 3,
        "the crash path must actually have reconnected: seed {}, crashes on slots {:?}, \
         {connections} connections",
        spec.seed,
        crashed_on.lock().unwrap()
    );
    assert_eq!(driven.fingerprint(), reference.fingerprint());
    assert_eq!(driven.stats, reference.stats);
}

/// The fragment tee observes exactly the accepted fragments — valid JSONL,
/// one line per executed batch (the artifact CI uploads).
#[test]
fn fragment_tee_is_valid_jsonl_covering_every_batch() {
    let spec = quick_spec(false);
    let (sink, buf) = SharedBuf::pair();
    let report = run_driver(
        &spec,
        &quick_drive(2),
        |_slot| Ok(spawn_mem_worker()),
        Some(Box::new(sink)),
        &EventLog::off(),
    )
    .unwrap();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let mut teed_cases = 0usize;
    let mut lines = 0usize;
    for line in text.lines() {
        let Msg::Fragment(frag) = Msg::parse_line(line).expect(line) else {
            panic!("tee must contain only fragment lines: {line}");
        };
        teed_cases += frag.stats.cases;
        lines += 1;
    }
    // Without find-first every planned batch executes exactly once, so the
    // teed stream accounts for every case the report counted.
    let shape = spec.resolve().unwrap();
    let batches = shape.programs_per_instance.div_ceil(BATCH_PROGRAMS) * shape.instances;
    assert_eq!(lines, batches);
    assert_eq!(teed_cases, report.stats.cases);
}

/// A clean run's event log: every slot connects and drains, nothing is
/// orphaned or quarantined, and each line is valid JSON.
#[test]
fn a_clean_run_logs_only_connects_and_drains() {
    let spec = quick_spec(false);
    let (sink, buf) = SharedBuf::pair();
    run_driver(
        &spec,
        &quick_drive(2),
        |_slot| Ok(spawn_mem_worker()),
        None,
        &EventLog::new(sink),
    )
    .unwrap();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let mut connects = 0;
    let mut drains = 0;
    for line in text.lines() {
        amulet::util::parse_json(line).expect("event lines are valid JSON");
        assert!(
            !line.contains("\"event\":\"orphan\"") && !line.contains("\"event\":\"quarantine\""),
            "clean run must not degrade: {line}"
        );
        connects += line.contains("\"event\":\"connect\"") as usize;
        drains += line.contains("\"event\":\"drained\"") as usize;
    }
    assert_eq!(connects, 2);
    assert_eq!(drains, 2);
}
