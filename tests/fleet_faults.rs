//! The hostile-network acceptance test: campaigns driven through seeded
//! fault injection — dropped messages, truncated frames, severed links,
//! delays, and mid-campaign worker churn (late joins, permanent leaves) —
//! must reduce to a `CampaignReport::fingerprint()` byte-identical to the
//! clean in-process run, find-first included. This is the PR 5
//! crash-injection test generalized to everything a real network does.
//!
//! The driver's defense ladder under test (see `amulet_cli::drive`):
//! heartbeat probes, per-batch deadlines, teardown-before-retry, seeded
//! backoff, quarantine, and orphan adoption for graceful degradation.

mod common;

use amulet::fuzz::proto::CampaignSpec;
use amulet::util::EventLog;
use amulet_cli::{run_driver, DriveConfig, FaultCounters, FaultPlan, FaultyLink};
use common::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tighter deadlines than `quick_drive`: a dropped message resolves
/// through a timeout, so the deadlines bound the test's wall clock. A
/// deadline that fires spuriously under load is *safe* — teardown and
/// re-run is the ordinary recovery path and cannot move the fingerprint —
/// it merely costs a retry.
fn fault_drive(procs: usize) -> DriveConfig {
    DriveConfig {
        liveness: Duration::from_millis(400),
        batch_timeout: Duration::from_secs(2),
        ..quick_drive(procs)
    }
}

/// Runs one campaign with every link wrapped in hostile fault injection,
/// each connection under its own decision stream derived from `base_seed`.
fn drive_hostile(
    spec: &CampaignSpec,
    drive: &DriveConfig,
    base_seed: u64,
    counters: &Arc<FaultCounters>,
) -> amulet::fuzz::CampaignReport {
    let connections = AtomicUsize::new(0);
    run_driver(
        spec,
        drive,
        |_slot| {
            // Each connection gets a fresh seed: a reconnect must explore
            // a *different* fault schedule, or a first-send sever would
            // repeat forever and nothing could ever complete.
            let n = connections.fetch_add(1, Ordering::SeqCst) as u64;
            let plan = FaultPlan::hostile(base_seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Ok(FaultyLink::new(spawn_mem_worker(), plan, counters.clone()))
        },
        None,
        &EventLog::off(),
    )
    .expect("the fleet must degrade gracefully, not fail")
}

/// The tentpole acceptance criterion: hostile-network fault injection at
/// several seeds, fingerprint equal to the clean in-process run every
/// time — and the injection must demonstrably have fired in every mode.
#[test]
fn hostile_network_faults_do_not_move_the_fingerprint() {
    let spec = quick_spec(false);
    let reference = in_process(&spec);
    assert!(reference.violation_found(), "{:?}", reference.stats);

    let counters = Arc::new(FaultCounters::default());
    for base_seed in [3u64, 77, 20250808] {
        let driven = drive_hostile(&spec, &fault_drive(3), base_seed, &counters);
        assert_eq!(
            driven.fingerprint(),
            reference.fingerprint(),
            "fingerprint moved under fault seed {base_seed}: {:?} vs {:?}",
            driven.stats,
            reference.stats
        );
        assert_eq!(driven.stats, reference.stats);
    }
    // Across the three campaigns every failure mode must have fired, or
    // this test proves less than it claims.
    assert!(
        counters.dropped.load(Ordering::Relaxed) > 0,
        "no drops injected"
    );
    assert!(
        counters.truncated.load(Ordering::Relaxed) > 0,
        "no truncations injected"
    );
    assert!(
        counters.severed.load(Ordering::Relaxed) > 0,
        "no severs injected"
    );
    assert!(
        counters.delayed.load(Ordering::Relaxed) > 0,
        "no delays injected"
    );
}

/// Find-first under fire: the early-exit prefix — the most
/// schedule-sensitive reduction the fabric does — survives the same
/// hostile network.
#[test]
fn find_first_early_exit_survives_hostile_faults() {
    let spec = quick_spec(true);
    let reference = in_process(&spec);
    assert!(reference.violation_found(), "{:?}", reference.stats);

    // Find-first runs are short (they stop at the first hit), so a single
    // seed can legitimately draw zero faults — accumulate over several.
    let counters = Arc::new(FaultCounters::default());
    for base_seed in [0xf1ee7u64, 41, 1234, 99999] {
        let driven = drive_hostile(&spec, &fault_drive(3), base_seed, &counters);
        assert_eq!(
            driven.fingerprint(),
            reference.fingerprint(),
            "find-first fingerprint moved under fault seed {base_seed}"
        );
        assert_eq!(
            driven.digests.first().map(|d| d.class),
            reference.digests.first().map(|d| d.class)
        );
    }
    assert!(
        counters.total() > 0,
        "the hostile path must actually inject"
    );
}

/// Mid-campaign membership churn: slot 0 is reliable, slot 1 joins late
/// (its worker is still booting when the campaign starts), and slot 2's
/// worker has left permanently. The fleet quarantines the dead slot,
/// survivors adopt its orphaned batches, and the fingerprint is exactly
/// the clean run's.
#[test]
fn worker_churn_quarantines_the_dead_and_preserves_the_fingerprint() {
    let spec = quick_spec(false);
    let reference = in_process(&spec);

    let drive = DriveConfig {
        retries: 1,
        quarantine_after: 2,
        ..fault_drive(3)
    };
    let late_joins = AtomicUsize::new(0);
    let (events_sink, events_buf) = SharedBuf::pair();
    let driven = run_driver(
        &spec,
        &drive,
        |slot| match slot {
            // Reliable from the start.
            0 => Ok(spawn_mem_worker()),
            // Joins mid-campaign: the first connection attempts fail while
            // the worker is still booting.
            1 => {
                if late_joins.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("worker still booting".into())
                } else {
                    Ok(spawn_mem_worker())
                }
            }
            // Left the fleet before the campaign started, never to return.
            _ => Err("connection refused".into()),
        },
        None,
        &EventLog::new(events_sink),
    )
    .expect("two surviving workers must carry the campaign");

    assert_eq!(driven.fingerprint(), reference.fingerprint());
    assert_eq!(driven.stats, reference.stats);

    let events = String::from_utf8(events_buf.lock().unwrap().clone()).unwrap();
    assert!(
        events.contains("\"event\":\"quarantine\""),
        "the dead slot must be quarantined:\n{events}"
    );
    assert!(
        events.contains("\"event\":\"adopt\""),
        "its orphaned batches must be adopted by survivors:\n{events}"
    );
    assert!(
        late_joins.load(Ordering::SeqCst) > 2,
        "the late joiner must have joined"
    );
    // Every row is a `fleet` row naming its slot, and carries a dense
    // monotonic sequence number in file order, so consumers can order rows
    // (t_s collides at millisecond scale) and detect truncated logs.
    let seqs: Vec<u64> = events
        .lines()
        .map(|line| {
            let row = amulet::util::parse_json(line).expect("event lines are valid JSON");
            assert_eq!(
                row.get("component").and_then(|v| v.as_str()),
                Some("fleet"),
                "{line}"
            );
            assert!(row.get("slot").and_then(|v| v.as_u64()).is_some(), "{line}");
            row.get("seq")
                .unwrap_or_else(|| panic!("event row lacks a seq: {line}"))
                .as_u64()
                .expect("seq is an exact integer")
        })
        .collect();
    let expected: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(
        seqs, expected,
        "seq must be dense and monotonic in file order"
    );
}

/// Graceful degradation has a floor: when *every* worker is gone and
/// batches remain, the campaign reports a clean, prompt error instead of
/// hanging or fabricating a result.
#[test]
fn a_fleet_with_no_survivors_fails_cleanly() {
    let spec = quick_spec(false);
    let drive = DriveConfig {
        retries: 1,
        quarantine_after: 2,
        ..fault_drive(2)
    };
    let t0 = std::time::Instant::now();
    let err = run_driver::<MemLink, _>(
        &spec,
        &drive,
        |_slot| Err("connection refused".into()),
        None,
        &EventLog::off(),
    )
    .unwrap_err();
    assert!(
        err.contains("campaign incomplete"),
        "expected the degradation-floor error, got: {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "budget exhaustion must be bounded by backoff, not hang ({:?})",
        t0.elapsed()
    );
}
