//! Wire-protocol round trips: every message type of the multi-process
//! campaign fabric must survive serialise → parse bit-exactly — including
//! violation fragments carrying µarch diffs, whose contents feed the
//! campaign fingerprint — and the operator's handbook must document
//! exactly the tag set the protocol emits and the event rows the
//! workspace writes.

use amulet::fuzz::proto::{
    CampaignSpec, FragmentReport, Hello, Msg, ReportWire, ResultMsg, PROTO_VERSION,
};
use amulet::fuzz::{
    BatchSpec, CorpusInput, Reduction, ScanStats, SpecSource, ViolationClass, ViolationDigest,
};
use amulet::util::events::EVENTS;
use std::collections::BTreeSet;

/// The handbook the tag test audits.
const HANDBOOK: &str = include_str!("../docs/DISTRIBUTED.md");

/// The quick Baseline × CT-SEQ spec at seed 2025, PHT.
fn quick_spec() -> CampaignSpec {
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

/// A fragment with the richest payload the protocol carries: multiple
/// violations, full-width digests, diffs in every structure.
fn loaded_fragment() -> FragmentReport {
    FragmentReport {
        index: 17,
        stats: ScanStats {
            cases: 672,
            classes: 96,
            candidates: 5,
            validation_runs: 20,
            confirmed: 2,
            sim_cycles: 0xffff_ffff_ffff_fff1,
            warped_cycles: 1 << 62,
        },
        first_detection_s: Some(0.734_375),
        violations: vec![
            ViolationDigest {
                class: ViolationClass::SpectreV1,
                ctrace_digest: u64::MAX,
                l1d_diff: vec![0x4740, 0x4100, u64::MAX],
                dtlb_diff: vec![4],
                l1i_diff: vec![],
            },
            ViolationDigest {
                class: ViolationClass::SttStoreTlb,
                ctrace_digest: 0,
                l1d_diff: vec![],
                dtlb_diff: vec![0x7f],
                l1i_diff: vec![0x40_1040],
            },
        ],
        records: Vec::new(),
    }
}

/// `loaded_fragment` as a records batch answers it: one minimized record
/// per violation, with full-width register and digest values.
fn recorded_fragment() -> FragmentReport {
    let input = |seed: u64| CorpusInput {
        regs: [u64::MAX - seed; 16],
        flags: 0xd5,
        mem_digest: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        mem_len: 8192,
    };
    let record = |seed: u64| Reduction {
        program: ".bb_main.0:\n    CMP RAX, 7\n    JL .bb_main.exit\n.bb_main.exit:\n".into(),
        removed: seed,
        input_a: input(seed),
        input_b: input(seed + 1),
    };
    FragmentReport {
        records: vec![record(3), record(u64::MAX - 1)],
        ..loaded_fragment()
    }
}

fn all_message_shapes() -> Vec<Msg> {
    vec![
        Msg::Hello(Hello::CURRENT),
        Msg::Hello(Hello { proto: u64::MAX }),
        Msg::Batch(BatchSpec {
            index: 0,
            instance: 0,
            batch: 0,
            programs: 1,
            records: false,
        }),
        Msg::Batch(BatchSpec {
            index: usize::MAX >> 1,
            instance: 99,
            batch: 1_000_000,
            programs: 4,
            records: true,
        }),
        Msg::Ping { token: 0 },
        Msg::Ping { token: u64::MAX },
        Msg::Pong { token: 0xdead_beef },
        Msg::Shutdown,
        Msg::Fragment(FragmentReport {
            index: 3,
            ..FragmentReport::default()
        }),
        Msg::Fragment(loaded_fragment()),
        // Protocol v3: the service flow.
        Msg::Submit(CampaignSpec {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            source: "PHT".into(),
            seed: u64::MAX,
            scale: None,
            find_first: false,
            batch_programs: 3,
            cycle_skip: true,
        }),
        Msg::Submit(CampaignSpec {
            defense: "STT".into(),
            contract: "ARCH-SEQ".into(),
            source: "STL".into(),
            seed: 7,
            scale: Some(0.25),
            find_first: true,
            batch_programs: 8,
            cycle_skip: false,
        }),
        Msg::Accepted {
            campaign: 1,
            cached: false,
        },
        Msg::Accepted {
            campaign: u64::MAX,
            cached: true,
        },
        // Protocol v5: admission control and graceful drain.
        Msg::Rejected {
            reason: "admit queue full (4 active, 16 queued)".into(),
            retry_after_ms: 2_100,
        },
        Msg::Rejected {
            reason: "draining: not admitting new campaigns".into(),
            retry_after_ms: u64::MAX,
        },
        Msg::Draining { active: 0 },
        Msg::Draining { active: u64::MAX },
        // Protocol v4: the crash-recovery announcement.
        Msg::Recovering {
            campaign: 1,
            recovered: 0,
            total: 8,
        },
        Msg::Recovering {
            campaign: u64::MAX,
            recovered: u64::MAX - 1,
            total: u64::MAX,
        },
        Msg::Progress {
            campaign: 3,
            done: 5,
            total: 8,
            cases: 420,
        },
        Msg::CampaignResult(ResultMsg {
            campaign: 3,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: Some(loaded_report_wire()),
            error: None,
        }),
        Msg::CampaignResult(ResultMsg {
            campaign: 4,
            cached: true,
            cancelled: false,
            executed_batches: 0,
            report: Some(loaded_report_wire()),
            error: None,
        }),
        Msg::CampaignResult(ResultMsg {
            campaign: 5,
            cached: false,
            cancelled: true,
            executed_batches: 2,
            report: None,
            error: None,
        }),
        Msg::CampaignResult(ResultMsg {
            campaign: u64::MAX,
            cached: false,
            cancelled: false,
            executed_batches: 0,
            report: None,
            error: Some("unknown defense \"Nope\"".into()),
        }),
        // An STL result: the non-default source must ride the report object.
        Msg::CampaignResult(ResultMsg {
            campaign: 6,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: Some(ReportWire {
                source: "STL".into(),
                ..loaded_report_wire()
            }),
            error: None,
        }),
        Msg::CancelCampaign { campaign: 3 },
        Msg::CancelCampaign { campaign: u64::MAX },
    ]
}

/// A wire report with full-width counters and loaded digests — the
/// richest `result` payload the service can emit.
fn loaded_report_wire() -> ReportWire {
    ReportWire {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        mode: "Opt".into(),
        format: "CacheLines".into(),
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
            validation_runs: 20,
            confirmed: 2,
            sim_cycles: 0xffff_ffff_ffff_fff1,
            warped_cycles: 1 << 62,
        },
        detections: 2,
        digests: loaded_fragment().violations,
    }
}

#[test]
fn every_message_type_survives_serialise_parse() {
    for msg in all_message_shapes() {
        let line = msg.to_line();
        assert!(
            !line.contains('\n'),
            "line protocol: one message per line ({line})"
        );
        let parsed = Msg::parse_line(&line).expect(&line);
        assert_eq!(parsed, msg, "round trip changed {line}");
        // And a second trip is a fixed point.
        assert_eq!(parsed.to_line(), line);
    }
}

#[test]
fn violation_digests_cross_the_wire_bit_exactly() {
    let msg = Msg::Fragment(loaded_fragment());
    let Msg::Fragment(parsed) = Msg::parse_line(&msg.to_line()).unwrap() else {
        panic!("tag changed");
    };
    let original = loaded_fragment();
    assert_eq!(parsed.violations, original.violations);
    assert_eq!(parsed.stats, original.stats);
    // The digests are hex strings on the wire so double-based JSON readers
    // can't round them; make sure full-width values really are present.
    let line = msg.to_line();
    assert!(line.contains("\"0xffffffffffffffff\""), "{line}");
}

#[test]
fn every_violation_class_round_trips_in_a_fragment() {
    for class in ViolationClass::ALL {
        let frag = FragmentReport {
            violations: vec![ViolationDigest {
                class,
                ctrace_digest: 1,
                l1d_diff: vec![],
                dtlb_diff: vec![],
                l1i_diff: vec![],
            }],
            ..FragmentReport::default()
        };
        let Msg::Fragment(parsed) = Msg::parse_line(&Msg::Fragment(frag).to_line()).unwrap() else {
            panic!("tag changed");
        };
        assert_eq!(parsed.violations[0].class, class, "{}", class.paper_id());
    }
}

/// The acceptance gate for the operator's handbook: the set of message
/// tags it documents (every `"type":"..."` occurrence in its worked
/// examples) is exactly the set the protocol can emit. A message type
/// added without documentation — or documentation of a type that no
/// longer exists — fails here.
#[test]
fn handbook_documents_exactly_the_emitted_tag_set() {
    let mut documented = BTreeSet::new();
    let mut rest = HANDBOOK;
    while let Some(at) = rest.find("\"type\":\"") {
        rest = &rest[at + "\"type\":\"".len()..];
        let end = rest.find('"').expect("unterminated tag in handbook");
        documented.insert(&rest[..end]);
        rest = &rest[end..];
    }
    let emitted: BTreeSet<&str> = Msg::TAGS.into_iter().collect();
    assert_eq!(
        documented, emitted,
        "docs/DISTRIBUTED.md worked examples must cover exactly the protocol's tags"
    );
    // The version constant is part of the documented contract too.
    assert_eq!(PROTO_VERSION, 8, "a version bump must update this pin");
    assert!(
        HANDBOOK.contains(&format!("\"proto\":{PROTO_VERSION}")),
        "handbook hello example must show the current protocol version"
    );
}

/// The event schema pin: the `(component, event)` table in the handbook's
/// "Event stream" section is `amulet_util::events::EVENTS`, row for row.
/// An event added, renamed or moved to another component without its
/// table row fails here; debug builds assert every emitted row against
/// `EVENTS`, so the whole suite checks every row it emits.
#[test]
fn handbook_documents_exactly_the_event_table() {
    let section = HANDBOOK
        .split("### Event stream")
        .nth(1)
        .expect("handbook has an Event stream section");
    let documented: Vec<(&str, &str)> = section
        .lines()
        .take_while(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut cells = l.strip_prefix("| `")?.split('|');
            let component = cells.next()?.trim().trim_matches('`');
            let event = cells.next()?.trim().trim_matches('`');
            Some((component, event))
        })
        .collect();
    assert_eq!(
        documented, EVENTS,
        "docs/DISTRIBUTED.md's event table must list exactly amulet_util::events::EVENTS, in order"
    );
}

/// The hello carries the protocol version and nothing else — the
/// campaign is the driver's `submit` — so a version is the one thing a
/// handshake can disagree on.
#[test]
fn hello_handshake_rejects_version_drift() {
    assert!(Hello::CURRENT.check().is_ok());
    assert_eq!(
        Msg::Hello(Hello::CURRENT).to_line(),
        format!(r#"{{"type":"hello","proto":{PROTO_VERSION}}}"#)
    );
    for proto in [0, PROTO_VERSION - 1, PROTO_VERSION + 1] {
        let err = Hello { proto }.check().unwrap_err();
        assert!(err.contains("version mismatch"), "v{proto}: {err}");
    }
}

/// Pre-STL peers never wrote a `source` field; the default must be
/// invisible on the wire (so journals, caches and CI greps written before
/// the field existed stay byte-identical) and lines that omit it must
/// parse as PHT.
#[test]
fn default_source_is_invisible_on_the_wire() {
    let submit = Msg::Submit(quick_spec());
    assert!(!submit.to_line().contains("source"), "{}", submit.to_line());

    let legacy = r#"{"type":"submit","defense":"Baseline","contract":"CT-SEQ","seed":"1","find_first":false,"batch":3,"cycle_skip":true}"#;
    let Msg::Submit(spec) = Msg::parse_line(legacy).unwrap() else {
        panic!("tag changed");
    };
    assert_eq!(spec.source, "PHT");
    assert_eq!(spec.resolve().unwrap().source, SpecSource::Pht);

    // The non-default source, by contrast, must be loud everywhere.
    let stl = Msg::Submit(CampaignSpec {
        source: "STL".into(),
        ..quick_spec()
    });
    assert!(
        stl.to_line().contains(r#""source":"STL""#),
        "{}",
        stl.to_line()
    );
}

/// Version 6's optional corpus fields: a records batch and a fragment
/// carrying minimized records survive serialise → parse exactly, and the
/// handbook shows both.
#[test]
fn corpus_records_ride_batches_and_fragments_exactly() {
    let batch = Msg::Batch(BatchSpec {
        index: 3,
        instance: 0,
        batch: 3,
        programs: 4,
        records: true,
    });
    let line = batch.to_line();
    assert!(line.ends_with(r#","records":true}"#), "{line}");
    assert_eq!(Msg::parse_line(&line).unwrap(), batch);

    let frag = Msg::Fragment(recorded_fragment());
    let line = frag.to_line();
    let parsed = Msg::parse_line(&line).unwrap();
    assert_eq!(parsed, frag, "{line}");
    assert_eq!(parsed.to_line(), line, "re-encoding is a fixed point");
    assert!(
        line.contains(r#""mem_digest":"0x"#),
        "inputs use the corpus encoding: {line}"
    );

    assert!(
        HANDBOOK.contains(r#""records":true"#),
        "handbook must show a records batch"
    );
    assert!(
        HANDBOOK.contains(r#""records":[{"program""#),
        "handbook must show fragment records"
    );
}

/// Lines written before version 6 have no `records` field: they parse to
/// "no records" and re-encode byte-identically, so journals and fragment
/// tees from older runs replay unchanged.
#[test]
fn pre_records_lines_parse_and_reencode_byte_identically() {
    let batch = r#"{"type":"batch","index":7,"instance":1,"batch":2,"programs":3}"#;
    let fragment = r#"{"type":"fragment","index":7,"cases":84,"classes":12,"candidates":2,"validation_runs":4,"confirmed":1,"sim_cycles":16911,"warped_cycles":13065,"first_detection_s":0.042,"violations":[{"class":"Spectre-v1","ctrace":"0x1f83e1a2b45c9d07","l1d_diff":["0x4740","0x4100"],"dtlb_diff":[],"l1i_diff":[]}]}"#;
    let Msg::Batch(spec) = Msg::parse_line(batch).unwrap() else {
        panic!("tag changed");
    };
    assert!(!spec.records);
    assert_eq!(Msg::Batch(spec).to_line(), batch);
    let Msg::Fragment(report) = Msg::parse_line(fragment).unwrap() else {
        panic!("tag changed");
    };
    assert!(report.records.is_empty());
    assert_eq!(Msg::Fragment(report).to_line(), fragment);
}
