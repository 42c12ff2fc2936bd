//! Corpus persistence round-trip: records built from two real campaigns
//! survive append → reopen → query with the exact minimized programs,
//! input digests and violation digests they were written with — the
//! "daemon restart loses nothing" half of the `amulet serve` contract.

use amulet::fuzz::proto::{CampaignSpec, Msg};
use amulet::fuzz::{run_batch, Corpus, CorpusRecord, Service, UnitRuntime};
use amulet::isa::parse_program;
use std::path::PathBuf;

/// The records a corpus-backed [`Service`] — the production path — writes
/// for one quick Baseline × CT-SEQ campaign.
fn quick_records(seed: u64) -> Vec<CorpusRecord> {
    let path = temp_corpus(&format!("service{seed}"));
    let service = Service::with_corpus(Some(Corpus::open(&path)));
    let spec = CampaignSpec {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        source: "PHT".into(),
        seed,
        scale: None,
        find_first: false,
        batch_programs: 3,
        cycle_skip: true,
    };
    let (tx, outbox) = std::sync::mpsc::channel();
    let client = service.connect(tx);
    service.submit(client, &spec);
    let Ok(Msg::Accepted { cached: false, .. }) = outbox.try_recv() else {
        panic!("a fresh service must accept the campaign")
    };
    let mut rt = UnitRuntime::new();
    while let Some(lease) = service.try_lease() {
        let fragment = run_batch(&lease.cfg, &lease.spec, lease.anchor, &mut rt);
        service.complete(lease, fragment);
    }
    let result = outbox
        .try_iter()
        .find_map(|msg| match msg {
            Msg::CampaignResult(result) => Some(result),
            _ => None,
        })
        .expect("campaign finished");
    let report = result.report.expect("campaign succeeded");
    assert!(
        !report.digests.is_empty(),
        "the unprotected CPU leaks under CT-SEQ — seed {seed} found nothing"
    );
    let records = Corpus::open(&path).load().unwrap();
    assert_eq!(
        records.len(),
        report.digests.len(),
        "one record per violation"
    );
    std::fs::remove_file(&path).unwrap();
    records
}

fn temp_corpus(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "amulet_corpus_it_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn two_campaigns_of_findings_survive_reopen_and_query() {
    let first = quick_records(2025);
    let second = quick_records(7);
    let path = temp_corpus("roundtrip");

    // Each campaign appends through its own handle — the daemon-restart
    // scenario: no state is shared but the file.
    assert_eq!(Corpus::open(&path).append(&first).unwrap(), first.len());
    assert_eq!(Corpus::open(&path).append(&second).unwrap(), second.len());

    let mut expected = first.clone();
    expected.extend(second.clone());
    let reopened = Corpus::open(&path);
    assert_eq!(reopened.load().unwrap(), expected);

    // Query by the class of a known finding returns exactly the matching
    // records — same minimized programs, same digests, in append order.
    let class = first[0].digest.class.paper_id();
    let by_class = reopened.query(Some(class), None).unwrap();
    let want: Vec<_> = expected
        .iter()
        .filter(|r| r.digest.class.paper_id() == class)
        .cloned()
        .collect();
    assert!(!want.is_empty());
    assert_eq!(by_class, want);

    // Everything here came from Baseline campaigns; a defense filter for
    // anything else is empty, and the Baseline filter is the full set.
    assert_eq!(reopened.query(None, Some("Baseline")).unwrap(), expected);
    assert_eq!(reopened.query(None, Some("STT")).unwrap(), Vec::new());

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn in_process_findings_carry_parseable_minimized_programs_and_inputs() {
    let records = quick_records(2025);
    for rec in &records {
        // Every record has a minimized program the assembler round-trips,
        // plus both inputs.
        let program = parse_program(&rec.program)
            .unwrap_or_else(|e| panic!("unparseable minimized program ({e:?}):\n{}", rec.program));
        assert!(!program.is_empty());
        program
            .validate()
            .expect("minimized program is well-formed");
        assert!(rec.input_a.is_some() && rec.input_b.is_some());
    }
}

#[test]
fn corpus_lines_keep_counters_exact_and_digests_hex() {
    let records = quick_records(2025);
    let path = temp_corpus("encoding");
    Corpus::open(&path).append(&records).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), records.len());
    for line in text.lines() {
        // Seeds are strings (a u64 above 2^53 must not be rounded by
        // double-based JSON readers), digests 0x-prefixed hex, and no
        // line masquerades as a wire-protocol message.
        assert!(
            line.contains("\"seed\":\"2025\""),
            "seed not a string: {line}"
        );
        assert!(line.contains("\"ctrace\":\"0x"), "digest not hex: {line}");
        assert!(
            line.contains("\"mem_digest\":\"0x"),
            "input not hex: {line}"
        );
        assert!(
            !line.contains("\"type\""),
            "corpus line has a type tag: {line}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
