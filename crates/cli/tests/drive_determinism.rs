//! End-to-end multi-process determinism through the real binary: spawn
//! `amulet drive` (which itself spawns `amulet worker` children over real
//! pipes) at 1 and 4 processes and diff the reported fingerprint against
//! the in-process `amulet campaign` run. The transport-free version of
//! this assertion lives at the workspace root
//! (`tests/multiproc_determinism.rs`); CI runs the same comparison via
//! the release binary and uploads the fragment log.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_amulet");
// Small shape so the debug-profile binary stays fast: quick shape is
// 2 instances × 12 programs × 28 inputs = 672 cases per run.
const SHAPE: &[&str] = &[
    "--defense",
    "Baseline",
    "--contract",
    "CT-SEQ",
    "--batch",
    "3",
];

/// Runs the binary, asserts success, and extracts the fingerprint from its
/// `--json -` report line on stdout.
fn fingerprint_of(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .args(["--json", "-"])
        .output()
        .expect("spawn amulet");
    assert!(
        out.status.success(),
        "amulet {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let json = stdout
        .lines()
        .rfind(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON report line in:\n{stdout}"));
    let at = json
        .find("\"fingerprint\":\"")
        .unwrap_or_else(|| panic!("no fingerprint in {json}"));
    let rest = &json[at + "\"fingerprint\":\"".len()..];
    rest[..rest.find('"').unwrap()].to_string()
}

#[test]
fn drive_matches_in_process_campaign_at_1_and_4_procs() {
    let reference = fingerprint_of(&[&["campaign", "--workers", "2"], SHAPE].concat());
    for procs in ["1", "4"] {
        let driven = fingerprint_of(&[&["drive", "--procs", procs], SHAPE].concat());
        assert_eq!(driven, reference, "fingerprint diverged at {procs} procs");
    }
}

#[test]
fn drive_find_first_matches_and_writes_fragments() {
    let dir = std::env::temp_dir().join(format!("amulet_drive_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let frags = dir.join("fragments.jsonl");

    let reference =
        fingerprint_of(&[&["campaign", "--workers", "2", "--find-first"], SHAPE].concat());
    let driven = fingerprint_of(
        &[
            &[
                "drive",
                "--procs",
                "2",
                "--find-first",
                "--fragments",
                frags.to_str().unwrap(),
            ],
            SHAPE,
        ]
        .concat(),
    );
    assert_eq!(driven, reference, "find-first fingerprint diverged");

    let log = std::fs::read_to_string(&frags).unwrap();
    assert!(!log.trim().is_empty(), "fragment tee must not be empty");
    for line in log.lines() {
        assert!(
            line.starts_with("{\"type\":\"fragment\""),
            "non-fragment line in tee: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker takes only transport flags: a shape flag is a usage error
/// (exit 2). The real binary announces only its protocol version, learns
/// its campaign from the driver's `submit`, and answers one that does not
/// resolve with `rejected`.
#[test]
fn worker_takes_its_campaign_from_the_wire() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    let flagged = Command::new(BIN)
        .args(["worker", "--defense", "STT"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(flagged.status.code(), Some(2), "shape flags are refused");
    assert!(
        String::from_utf8_lossy(&flagged.stderr).contains("unrecognised arguments: --defense STT")
    );

    let mut child = Command::new(BIN)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), r#"{"type":"hello","proto":8}"#);
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        r#"{{"type":"submit","defense":"NoSuchDefense","contract":"CT-SEQ","seed":"1","find_first":false,"batch":3,"cycle_skip":true}}"#
    )
    .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with(r#"{"type":"rejected","reason":"unknown defense"#),
        "an unresolvable submit is rejected: {line}"
    );
    writeln!(stdin, "{{\"type\":\"shutdown\"}}").unwrap();
    drop(stdin);
    let status = child.wait().unwrap();
    assert!(status.success(), "worker exits cleanly on shutdown");
}
