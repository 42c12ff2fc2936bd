//! Seeded fuzz for the two parsers a hostile peer can feed directly:
//! the zero-dependency JSON reader (`amulet::util::parse_json`) and the
//! protocol frame parser (`Msg::parse_line`). The daemon's hardening
//! story rests on both returning structured errors — never panicking,
//! never looping — on arbitrary bytes, truncated frames and bit-flipped
//! valid messages. Every input derives from a fixed seed, so a failure
//! here replays byte-identically.

use amulet::fuzz::proto::{CampaignSpec, FragmentReport, Hello, Msg, ResultMsg};
use amulet::util::{parse_json, Xoshiro256};

/// Raw seeded bytes, length-biased toward short inputs (where parser
/// edge cases live) but reaching a few hundred bytes.
fn random_bytes(rng: &mut Xoshiro256) -> Vec<u8> {
    let len = match rng.range(0, 4) {
        0 => rng.range(0, 8),
        1 => rng.range(0, 64),
        _ => rng.range(0, 400),
    } as usize;
    (0..len).map(|_| rng.range(0, 256) as u8).collect()
}

/// JSON-ish token soup: structurally plausible fragments that push the
/// parser much deeper than uniform noise ever would.
fn token_soup(rng: &mut Xoshiro256) -> String {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        "\"a\"",
        "null",
        "true",
        "false",
        "0",
        "-",
        "1e",
        "1e999",
        "0.5",
        "-0.0",
        "\"\\u",
        "\"\\u00",
        "\"\\ud800\"",
        "{\"type\"",
        "\"seed\":",
        "18446744073709551615",
        "-9223372036854775808",
        " ",
        "\t",
        "\u{7f}",
        "é",
        "\"🦀\"",
    ];
    let len = rng.range(1, 24) as usize;
    (0..len)
        .map(|_| TOKENS[rng.range(0, TOKENS.len() as u64) as usize])
        .collect()
}

/// One of every message shape, exercising every field type the protocol
/// serialises (strings, ints, options, nested reports).
fn valid_lines() -> Vec<String> {
    let spec = CampaignSpec {
        defense: "Baseline".into(),
        contract: "CT-SEQ".into(),
        source: "STL".into(),
        seed: 7,
        scale: Some(0.5),
        find_first: true,
        batch_programs: 3,
        cycle_skip: true,
    };
    [
        Msg::Hello(Hello { proto: u64::MAX }),
        Msg::Submit(spec),
        Msg::Accepted {
            campaign: 3,
            cached: false,
        },
        Msg::Rejected {
            reason: "admit queue full (1 active, 16 queued)".into(),
            retry_after_ms: 1_800,
        },
        Msg::Recovering {
            campaign: 3,
            recovered: 5,
            total: 8,
        },
        Msg::Progress {
            campaign: 3,
            done: 6,
            total: 8,
            cases: 432,
        },
        Msg::CampaignResult(ResultMsg {
            campaign: 3,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: None,
            error: Some("unknown defense \"Nope\"".into()),
        }),
        Msg::Draining { active: 2 },
        Msg::CancelCampaign { campaign: 3 },
        Msg::Ping { token: 99 },
        Msg::Pong { token: 99 },
        Msg::Fragment(FragmentReport {
            index: 3,
            ..FragmentReport::default()
        }),
        Msg::Shutdown,
    ]
    .iter()
    .map(Msg::to_line)
    .collect()
}

/// 10k+ seeded random inputs: the JSON parser returns a structured error
/// or a value — it never panics, and its errors are never empty.
#[test]
fn json_parser_survives_seeded_noise_with_structured_errors() {
    let mut rng = Xoshiro256::seed_from_u64(0xF022_2025);
    for round in 0..8_000 {
        let bytes = random_bytes(&mut rng);
        let input = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = parse_json(&input) {
            assert!(!e.is_empty(), "empty error for input {round}: {input:?}");
        }
    }
    for round in 0..4_000 {
        let input = token_soup(&mut rng);
        if let Err(e) = parse_json(&input) {
            assert!(!e.is_empty(), "empty error for soup {round}: {input:?}");
        }
    }
}

/// Every valid protocol line truncated at every byte boundary: each
/// prefix parses or fails structurally — the frame parser never panics
/// on a torn frame.
#[test]
fn msg_parser_survives_truncation_at_every_byte() {
    for line in valid_lines() {
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            let prefix = &line[..cut];
            if let Err(e) = Msg::parse_line(prefix) {
                assert!(!e.is_empty(), "empty error for prefix {prefix:?}");
            }
        }
        // The full line must round-trip, proving the corpus is honest.
        Msg::parse_line(&line).expect("valid line must parse");
    }
}

/// Seeded byte-level mutations of valid frames — flips, deletions,
/// insertions — the single most effective malformed-frame generator.
#[test]
fn msg_parser_survives_seeded_mutations_of_valid_frames() {
    let lines = valid_lines();
    let mut rng = Xoshiro256::seed_from_u64(0xBADF_EED5);
    for round in 0..6_000 {
        let line = &lines[rng.range(0, lines.len() as u64) as usize];
        let mut bytes = line.clone().into_bytes();
        for _ in 0..rng.range(1, 4) {
            let at = rng.range(0, bytes.len() as u64) as usize;
            match rng.range(0, 3) {
                0 => bytes[at] = rng.range(0, 256) as u8,
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, rng.range(0, 256) as u8),
            }
        }
        let input = String::from_utf8_lossy(&bytes).into_owned();
        if let Err(e) = Msg::parse_line(&input) {
            assert!(!e.is_empty(), "empty error in round {round}: {input:?}");
        }
    }
}
