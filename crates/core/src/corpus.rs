//! The persisted violation corpus — a findings database that outlives any
//! single campaign or daemon process.
//!
//! SpecFuzz-style accumulation: every violating campaign appends its
//! findings to an append-only JSONL file, one [`CorpusRecord`] per line —
//! the *minimized* program (delta-debugged via [`crate::minimize()`]), the
//! violating input pair, the class and the deterministic digest. The file
//! reopens to exactly the records written (`amulet corpus` queries it),
//! and because it is append-only, a daemon restart loses nothing.
//!
//! # Encoding
//!
//! The same bit-exactness rules as the wire protocol (`crate::proto`):
//! counters are exact JSON integers, 64-bit digests and registers are
//! 0x-prefixed hex strings, and the digest object embedded in each line is
//! byte-identical to the one on fragment lines. Corpus lines carry no
//! `"type"` tag — they are records, not protocol messages, and the
//! handbook's tag-pin test must not see phantom message types.
//!
//! # Examples
//!
//! ```
//! use amulet_core::corpus::{Corpus, CorpusRecord};
//!
//! let dir = std::env::temp_dir().join(format!("amulet_corpus_doc_{}", std::process::id()));
//! let corpus = Corpus::open(dir.clone());
//! assert!(corpus.load().unwrap().is_empty()); // missing file = empty corpus
//! # let _ = std::fs::remove_file(dir);
//! ```

use crate::campaign::{executor_for, CampaignReport, Fnv1a, ViolationDigest};
use crate::detect::Detector;
use crate::minimize::minimize;
use crate::proto::{hex_arr_field, hex_u64, str_field, u64_field, violation_from_json};
use amulet_contracts::LeakageModel;
use amulet_isa::TestInput;
use amulet_util::json::{parse_json, JsonObj, JsonValue};
use std::io::Write;
use std::path::PathBuf;

/// One violating input in corpus form: the full architectural register
/// file and flags, with the memory image digested rather than stored (a
/// sandbox image is pages long; its FNV digest plus length identifies it
/// for dedup and diffing without bloating every line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusInput {
    /// The 16 GPRs, in register-index order.
    pub regs: [u64; 16],
    /// Flags byte.
    pub flags: u8,
    /// FNV-1a digest of the memory image bytes.
    pub mem_digest: u64,
    /// Memory image length in bytes.
    pub mem_len: u64,
}

impl CorpusInput {
    /// Digests a violating [`TestInput`].
    pub fn of(input: &TestInput) -> Self {
        let mut fp = Fnv1a::new();
        fp.bytes(&input.mem_bytes());
        CorpusInput {
            regs: input.regs,
            flags: input.flags_bits,
            mem_digest: fp.finish(),
            mem_len: input.mem_len() as u64,
        }
    }
}

/// One corpus line: a violation's persistent identity plus enough context
/// (defense, contract, seed) to answer `amulet corpus` queries.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusRecord {
    /// Defense display name of the campaign that found it.
    pub defense: String,
    /// Contract paper name.
    pub contract: String,
    /// Campaign seed.
    pub seed: u64,
    /// The deterministic violation digest (same encoding as the wire).
    pub digest: ViolationDigest,
    /// The minimized program, in parseable assembly text
    /// (`amulet_isa::parse_program` round-trips it).
    pub program: String,
    /// Instructions removed by minimisation.
    pub removed: u64,
    /// Input A of the violating pair (absent for digest-only records from
    /// wire-reduced reports, where the artefacts stayed in the workers).
    pub input_a: Option<CorpusInput>,
    /// Input B of the violating pair.
    pub input_b: Option<CorpusInput>,
}

impl CorpusRecord {
    /// Serialises to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut obj = JsonObj::new()
            .str("defense", &self.defense)
            .str("contract", &self.contract)
            .str("seed", &self.seed.to_string())
            .raw("digest", &crate::proto::violation_to_json(&self.digest))
            .str("program", &self.program)
            .int("removed", self.removed);
        for (key, input) in [("input_a", &self.input_a), ("input_b", &self.input_b)] {
            if let Some(i) = input {
                obj = obj.raw(key, &input_to_json(i));
            }
        }
        obj.finish()
    }

    /// Parses one corpus line.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let v = parse_json(line.trim())?;
        let digest = violation_from_json(v.get("digest").ok_or("corpus: missing digest")?)?;
        let input_of = |key: &str| -> Result<Option<CorpusInput>, String> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(obj) => input_from_json(obj).map(Some),
            }
        };
        Ok(CorpusRecord {
            defense: str_field(&v, "defense")?.to_string(),
            contract: str_field(&v, "contract")?.to_string(),
            seed: str_field(&v, "seed")?
                .parse()
                .map_err(|_| "corpus: bad seed".to_string())?,
            digest,
            program: str_field(&v, "program")?.to_string(),
            removed: u64_field(&v, "removed")?,
            input_a: input_of("input_a")?,
            input_b: input_of("input_b")?,
        })
    }
}

fn input_to_json(i: &CorpusInput) -> String {
    let regs: Vec<String> = i.regs.iter().map(|r| format!("\"{r:#x}\"")).collect();
    JsonObj::new()
        .raw("regs", &format!("[{}]", regs.join(",")))
        .int("flags", i.flags as u64)
        .str("mem_digest", &format!("{:#018x}", i.mem_digest))
        .int("mem_len", i.mem_len)
        .finish()
}

fn input_from_json(v: &JsonValue) -> Result<CorpusInput, String> {
    let regs_vec = hex_arr_field(v, "regs")?;
    let regs: [u64; 16] = regs_vec
        .try_into()
        .map_err(|bad: Vec<u64>| format!("corpus: expected 16 regs, got {}", bad.len()))?;
    let flags = u64_field(v, "flags")?;
    if flags > u8::MAX as u64 {
        return Err(format!("corpus: flags out of range: {flags}"));
    }
    Ok(CorpusInput {
        regs,
        flags: flags as u8,
        mem_digest: hex_u64(str_field(v, "mem_digest")?)?,
        mem_len: u64_field(v, "mem_len")?,
    })
}

/// An append-only JSONL violation corpus on disk.
///
/// [`Corpus::open`] performs no I/O — a corpus at a path that does not
/// exist yet is simply empty. [`Corpus::append`] creates the file on first
/// write; [`Corpus::load`] and [`Corpus::query`] read whatever is there.
#[derive(Debug, Clone)]
pub struct Corpus {
    path: PathBuf,
}

impl Corpus {
    /// A corpus handle at `path` (no I/O).
    pub fn open(path: impl Into<PathBuf>) -> Self {
        Corpus { path: path.into() }
    }

    /// The backing file's path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Appends records, creating the file if needed; returns the count
    /// written. Each record is flushed as one line, so a reader observing
    /// the file mid-append sees only whole records.
    pub fn append(&self, records: &[CorpusRecord]) -> Result<usize, String> {
        if records.is_empty() {
            return Ok(0);
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("cannot open corpus {}: {e}", self.path.display()))?;
        for rec in records {
            writeln!(file, "{}", rec.to_line())
                .map_err(|e| format!("cannot append to corpus {}: {e}", self.path.display()))?;
        }
        file.flush()
            .map_err(|e| format!("cannot flush corpus {}: {e}", self.path.display()))?;
        Ok(records.len())
    }

    /// Loads every record. A missing file is an empty corpus; a malformed
    /// line is an error naming its line number — except a torn *trailing*
    /// line (no final newline: the signature of a crash mid-append), which
    /// is skipped with a structured stderr note so a daemon restart never
    /// fails over the one record a crash interrupted.
    pub fn load(&self) -> Result<Vec<CorpusRecord>, String> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read corpus {}: {e}", self.path.display())),
        };
        let total_lines = text.lines().count();
        let torn_tail = !text.is_empty() && !text.ends_with('\n');
        let mut out = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match CorpusRecord::parse_line(line) {
                Ok(rec) => out.push(rec),
                Err(_) if torn_tail && n + 1 == total_lines => {
                    crate::journal::warn_note(
                        "corpus_torn_tail",
                        &[
                            ("path", &self.path.display().to_string()),
                            ("line", &(n + 1).to_string()),
                        ],
                    );
                }
                Err(e) => return Err(format!("corpus line {}: {e}", n + 1)),
            }
        }
        Ok(out)
    }

    /// Loads records matching the given filters (`None` = no constraint).
    /// `class` matches the digest's paper id (e.g. `"V1"`), `defense` the
    /// display name — both exact.
    pub fn query(
        &self,
        class: Option<&str>,
        defense: Option<&str>,
    ) -> Result<Vec<CorpusRecord>, String> {
        Ok(self
            .load()?
            .into_iter()
            .filter(|r| class.is_none_or(|c| r.digest.class.paper_id() == c))
            .filter(|r| defense.is_none_or(|d| r.defense == d))
            .collect())
    }
}

/// Builds the corpus records for one completed report.
///
/// In-process reports carry full [`Violation`](crate::Violation)
/// artefacts: each is
/// minimized (the corpus stores root-cause-ready programs, not raw fuzzer
/// output) and digested with its input pair. Wire-reduced reports carry
/// digests only — those become digest-only records (empty program, no
/// inputs), so a violating campaign always leaves a trace in the corpus.
pub fn records_from_report(report: &CampaignReport) -> Vec<CorpusRecord> {
    let cfg = &report.config;
    let context = |digest: ViolationDigest, program: String, removed: u64| CorpusRecord {
        defense: cfg.defense.name().to_string(),
        contract: cfg.contract.name().to_string(),
        seed: cfg.seed,
        digest,
        program,
        removed,
        input_a: None,
        input_b: None,
    };
    if report.violations.is_empty() {
        return report
            .digests
            .iter()
            .map(|d| context(d.clone(), String::new(), 0))
            .collect();
    }
    let mut executor = executor_for(cfg);
    let detector = Detector::new(LeakageModel::new(cfg.contract));
    report
        .violations
        .iter()
        .map(|(violation, class)| {
            let min = minimize(violation, &detector, &mut executor);
            let digest = ViolationDigest::of(violation, *class);
            CorpusRecord {
                program: min.program.to_string(),
                removed: min.removed as u64,
                input_a: Some(CorpusInput::of(&violation.input_a)),
                input_b: Some(CorpusInput::of(&violation.input_b)),
                ..context(digest, String::new(), 0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::ViolationClass;

    fn sample_record(seed: u64, class: ViolationClass) -> CorpusRecord {
        CorpusRecord {
            defense: "Baseline".into(),
            contract: "CT-SEQ".into(),
            seed,
            digest: ViolationDigest {
                class,
                ctrace_digest: 0x1234_5678_9abc_def0 ^ seed,
                l1d_diff: vec![0x4740, seed],
                dtlb_diff: vec![],
                l1i_diff: vec![7],
            },
            program: "MOV RAX, qword ptr [R14 + 8]\nEXIT".into(),
            removed: 3,
            input_a: Some(CorpusInput {
                regs: [seed; 16],
                flags: 0xd5,
                mem_digest: u64::MAX - seed,
                mem_len: 8192,
            }),
            input_b: None,
        }
    }

    #[test]
    fn records_round_trip_through_lines() {
        for rec in [
            sample_record(1, ViolationClass::SpectreV1),
            sample_record(u64::MAX, ViolationClass::SpectreV4),
            CorpusRecord {
                input_a: None,
                program: String::new(),
                ..sample_record(2, ViolationClass::SpectreV1)
            },
        ] {
            let line = rec.to_line();
            assert!(!line.contains('\n'), "one line per record: {line}");
            assert!(
                !line.contains("\"type\""),
                "corpus lines must not look like protocol messages: {line}"
            );
            assert_eq!(CorpusRecord::parse_line(&line).unwrap(), rec, "{line}");
        }
    }

    #[test]
    fn append_load_and_query_filter_by_class_and_defense() {
        let path = std::env::temp_dir().join(format!(
            "amulet_corpus_unit_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let corpus = Corpus::open(&path);
        assert_eq!(corpus.load().unwrap(), Vec::new());

        let v1 = sample_record(1, ViolationClass::SpectreV1);
        let v4 = CorpusRecord {
            defense: "STT".into(),
            ..sample_record(2, ViolationClass::SpectreV4)
        };
        assert_eq!(corpus.append(std::slice::from_ref(&v1)).unwrap(), 1);
        assert_eq!(corpus.append(std::slice::from_ref(&v4)).unwrap(), 1);

        // A fresh handle (a "restarted daemon") sees both appends.
        let reopened = Corpus::open(&path);
        assert_eq!(reopened.load().unwrap(), vec![v1.clone(), v4.clone()]);
        assert_eq!(
            reopened
                .query(Some(v1.digest.class.paper_id()), None)
                .unwrap(),
            vec![v1.clone()]
        );
        assert_eq!(reopened.query(None, Some("STT")).unwrap(), vec![v4.clone()]);
        assert_eq!(reopened.query(Some("nope"), None).unwrap(), Vec::new());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_corpus_lines_name_their_line_number() {
        let path = std::env::temp_dir().join(format!(
            "amulet_corpus_bad_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(
            &path,
            format!(
                "{}\nnot json\n",
                sample_record(1, ViolationClass::SpectreV1).to_line()
            ),
        )
        .unwrap();
        let err = Corpus::open(&path).load().unwrap_err();
        assert!(err.contains("line 2"), "unexpected error: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// A byte-truncated trailing line — the on-disk signature of a crash
    /// mid-append — is skipped with a warning instead of failing the load,
    /// at every truncation point inside the final record. Interior
    /// malformed lines (newline-terminated) stay hard errors.
    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = std::env::temp_dir().join(format!(
            "amulet_corpus_torn_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let corpus = Corpus::open(&path);
        let keep = sample_record(1, ViolationClass::SpectreV1);
        let torn = sample_record(2, ViolationClass::SpectreV4);
        corpus.append(&[keep.clone(), torn.clone()]).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let torn_len = torn.to_line().len() + 1;

        // Cut anywhere inside the final record (always leaving at least one
        // byte of it, so the tail is malformed, not merely absent).
        for cut in 2..torn_len {
            std::fs::write(&path, &whole[..whole.len() - cut]).unwrap();
            let loaded = corpus.load().unwrap();
            assert_eq!(loaded, vec![keep.clone()], "cut {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
