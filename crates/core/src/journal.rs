//! Crash-safe persistence for the campaign service: a per-campaign
//! write-ahead journal plus a persisted result cache, both append-only
//! JSONL under one `--state-dir`.
//!
//! # Why resume is cheap here
//!
//! A batch's outcome is a pure function of `(campaign config, batch seed)`
//! — see [`run_batch`](crate::shard::run_batch) — so a fragment journaled
//! before a crash is *exactly* the fragment an uninterrupted run would
//! have produced. Recovery therefore never re-executes journaled work: it
//! replays the fragment prefix from disk and leases only the missing batch
//! indices, and the reduced report is fingerprint-identical by
//! construction ([`reduce_fragments`](crate::shard::reduce_fragments) is
//! order-insensitive).
//!
//! # State-dir layout
//!
//! ```text
//! <state-dir>/
//!   cache.jsonl             completed reports, keyed by campaign identity
//!   journal-<hash>.jsonl    one per campaign in flight (deleted on success)
//! ```
//!
//! A journal file is a [`JournalHeader`] line (campaign identity, no
//! `"type"` tag — it is a record, not a protocol message) followed by one
//! [`Msg::Fragment`] line per completed batch, appended and flushed under
//! the service lock *before* the in-memory state learns about the batch.
//! A cache line wraps a complete `result` protocol line as a string —
//! reparsing it verifies the embedded fingerprint for free, and because
//! `parse → to_line` is a fixed point, a replayed report is byte-identical
//! to the one the original client saw.
//!
//! # Crash tolerance
//!
//! Every loader distinguishes a *torn tail* (a final line without a
//! trailing newline — the signature of a crash mid-append) from interior
//! corruption: the torn tail is skipped with a structured stderr note and
//! the valid prefix is used; anything else is an error, which recovery
//! answers by recomputing from scratch — never by trusting a corrupt file.
//! [`CrashPlan`] makes those crash points deterministic for tests: the
//! storage-layer sibling of the CLI's seeded network fault injection.

use crate::campaign::Fnv1a;
use crate::proto::{str_field, u64_field, CampaignSpec, FragmentReport, Msg, ResultMsg};
use amulet_util::events;
use amulet_util::json::{parse_json, JsonObj};
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The persisted result cache's file name inside a state dir.
pub const CACHE_FILE: &str = "cache.jsonl";

/// The identity marker on every journal header line.
const JOURNAL_MARKER: &str = "amulet-campaign";

/// The first line of a campaign journal: the campaign's identity
/// ([`CampaignSpec::cache_key`]) and batch-plan size, so a replay can
/// refuse a journal that belongs to a different campaign (or to the same
/// campaign under a different batch plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The campaign's [`CampaignSpec::cache_key`] — the replay identity.
    pub key: String,
    /// Defense display name (operator-readable context).
    pub defense: String,
    /// Contract paper name.
    pub contract: String,
    /// Campaign seed.
    pub seed: u64,
    /// Batches in the campaign's plan — a resume with a different plan
    /// (shape drift) must recompute, not mix prefixes.
    pub total_batches: u64,
}

impl JournalHeader {
    /// The header for one submitted campaign.
    pub fn for_spec(spec: &CampaignSpec, total_batches: u64) -> Self {
        JournalHeader {
            key: spec.cache_key(),
            defense: spec.defense.clone(),
            contract: spec.contract.clone(),
            seed: spec.seed,
            total_batches,
        }
    }

    /// Serialises to one JSON line (no trailing newline, no `"type"` tag —
    /// journal records are not protocol messages).
    pub fn to_line(&self) -> String {
        JsonObj::new()
            .str("journal", JOURNAL_MARKER)
            .str("key", &self.key)
            .str("defense", &self.defense)
            .str("contract", &self.contract)
            .str("seed", &self.seed.to_string())
            .int("total_batches", self.total_batches)
            .finish()
    }

    /// Parses a header line, rejecting anything without the journal marker.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let v = parse_json(line.trim())?;
        let marker = str_field(&v, "journal")?;
        if marker != JOURNAL_MARKER {
            return Err(format!("not a campaign journal header ({marker:?})"));
        }
        Ok(JournalHeader {
            key: str_field(&v, "key")?.to_string(),
            defense: str_field(&v, "defense")?.to_string(),
            contract: str_field(&v, "contract")?.to_string(),
            seed: str_field(&v, "seed")?
                .parse()
                .map_err(|_| "journal: bad seed".to_string())?,
            total_batches: u64_field(&v, "total_batches")?,
        })
    }
}

/// A deterministic storage crash point: after `crash_after_appends`
/// successful fragment appends, the next append writes only `torn_bytes`
/// of its record (no newline), then the journal is dead — every later
/// append fails. `torn_bytes: 0` models a kill exactly between the flush
/// of one append and the write of the next; larger values model a write
/// torn mid-record. The storage-layer sibling of the fleet tests' seeded
/// link faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Fragment appends that succeed before the crash fires.
    pub crash_after_appends: usize,
    /// Bytes of the crashing record left on disk (clamped to the record
    /// length; the newline is never written).
    pub torn_bytes: usize,
}

impl CrashPlan {
    /// A clean kill between append boundaries: `appends` records land,
    /// the next one writes nothing.
    pub fn kill_after(appends: usize) -> Self {
        CrashPlan {
            crash_after_appends: appends,
            torn_bytes: 0,
        }
    }

    /// A torn write: `appends` records land, the next one leaves
    /// `torn_bytes` of partial JSON on disk.
    pub fn torn(appends: usize, torn_bytes: usize) -> Self {
        CrashPlan {
            crash_after_appends: appends,
            torn_bytes,
        }
    }
}

/// An open campaign journal: header already on disk, fragments appended
/// one flushed line at a time. Dropping the handle closes the file; the
/// journal itself survives until [`StateDir`] cleanup deletes it after the
/// report reaches the persisted cache.
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    file: std::fs::File,
    appends: usize,
    crash: Option<CrashPlan>,
    dead: bool,
}

impl CampaignJournal {
    /// Starts a fresh journal at `path`: truncates whatever was there and
    /// writes the header line.
    pub fn create(path: impl Into<PathBuf>, header: &JournalHeader) -> Result<Self, String> {
        let path = path.into();
        let mut file = std::fs::File::create(&path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        writeln!(file, "{}", header.to_line())
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write journal header {}: {e}", path.display()))?;
        Ok(CampaignJournal {
            path,
            file,
            appends: 0,
            crash: None,
            dead: false,
        })
    }

    /// Reopens an existing journal for appending, first truncating it to
    /// `valid_len` bytes — the valid prefix a [`load_journal`] replay
    /// established — so a torn tail is amputated instead of being glued to
    /// the next record.
    pub fn resume(path: impl Into<PathBuf>, valid_len: u64) -> Result<Self, String> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        file.set_len(valid_len)
            .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))?;
        Ok(CampaignJournal {
            path,
            file,
            appends: 0,
            crash: None,
            dead: false,
        })
    }

    /// The journal's backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Arms a deterministic crash point (tests only; `None` disarms).
    pub fn arm(&mut self, plan: Option<CrashPlan>) {
        self.crash = plan;
    }

    /// Appends one fragment record and flushes it. With an armed
    /// [`CrashPlan`] at its crash point, writes the torn prefix instead
    /// and fails this and every later append — the journal behaves exactly
    /// like one whose process died mid-write.
    pub fn append(&mut self, frag: &FragmentReport) -> Result<(), String> {
        if self.dead {
            return Err("journal is dead (crashed)".into());
        }
        let line = Msg::Fragment(frag.clone()).to_line();
        if let Some(plan) = self.crash {
            if self.appends == plan.crash_after_appends {
                self.dead = true;
                let torn = &line.as_bytes()[..plan.torn_bytes.min(line.len())];
                let _ = self.file.write_all(torn);
                let _ = self.file.flush();
                return Err(format!(
                    "injected crash after {} append(s), {} byte(s) torn",
                    self.appends,
                    torn.len()
                ));
            }
        }
        writeln!(self.file, "{line}")
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append to journal {}: {e}", self.path.display()))?;
        self.appends += 1;
        Ok(())
    }
}

/// What [`load_journal`] recovered from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplay {
    /// The identity header.
    pub header: JournalHeader,
    /// Journaled fragments, deduplicated by batch index (the last line
    /// wins: the service is deterministic, so a duplicate differs at most
    /// by the corpus records a corpus-backed resume re-ran the batch for —
    /// the dedup is the never-double-count backstop).
    pub fragments: Vec<FragmentReport>,
    /// Whether a torn trailing line was skipped.
    pub skipped_torn: bool,
    /// Byte length of the valid prefix — what [`CampaignJournal::resume`]
    /// truncates to before appending.
    pub valid_len: u64,
}

/// Loads a campaign journal for replay.
///
/// - missing file → `Ok(None)`: nothing to resume;
/// - valid header for `expect_key` → `Ok(Some(..))` with the fragment
///   prefix (a torn trailing line is skipped with a stderr note);
/// - a torn *header* (crash before the first full line) → `Ok(None)` with
///   a note: the journal recorded nothing usable;
/// - anything else — wrong identity, interior corruption, out-of-plan or
///   skipped fragments — is an error, and the caller must recompute from
///   scratch rather than trust the file.
pub fn load_journal(path: &Path, expect_key: &str) -> Result<Option<JournalReplay>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    if text.is_empty() {
        return Ok(None);
    }
    let total_lines = text.lines().count();
    let torn_tail = !text.ends_with('\n');
    let shown = path.display().to_string();
    if torn_tail && total_lines == 1 {
        // The header write itself was torn — even a parseable line is not
        // trusted without its newline, because every later append assumes a
        // newline-terminated prefix. Nothing was journaled; start over.
        events::stderr().emit("persist", "journal_torn_header", |o| o.str("path", &shown));
        return Ok(None);
    }
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().expect("non-empty text has a first line");
    let header = JournalHeader::parse_line(first)
        .map_err(|e| format!("journal {shown}: bad header: {e}"))?;
    if header.key != expect_key {
        return Err(format!(
            "journal {shown}: identity mismatch: holds {:?}, expected {expect_key:?}",
            header.key
        ));
    }
    let mut fragments: Vec<FragmentReport> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut skipped_torn = false;
    let mut valid_len = text.len() as u64;
    for (n, line) in lines {
        if torn_tail && n + 1 == total_lines {
            // The signature of a crash mid-append: a final line with no
            // trailing newline. Skipped even when it happens to parse — the
            // valid prefix must stay newline-terminated so a resumed append
            // never glues onto a dangling record. The batch re-executes
            // deterministically instead.
            skipped_torn = true;
            valid_len = (text.len() - line.len()) as u64;
            events::stderr().emit("persist", "journal_torn_tail", |o| {
                o.str("path", &shown).int("line", n as u64 + 1)
            });
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        match Msg::parse_line(line) {
            Ok(Msg::Fragment(frag)) => {
                if frag.skipped {
                    return Err(format!(
                        "journal {shown}: line {}: skipped fragment was never executed",
                        n + 1
                    ));
                }
                if frag.index as u64 >= header.total_batches {
                    return Err(format!(
                        "journal {shown}: line {}: batch index {} outside the {}-batch plan",
                        n + 1,
                        frag.index,
                        header.total_batches
                    ));
                }
                if seen.insert(frag.index) {
                    fragments.push(frag);
                } else {
                    events::stderr().emit("persist", "journal_duplicate_fragment", |o| {
                        o.str("path", &shown).int("index", frag.index as u64)
                    });
                    let at = fragments.iter().position(|f| f.index == frag.index);
                    fragments[at.expect("seen indices were pushed")] = frag;
                }
            }
            Ok(other) => {
                return Err(format!(
                    "journal {shown}: line {}: unexpected {:?} record",
                    n + 1,
                    other.tag()
                ))
            }
            Err(e) => return Err(format!("journal {shown}: line {}: {e}", n + 1)),
        }
    }
    Ok(Some(JournalReplay {
        header,
        fragments,
        skipped_torn,
        valid_len,
    }))
}

/// What a [`StateDir::recover`] startup pass found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Persisted cache entries, file order (a later line for the same key
    /// supersedes an earlier one when inserted into a map in order).
    pub cache: Vec<(String, ResultMsg)>,
    /// Journals whose campaign is not cached — a resubmit will resume them.
    pub resumable: usize,
    /// Journals deleted because their campaign's report is already cached
    /// (a crash landed between the cache write-through and the cleanup).
    pub cleared: usize,
    /// Journals that failed to parse — left in place; a resubmit recomputes
    /// over them.
    pub corrupt: usize,
}

/// A service state directory: the persisted result cache plus one journal
/// per in-flight campaign. [`StateDir::open`] creates the directory;
/// everything else is plain append-only JSONL.
#[derive(Debug, Clone)]
pub struct StateDir {
    dir: PathBuf,
}

impl StateDir {
    /// Opens (creating if needed) the state directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
        Ok(StateDir { dir })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The persisted result cache's path.
    pub fn cache_path(&self) -> PathBuf {
        self.dir.join(CACHE_FILE)
    }

    /// The journal path for one campaign identity. The file name hashes
    /// the cache key (keys embed `|`-separated config, not path-safe); the
    /// header inside repeats the full key, so a hash collision is caught
    /// at load time as an identity mismatch.
    pub fn journal_path(&self, key: &str) -> PathBuf {
        let mut fp = Fnv1a::new();
        fp.bytes(key.as_bytes());
        self.dir.join(format!("journal-{:016x}.jsonl", fp.finish()))
    }

    /// Every journal file currently in the state dir, sorted by name.
    pub fn journal_paths(&self) -> Result<Vec<PathBuf>, String> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot read state dir {}: {e}", self.dir.display()))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".jsonl"))
            })
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Appends one completed report to the persisted cache. The stored
    /// line wraps the full `result` protocol line, so loading it re-runs
    /// the wire parser's fingerprint verification.
    pub fn append_cache(&self, key: &str, result: &ResultMsg) -> Result<(), String> {
        let path = self.cache_path();
        let line = JsonObj::new()
            .str("key", key)
            .str("line", &Msg::CampaignResult(result.clone()).to_line())
            .finish();
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open cache {}: {e}", path.display()))?;
        writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot append to cache {}: {e}", path.display()))
    }

    /// Loads the persisted cache, file order. A missing file is an empty
    /// cache; a torn trailing line is skipped with a stderr note; interior
    /// corruption (including a lying fingerprint) is an error.
    pub fn load_cache(&self) -> Result<Vec<(String, ResultMsg)>, String> {
        let path = self.cache_path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("cannot read cache {}: {e}", path.display())),
        };
        let shown = path.display().to_string();
        let total_lines = text.lines().count();
        let torn_tail = !text.ends_with('\n');
        let mut out = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if torn_tail && n + 1 == total_lines {
                // Crash mid-append: the unterminated final line is dropped
                // even when it parses — its campaign simply recomputes (or
                // resumes from its still-present journal).
                events::stderr().emit("persist", "cache_torn_tail", |o| {
                    o.str("path", &shown).int("line", n as u64 + 1)
                });
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            match parse_cache_line(line) {
                Ok(entry) => out.push(entry),
                Err(e) => return Err(format!("cache {shown}: line {}: {e}", n + 1)),
            }
        }
        Ok(out)
    }

    /// The daemon's startup pass: loads the cache, deletes journals whose
    /// campaign already completed (write-through landed, cleanup did not),
    /// and counts what a resubmit could resume.
    pub fn recover(&self) -> Result<Recovery, String> {
        let cache = self.load_cache()?;
        let cached_keys: HashSet<&str> = cache.iter().map(|(k, _)| k.as_str()).collect();
        let mut recovery = Recovery {
            cache: Vec::new(),
            resumable: 0,
            cleared: 0,
            corrupt: 0,
        };
        for path in self.journal_paths()? {
            let shown = path.display().to_string();
            let header = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    let first = text.lines().next().ok_or("empty journal")?;
                    JournalHeader::parse_line(first)
                });
            match header {
                Ok(h) if cached_keys.contains(h.key.as_str()) => {
                    let _ = std::fs::remove_file(&path);
                    recovery.cleared += 1;
                }
                Ok(_) => recovery.resumable += 1,
                Err(e) => {
                    events::stderr().emit("persist", "journal_unreadable", |o| {
                        o.str("path", &shown).str("error", &e)
                    });
                    recovery.corrupt += 1;
                }
            }
        }
        recovery.cache = cache;
        Ok(recovery)
    }
}

/// Parses one persisted-cache line back into its key and result.
fn parse_cache_line(line: &str) -> Result<(String, ResultMsg), String> {
    let v = parse_json(line.trim())?;
    let key = str_field(&v, "key")?.to_string();
    let wrapped = str_field(&v, "line")?;
    match Msg::parse_line(wrapped)? {
        Msg::CampaignResult(result) if result.report.is_some() => Ok((key, result)),
        Msg::CampaignResult(_) => Err("cached result carries no report".into()),
        other => Err(format!("expected a result line, found {:?}", other.tag())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::ViolationClass;
    use crate::campaign::ViolationDigest;
    use crate::detect::ScanStats;
    use crate::proto::ReportWire;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "amulet_journal_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_spec(seed: u64) -> CampaignSpec {
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

    fn sample_fragment(index: usize) -> FragmentReport {
        FragmentReport {
            index,
            skipped: false,
            stats: ScanStats {
                cases: 84 + index,
                classes: 12,
                candidates: 1,
                validation_runs: 2,
                confirmed: usize::from(index == 2),
                sim_cycles: 0xffff_0000_0000_0000 | index as u64,
                warped_cycles: 1 << 40,
            },
            first_detection_s: (index == 2).then_some(0.125),
            violations: if index == 2 {
                vec![ViolationDigest {
                    class: ViolationClass::SpectreV1,
                    ctrace_digest: u64::MAX - index as u64,
                    l1d_diff: vec![0x4740],
                    dtlb_diff: vec![],
                    l1i_diff: vec![7],
                }]
            } else {
                Vec::new()
            },
            records: Vec::new(),
        }
    }

    fn sample_result(seed: u64) -> ResultMsg {
        ResultMsg {
            campaign: 3,
            cached: false,
            cancelled: false,
            executed_batches: 8,
            report: Some(ReportWire {
                defense: "Baseline".into(),
                contract: "CT-SEQ".into(),
                mode: "Opt".into(),
                format: "CacheLines".into(),
                source: "PHT".into(),
                include_l1i: false,
                seed,
                instances: 2,
                programs: 12,
                inputs: 28,
                stats: ScanStats {
                    cases: 672,
                    classes: 96,
                    candidates: 5,
                    validation_runs: 20,
                    confirmed: 2,
                    sim_cycles: 0xffff_ffff_0000_0001,
                    warped_cycles: 1 << 62,
                },
                detections: 2,
                digests: sample_fragment(2).violations,
            }),
            error: None,
        }
    }

    /// The satellite-required round trip: write N fragment records, reopen,
    /// bit-exact replay; a wrong-identity header is rejected.
    #[test]
    fn journal_round_trips_and_rejects_wrong_identity() {
        let state = StateDir::open(tmp_dir("roundtrip")).unwrap();
        let spec = sample_spec(11);
        let key = spec.cache_key();
        let path = state.journal_path(&key);
        let header = JournalHeader::for_spec(&spec, 8);
        assert_eq!(
            JournalHeader::parse_line(&header.to_line()).unwrap(),
            header
        );

        let mut journal = CampaignJournal::create(&path, &header).unwrap();
        let written: Vec<FragmentReport> = (0..5).map(sample_fragment).collect();
        for frag in &written {
            journal.append(frag).unwrap();
        }
        drop(journal);

        let replay = load_journal(&path, &key).unwrap().expect("journal exists");
        assert_eq!(replay.header, header);
        assert_eq!(replay.fragments, written, "replay must be bit-exact");
        assert!(!replay.skipped_torn);

        // Resume and extend: the new records land after the old prefix.
        let mut journal = CampaignJournal::resume(&path, replay.valid_len).unwrap();
        journal.append(&sample_fragment(5)).unwrap();
        drop(journal);
        let replay = load_journal(&path, &key).unwrap().unwrap();
        assert_eq!(replay.fragments.len(), 6);

        // A different campaign's key must refuse this journal.
        let err = load_journal(&path, &sample_spec(12).cache_key()).unwrap_err();
        assert!(err.contains("identity mismatch"), "{err}");
        // And a header line that is not a journal header is an error too.
        std::fs::write(&path, "{\"type\":\"hello\"}\n").unwrap();
        assert!(load_journal(&path, &key).unwrap_err().contains("header"));
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// A batch journaled twice keeps its later line: the re-run a
    /// corpus-backed resume made to add records replaces the record-less
    /// fragment, in place.
    #[test]
    fn a_later_duplicate_fragment_supersedes_the_earlier_one() {
        use crate::corpus::{CorpusInput, Reduction};
        let state = StateDir::open(tmp_dir("duplicate")).unwrap();
        let spec = sample_spec(13);
        let path = state.journal_path(&spec.cache_key());
        let mut journal =
            CampaignJournal::create(&path, &JournalHeader::for_spec(&spec, 8)).unwrap();
        let input = CorpusInput {
            regs: [2; 16],
            flags: 0,
            mem_digest: 3,
            mem_len: 4096,
        };
        let rerun = FragmentReport {
            records: vec![Reduction {
                program: ".bb_main.exit:\n    EXIT\n".into(),
                removed: 4,
                input_a: input.clone(),
                input_b: input,
            }],
            ..sample_fragment(2)
        };
        for frag in [
            sample_fragment(1),
            sample_fragment(2),
            sample_fragment(3),
            rerun.clone(),
        ] {
            journal.append(&frag).unwrap();
        }
        drop(journal);
        let replay = load_journal(&path, &spec.cache_key()).unwrap().unwrap();
        assert_eq!(
            replay.fragments,
            vec![sample_fragment(1), rerun, sample_fragment(3)]
        );
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// A byte-truncated trailing record (crash mid-write) is skipped with
    /// the prefix kept — at every truncation length — and `resume`
    /// amputates the tear so later appends stay parseable.
    #[test]
    fn torn_trailing_record_is_skipped_at_every_length() {
        let state = StateDir::open(tmp_dir("torn")).unwrap();
        let spec = sample_spec(21);
        let key = spec.cache_key();
        let path = state.journal_path(&key);
        let header = JournalHeader::for_spec(&spec, 8);
        let mut journal = CampaignJournal::create(&path, &header).unwrap();
        for i in 0..3 {
            journal.append(&sample_fragment(i)).unwrap();
        }
        drop(journal);
        let whole = std::fs::read(&path).unwrap();
        let last_line_len = Msg::Fragment(sample_fragment(2)).to_line().len() + 1;

        for cut in 1..last_line_len {
            std::fs::write(&path, &whole[..whole.len() - cut]).unwrap();
            let replay = load_journal(&path, &key).unwrap().unwrap();
            assert_eq!(replay.fragments.len(), 2, "cut {cut}");
            assert_eq!(
                replay.fragments,
                vec![sample_fragment(0), sample_fragment(1)]
            );
            assert!(replay.skipped_torn, "cut {cut}");

            // Resuming truncates the tear; the next append reloads cleanly.
            let mut journal = CampaignJournal::resume(&path, replay.valid_len).unwrap();
            journal.append(&sample_fragment(7)).unwrap();
            drop(journal);
            let healed = load_journal(&path, &key).unwrap().unwrap();
            assert!(!healed.skipped_torn, "cut {cut}");
            assert_eq!(
                healed.fragments,
                vec![sample_fragment(0), sample_fragment(1), sample_fragment(7)]
            );
        }

        // Interior corruption is NOT tolerated — recompute, don't guess.
        let mut text = String::from_utf8(whole).unwrap();
        let first_frag = text.find("\"type\":\"fragment\"").unwrap();
        text.replace_range(first_frag..first_frag + 4, "XXXX");
        std::fs::write(&path, text).unwrap();
        assert!(load_journal(&path, &key).is_err());
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// An armed [`CrashPlan`] kills the journal at its crash point: the
    /// configured appends land, the crashing record leaves only its torn
    /// prefix, and the journal stays dead afterwards.
    #[test]
    fn crash_plan_fires_deterministically_and_stays_dead() {
        let state = StateDir::open(tmp_dir("crash")).unwrap();
        let spec = sample_spec(31);
        let key = spec.cache_key();
        let path = state.journal_path(&key);
        let mut journal =
            CampaignJournal::create(&path, &JournalHeader::for_spec(&spec, 8)).unwrap();
        journal.arm(Some(CrashPlan::torn(2, 17)));
        journal.append(&sample_fragment(0)).unwrap();
        journal.append(&sample_fragment(1)).unwrap();
        assert!(journal.append(&sample_fragment(2)).is_err(), "crash point");
        assert!(journal.append(&sample_fragment(3)).is_err(), "stays dead");
        drop(journal);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.ends_with('\n'), "the tear has no newline");
        let replay = load_journal(&path, &key).unwrap().unwrap();
        assert_eq!(replay.fragments.len(), 2, "only flushed records survive");
        assert!(replay.skipped_torn);

        // A clean kill (torn_bytes 0) leaves a newline-terminated file.
        let mut journal =
            CampaignJournal::create(&path, &JournalHeader::for_spec(&spec, 8)).unwrap();
        journal.arm(Some(CrashPlan::kill_after(1)));
        journal.append(&sample_fragment(0)).unwrap();
        assert!(journal.append(&sample_fragment(1)).is_err());
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let replay = load_journal(&path, &key).unwrap().unwrap();
        assert_eq!(replay.fragments.len(), 1);
        assert!(!replay.skipped_torn);
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// The persisted cache round-trips, tolerates a torn tail, lets a
    /// later line supersede an earlier one, and rejects interior lies.
    #[test]
    fn cache_round_trips_and_tolerates_a_torn_tail() {
        let state = StateDir::open(tmp_dir("cache")).unwrap();
        let spec = sample_spec(41);
        state
            .append_cache(&spec.cache_key(), &sample_result(41))
            .unwrap();
        state
            .append_cache(&sample_spec(42).cache_key(), &sample_result(42))
            .unwrap();
        let loaded = state.load_cache().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0, spec.cache_key());
        assert_eq!(loaded[0].1, sample_result(41), "bit-exact replay");

        // A torn trailing line (crash mid-append) is skipped, not fatal.
        let text = std::fs::read_to_string(state.cache_path()).unwrap();
        std::fs::write(state.cache_path(), &text[..text.len() - 9]).unwrap();
        let loaded = state.load_cache().unwrap();
        assert_eq!(loaded.len(), 1, "only the whole line survives");

        // Interior corruption is a hard error.
        std::fs::write(
            state.cache_path(),
            format!("not json\n{}", text.lines().next().unwrap()),
        )
        .unwrap();
        let err = state.load_cache().unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// The startup pass clears journals of already-cached campaigns (the
    /// crash-between-write-through-and-cleanup window), counts resumable
    /// ones, and flags unreadable ones without dying.
    #[test]
    fn recover_clears_cached_journals_and_counts_the_rest() {
        let state = StateDir::open(tmp_dir("recover")).unwrap();
        let done = sample_spec(51);
        let pending = sample_spec(52);
        state
            .append_cache(&done.cache_key(), &sample_result(51))
            .unwrap();
        for spec in [&done, &pending] {
            let mut journal = CampaignJournal::create(
                state.journal_path(&spec.cache_key()),
                &JournalHeader::for_spec(spec, 8),
            )
            .unwrap();
            journal.append(&sample_fragment(0)).unwrap();
        }
        std::fs::write(state.dir.join("journal-garbage.jsonl"), "what\n").unwrap();

        let recovery = state.recover().unwrap();
        assert_eq!(recovery.cache.len(), 1);
        assert_eq!(recovery.cleared, 1, "cached campaign's journal deleted");
        assert_eq!(recovery.resumable, 1);
        assert_eq!(recovery.corrupt, 1);
        assert!(
            !state.journal_path(&done.cache_key()).exists(),
            "cleared journal must be gone"
        );
        assert!(state.journal_path(&pending.cache_key()).exists());
        std::fs::remove_dir_all(state.path()).unwrap();
    }
}
