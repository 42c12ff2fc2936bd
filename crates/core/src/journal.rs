//! Crash-safe persistence for the campaign service: a per-campaign
//! write-ahead journal plus a persisted result cache, both append-only
//! JSONL under one `--state-dir`, and the one reader/appender pair that
//! every JSONL log (these two and the [`Corpus`](crate::Corpus)) goes
//! through.
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
//! One rule covers every log: its records are its newline-terminated
//! lines. A final line without its newline is a write a crash cut short
//! (a *torn tail*). `read_log` drops it with a `torn_tail` row and never
//! modifies the file; `LogAppender::open` amputates it before the first
//! new record, so nothing is ever glued onto it. Corruption anywhere else
//! is an error, which recovery answers by recomputing from scratch —
//! never by trusting a corrupt file. [`CrashPlan`] makes crash points
//! deterministic for tests: the storage-layer sibling of the CLI's seeded
//! network fault injection.

use crate::campaign::Fnv1a;
use crate::proto::{str_field, u64_field, CampaignSpec, FragmentReport, Msg, ResultMsg};
use amulet_util::events;
use amulet_util::json::{parse_json, JsonObj};
use std::collections::HashSet;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The persisted result cache's file name inside a state dir.
pub const CACHE_FILE: &str = "cache.jsonl";

/// The identity marker on every journal header line.
const JOURNAL_MARKER: &str = "amulet-campaign";

/// The torn-write rule, decided here and nowhere else: a log's records
/// are its newline-terminated lines, so a final line without a newline is
/// a write a crash cut short. Returns the file's length and, when its
/// tail is torn, the length of the newline-terminated prefix before it.
/// Reads backwards from the end, so a clean file costs one short read.
fn torn_tail(file: &mut File) -> std::io::Result<(u64, Option<u64>)> {
    let len = file.metadata()?.len();
    let mut buf = [0u8; 4096];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(buf.len() as u64);
        let chunk = &mut buf[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            let valid = start + i as u64 + 1;
            return Ok((len, (valid < len).then_some(valid)));
        }
        end = start;
    }
    Ok((len, (len > 0).then_some(0)))
}

/// Reads a JSONL log's records: its newline-terminated, non-blank lines,
/// each with its 1-based line number. A missing file reads as empty. A
/// torn tail is dropped with a `torn_tail` row — even one that parses, as
/// it is not a record until its newline lands — and the file is left as
/// it is: only [`LogAppender::open`] amputates.
pub(crate) fn read_log(path: &Path) -> Result<Vec<(usize, String)>, String> {
    let fail = |e: std::io::Error| format!("cannot read {}: {e}", path.display());
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(fail(e)),
    };
    let (len, torn) = torn_tail(&mut file).map_err(fail)?;
    let mut text = String::new();
    file.rewind()
        .and_then(|()| file.take(torn.unwrap_or(len)).read_to_string(&mut text))
        .map_err(fail)?;
    let lines: Vec<(usize, String)> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| (n + 1, line.to_string()))
        .collect();
    if torn.is_some() {
        events::stderr().emit("persist", "torn_tail", |o| {
            o.str("path", &path.display().to_string())
                .int("line", text.lines().count() as u64 + 1)
        });
    }
    Ok(lines)
}

/// The one appender for every JSONL log. [`LogAppender::open`] truncates
/// the file to its newline-terminated prefix, so a new record never lands
/// on a torn tail; each [`LogAppender::append`] is then a single write of
/// the line and its newline, flushed (no fsync).
#[derive(Debug)]
pub(crate) struct LogAppender {
    path: PathBuf,
    file: File,
    appends: usize,
    crash: Option<CrashPlan>,
    dead: bool,
}

impl LogAppender {
    /// Opens the log at `path` for appending, creating it if needed and
    /// amputating a torn tail.
    pub(crate) fn open(path: impl Into<PathBuf>) -> Result<Self, String> {
        let path = path.into();
        let fail = |what: &str, e: std::io::Error| format!("cannot {what} {}: {e}", path.display());
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| fail("open", e))?;
        if let (_, Some(valid)) = torn_tail(&mut file).map_err(|e| fail("read", e))? {
            file.set_len(valid).map_err(|e| fail("truncate", e))?;
        }
        Ok(LogAppender {
            path,
            file,
            appends: 0,
            crash: None,
            dead: false,
        })
    }

    /// Arms a deterministic crash point, counting appends from now (tests
    /// only; `None` disarms).
    pub(crate) fn arm(&mut self, plan: Option<CrashPlan>) {
        self.crash = plan;
        self.appends = 0;
    }

    /// Appends one record — `line` must hold no newline — and flushes it.
    /// With an armed [`CrashPlan`] at its crash point, writes the torn
    /// prefix instead and fails this and every later append: the log
    /// behaves exactly like one whose process died mid-write.
    pub(crate) fn append(&mut self, mut line: String) -> Result<(), String> {
        if self.dead {
            return Err(format!("log {} is dead (crashed)", self.path.display()));
        }
        if let Some(plan) = self.crash.filter(|p| p.crash_after_appends == self.appends) {
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
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append to {}: {e}", self.path.display()))?;
        self.appends += 1;
        Ok(())
    }
}

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
/// successful appends (counted from when it is armed), the next append
/// writes only `torn_bytes` of its record (no newline), then the log is
/// dead — every later append fails. `torn_bytes: 0` models a kill exactly
/// between the flush of one append and the write of the next; larger
/// values model a write torn mid-record. The storage-layer sibling of the
/// fleet tests' seeded link faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Appends that succeed before the crash fires.
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

/// Starts `header`'s campaign journal afresh at `path`, replacing whatever
/// was there; fragment lines follow through [`LogAppender::append`].
pub(crate) fn create_journal(path: &Path, header: &JournalHeader) -> Result<LogAppender, String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("cannot replace journal {}: {e}", path.display()))
        }
        _ => {}
    }
    let mut journal = LogAppender::open(path)?;
    journal.append(header.to_line())?;
    Ok(journal)
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
}

/// Loads a campaign journal for replay.
///
/// - missing file, or no whole header line yet (a crash during the header
///   write) → `Ok(None)`: nothing to resume;
/// - valid header for `expect_key` → `Ok(Some(..))` with the fragment
///   prefix;
/// - anything else — wrong identity, interior corruption, out-of-plan
///   fragments — is an error, and the caller must recompute from scratch
///   rather than trust the file.
pub fn load_journal(path: &Path, expect_key: &str) -> Result<Option<JournalReplay>, String> {
    let Some((header, lines)) = read_journal(path)? else {
        return Ok(None);
    };
    if header.key != expect_key {
        return Err(format!(
            "journal {}: identity mismatch: holds {:?}, expected {expect_key:?}",
            path.display(),
            header.key
        ));
    }
    let fragments = replay_fragments(path, &header, lines)?;
    Ok(Some(JournalReplay { header, fragments }))
}

/// A journal's fragment lines, after its header.
type JournalLines = std::vec::IntoIter<(usize, String)>;

/// A journal's parsed header and its remaining records: `None` when not
/// even the header line is whole.
fn read_journal(path: &Path) -> Result<Option<(JournalHeader, JournalLines)>, String> {
    let mut lines = read_log(path)?.into_iter();
    let Some((_, first)) = lines.next() else {
        return Ok(None);
    };
    let header = JournalHeader::parse_line(&first)
        .map_err(|e| format!("journal {}: bad header: {e}", path.display()))?;
    Ok(Some((header, lines)))
}

/// Parses a journal's fragment records against its header's plan,
/// deduplicating by batch index (the last line wins).
fn replay_fragments(
    path: &Path,
    header: &JournalHeader,
    lines: JournalLines,
) -> Result<Vec<FragmentReport>, String> {
    let shown = path.display().to_string();
    let mut fragments: Vec<FragmentReport> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for (n, line) in lines {
        match Msg::parse_line(&line) {
            Ok(Msg::Fragment(frag)) => {
                if frag.index as u64 >= header.total_batches {
                    return Err(format!(
                        "journal {shown}: line {n}: batch index {} outside the {}-batch plan",
                        frag.index, header.total_batches
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
                    "journal {shown}: line {n}: unexpected {:?} record",
                    other.tag()
                ))
            }
            Err(e) => return Err(format!("journal {shown}: line {n}: {e}")),
        }
    }
    Ok(fragments)
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
        let line = JsonObj::new()
            .str("key", key)
            .str("line", &Msg::CampaignResult(result.clone()).to_line())
            .finish();
        LogAppender::open(self.cache_path())?.append(line)
    }

    /// Loads the persisted cache, file order. A missing file is an empty
    /// cache; interior corruption (including a lying fingerprint) is an
    /// error.
    pub fn load_cache(&self) -> Result<Vec<(String, ResultMsg)>, String> {
        let path = self.cache_path();
        read_log(&path)?
            .iter()
            .map(|(n, line)| {
                parse_cache_line(line)
                    .map_err(|e| format!("cache {}: line {n}: {e}", path.display()))
            })
            .collect()
    }

    /// The daemon's startup pass: loads the cache, deletes journals whose
    /// campaign already completed (write-through landed, cleanup did not),
    /// and counts what a resubmit could resume. Each uncached journal is
    /// replayed exactly as a resubmit replays it, so one that a resubmit
    /// would recompute over (no whole header line, or a corrupt record)
    /// counts as corrupt.
    pub fn recover(&self) -> Result<Recovery, String> {
        let cache = self.load_cache()?;
        let cached_keys: HashSet<&str> = cache.iter().map(|(k, _)| k.as_str()).collect();
        let mut recovery = Recovery::default();
        for path in self.journal_paths()? {
            // Ok(true): cached, whatever the body holds; Ok(false): resumable.
            let cached = read_journal(&path).and_then(|journal| {
                let (header, lines) = journal.ok_or("no whole header line")?;
                if cached_keys.contains(header.key.as_str()) {
                    return Ok(true);
                }
                replay_fragments(&path, &header, lines).map(|_| false)
            });
            match cached {
                Ok(true) => {
                    let _ = std::fs::remove_file(&path);
                    recovery.cleared += 1;
                }
                Ok(false) => recovery.resumable += 1,
                Err(e) => {
                    events::stderr().emit("persist", "journal_unreadable", |o| {
                        o.str("path", &path.display().to_string()).str("error", &e)
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

    /// Writes a journal the way the service does: the header, then one
    /// fragment line per batch.
    fn write_journal(path: &Path, header: &JournalHeader, frags: &[FragmentReport]) {
        let mut journal = create_journal(path, header).unwrap();
        for frag in frags {
            journal
                .append(Msg::Fragment(frag.clone()).to_line())
                .unwrap();
        }
    }

    /// Reopens a journal the way a resumed campaign does and appends one
    /// fragment.
    fn extend_journal(path: &Path, frag: &FragmentReport) {
        let mut journal = LogAppender::open(path).unwrap();
        journal
            .append(Msg::Fragment(frag.clone()).to_line())
            .unwrap();
    }

    /// Write N fragment records, reopen, bit-exact replay; a
    /// wrong-identity header is rejected.
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

        let written: Vec<FragmentReport> = (0..5).map(sample_fragment).collect();
        write_journal(&path, &header, &written);
        let replay = load_journal(&path, &key).unwrap().expect("journal exists");
        assert_eq!(replay.header, header);
        assert_eq!(replay.fragments, written, "replay must be bit-exact");

        // Resume and extend: the new records land after the old prefix.
        extend_journal(&path, &sample_fragment(5));
        let replay = load_journal(&path, &key).unwrap().unwrap();
        assert_eq!(replay.fragments.len(), 6);

        // Starting afresh replaces the old journal.
        write_journal(&path, &header, &written[..1]);
        let replay = load_journal(&path, &key).unwrap().unwrap();
        assert_eq!(replay.fragments, written[..1]);

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
        write_journal(
            &path,
            &JournalHeader::for_spec(&spec, 8),
            &[
                sample_fragment(1),
                sample_fragment(2),
                sample_fragment(3),
                rerun.clone(),
            ],
        );
        let replay = load_journal(&path, &spec.cache_key()).unwrap().unwrap();
        assert_eq!(
            replay.fragments,
            vec![sample_fragment(1), rerun, sample_fragment(3)]
        );
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// The reader drops an unterminated final line — even a whole record
    /// missing only its newline — and leaves the file untouched; the
    /// appender amputates it on open.
    #[test]
    fn reader_drops_a_torn_tail_and_only_the_appender_amputates_it() {
        let dir = tmp_dir("log");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        assert_eq!(read_log(&path).unwrap(), Vec::new(), "missing = empty");
        std::fs::write(&path, "{\"a\":1}\n\n{\"b\":2}\n{\"c\":3}").unwrap();
        let lines = read_log(&path).unwrap();
        assert_eq!(
            lines,
            vec![(1, "{\"a\":1}".to_string()), (3, "{\"b\":2}".to_string())]
        );
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .ends_with("{\"c\":3}"));

        let mut log = LogAppender::open(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"a\":1}\n\n{\"b\":2}\n",
            "opening amputates the tear"
        );
        log.append("{\"d\":4}".into()).unwrap();
        assert_eq!(read_log(&path).unwrap().last().unwrap().0, 4);

        // A file that is one torn line (longer than one read-back chunk)
        // holds no record, and opening it empties it.
        std::fs::write(&path, "x".repeat(10_000)).unwrap();
        assert_eq!(read_log(&path).unwrap(), Vec::new());
        drop(LogAppender::open(&path).unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cut the journal's last record at every length — down to just its
    /// newline — then resume the way the service does: the replay holds
    /// the intact prefix, and after one append the journal reloads with
    /// that prefix plus the new fragment.
    #[test]
    fn torn_journal_tail_then_append_reloads_at_every_cut() {
        let state = StateDir::open(tmp_dir("torn")).unwrap();
        let spec = sample_spec(21);
        let key = spec.cache_key();
        let path = state.journal_path(&key);
        let header = JournalHeader::for_spec(&spec, 8);
        write_journal(
            &path,
            &header,
            &(0..3).map(sample_fragment).collect::<Vec<_>>(),
        );
        let whole = std::fs::read(&path).unwrap();
        let last_line_len = Msg::Fragment(sample_fragment(2)).to_line().len() + 1;
        let prefix = vec![sample_fragment(0), sample_fragment(1)];

        for cut in 1..=last_line_len {
            std::fs::write(&path, &whole[..whole.len() - cut]).unwrap();
            let replay = load_journal(&path, &key).unwrap().unwrap();
            assert_eq!(replay.fragments, prefix, "cut {cut}");

            extend_journal(&path, &sample_fragment(7));
            let healed = load_journal(&path, &key).unwrap().unwrap();
            let mut want = prefix.clone();
            want.push(sample_fragment(7));
            assert_eq!(healed.fragments, want, "cut {cut}");
            assert!(std::fs::read(&path).unwrap().ends_with(b"\n"));
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
        let header = JournalHeader::for_spec(&spec, 8);
        let line = |i| Msg::Fragment(sample_fragment(i)).to_line();
        let mut journal = create_journal(&path, &header).unwrap();
        journal.arm(Some(CrashPlan::torn(2, 17)));
        journal.append(line(0)).unwrap();
        journal.append(line(1)).unwrap();
        assert!(journal.append(line(2)).is_err(), "crash point");
        assert!(journal.append(line(3)).is_err(), "stays dead");
        drop(journal);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.ends_with('\n'), "the tear has no newline");
        let replay = load_journal(&path, &key).unwrap().unwrap();
        assert_eq!(replay.fragments.len(), 2, "only flushed records survive");

        // A clean kill (torn_bytes 0) leaves a newline-terminated file.
        let mut journal = create_journal(&path, &header).unwrap();
        journal.arm(Some(CrashPlan::kill_after(1)));
        journal.append(line(0)).unwrap();
        assert!(journal.append(line(1)).is_err());
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let replay = load_journal(&path, &key).unwrap().unwrap();
        assert_eq!(replay.fragments.len(), 1);
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// The persisted cache round-trips, lets a later line supersede an
    /// earlier one, and rejects interior lies.
    #[test]
    fn cache_round_trips_and_rejects_interior_corruption() {
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

        // Interior corruption is a hard error.
        let text = std::fs::read_to_string(state.cache_path()).unwrap();
        std::fs::write(
            state.cache_path(),
            format!("not json\n{}", text.lines().next().unwrap()),
        )
        .unwrap();
        let err = state.load_cache().unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_dir_all(state.path()).unwrap();
    }

    /// Cut the cache's last line at every length — down to just its
    /// newline — then load it and append once, as a restarted daemon
    /// does: the next load returns the intact prefix plus the new entry.
    #[test]
    fn torn_cache_tail_then_append_reloads_at_every_cut() {
        let state = StateDir::open(tmp_dir("cache_torn")).unwrap();
        let (kept, torn, added) = (sample_spec(43), sample_spec(44), sample_spec(45));
        state
            .append_cache(&kept.cache_key(), &sample_result(43))
            .unwrap();
        let prefix = std::fs::read(state.cache_path()).unwrap();
        state
            .append_cache(&torn.cache_key(), &sample_result(44))
            .unwrap();
        let whole = std::fs::read(state.cache_path()).unwrap();

        for cut in 1..=whole.len() - prefix.len() {
            std::fs::write(state.cache_path(), &whole[..whole.len() - cut]).unwrap();
            let loaded = state.load_cache().unwrap();
            assert_eq!(
                loaded,
                vec![(kept.cache_key(), sample_result(43))],
                "cut {cut}"
            );

            state
                .append_cache(&added.cache_key(), &sample_result(45))
                .unwrap();
            let loaded = state.load_cache().unwrap();
            assert_eq!(
                loaded,
                vec![
                    (kept.cache_key(), sample_result(43)),
                    (added.cache_key(), sample_result(45))
                ],
                "cut {cut}"
            );
        }
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
            write_journal(
                &state.journal_path(&spec.cache_key()),
                &JournalHeader::for_spec(spec, 8),
                &[sample_fragment(0)],
            );
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

    /// The startup pass counts a journal as resumable only when a
    /// resubmit would resume it: a journal whose only line is a torn
    /// header (even one that parses) or whose records are corrupt is
    /// counted corrupt, and a resubmit indeed starts over.
    #[test]
    fn recover_counts_what_a_resubmit_would_resume() {
        let state = StateDir::open(tmp_dir("recover_torn")).unwrap();
        let spec = sample_spec(53);
        let key = spec.cache_key();
        let path = state.journal_path(&key);
        std::fs::write(&path, JournalHeader::for_spec(&spec, 8).to_line()).unwrap();
        let recovery = state.recover().unwrap();
        assert_eq!((recovery.resumable, recovery.corrupt), (0, 1));
        assert_eq!(
            load_journal(&path, &key).unwrap(),
            None,
            "submit starts over"
        );

        write_journal(
            &path,
            &JournalHeader::for_spec(&spec, 8),
            &[sample_fragment(9)],
        );
        let recovery = state.recover().unwrap();
        assert_eq!(
            (recovery.resumable, recovery.corrupt),
            (0, 1),
            "out of plan"
        );
        assert!(load_journal(&path, &key).is_err(), "submit recomputes");

        // Once the campaign is cached, its journal is cleared whatever
        // its body holds.
        state.append_cache(&key, &sample_result(53)).unwrap();
        assert_eq!(state.recover().unwrap().cleared, 1);
        assert!(!path.exists());
        std::fs::remove_file(state.cache_path()).unwrap();

        write_journal(
            &path,
            &JournalHeader::for_spec(&spec, 8),
            &[sample_fragment(1)],
        );
        let recovery = state.recover().unwrap();
        assert_eq!((recovery.resumable, recovery.corrupt), (1, 0));
        std::fs::remove_dir_all(state.path()).unwrap();
    }
}
