//! The one JSONL event writer. Every structured row the workspace emits
//! (daemon, fleet slots, workers, the submit client, persistence warnings)
//! is written by an [`EventLog`], led by four stamped fields:
//!
//! ```text
//! {"seq":0,"component":"serve","event":"serving","t_s":0.0001,"addr":"127.0.0.1:7800",...}
//! ```
//!
//! `seq` is dense and monotonic per writer in line order, so a consumer
//! can order rows whose `t_s` collide and prove it missed none. `component`
//! names the emitter and tells apart rows that share an event name. `t_s`
//! is seconds since the writer was created. Each process's stderr rows
//! share one writer, [`stderr`], and so one sequence. Debug builds assert
//! every row against the schema table [`EVENTS`].

use crate::json::JsonObj;
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Every `(component, event)` pair a row may carry — the schema table
/// `docs/DISTRIBUTED.md` documents, row for row.
pub const EVENTS: &[(&str, &str)] = &[
    ("serve", "serving"),
    ("serve", "recovery"),
    ("serve", "session_start"),
    ("serve", "session_end"),
    ("serve", "session_error"),
    ("serve", "client_malformed"),
    ("serve", "rejected"),
    ("serve", "evicted"),
    ("serve", "draining"),
    ("fleet", "connect"),
    ("fleet", "link_failure"),
    ("fleet", "backoff"),
    ("fleet", "orphan"),
    ("fleet", "adopt"),
    ("fleet", "refused"),
    ("fleet", "quarantine"),
    ("fleet", "drained"),
    ("worker", "listening"),
    ("worker", "session_start"),
    ("worker", "session_end"),
    ("worker", "session_error"),
    ("worker", "worker_error"),
    ("worker", "worker_eof_truncated"),
    ("worker", "worker_idle_timeout"),
    ("submit", "submit_retry"),
    ("persist", "torn_tail"),
    ("persist", "journal_duplicate_fragment"),
    ("persist", "journal_unreadable"),
    ("persist", "journal_plan_mismatch"),
    ("persist", "journal_unusable"),
    ("persist", "journal_open_failed"),
    ("persist", "journal_append_failed"),
    ("persist", "cache_write_failed"),
    ("persist", "corpus_append_failed"),
];

/// A sequenced JSONL event writer over any `Write + Send`, safe to share
/// across threads. Writing is best-effort: an unwritable log never takes
/// its caller down.
pub struct EventLog {
    // The counter lives under the writer's lock, so seq order and line
    // order cannot disagree across racing threads.
    out: Mutex<(u64, Box<dyn Write + Send>)>,
    start: Instant,
}

impl EventLog {
    /// A writer over `out`; `t_s` counts from now.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        EventLog {
            out: Mutex::new((0, Box::new(out))),
            start: Instant::now(),
        }
    }

    /// A writer that discards its rows.
    pub fn off() -> Self {
        EventLog::new(std::io::sink())
    }

    /// Writes one row — `seq`, `component`, `event`, `t_s`, then the
    /// fields `detail` adds — as a single write, and flushes.
    pub fn emit(&self, component: &str, event: &str, detail: impl FnOnce(JsonObj) -> JsonObj) {
        debug_assert!(
            EVENTS.contains(&(component, event)),
            "event ({component}, {event}) is not in amulet_util::events::EVENTS"
        );
        // Every step leaves (seq, writer) valid, so a poisoned lock is safe.
        let mut guard = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let (seq, w) = &mut *guard;
        let mut line = detail(
            JsonObj::new()
                .int("seq", *seq)
                .str("component", component)
                .str("event", event)
                .num("t_s", self.start.elapsed().as_secs_f64()),
        )
        .finish();
        line.push('\n');
        *seq += 1;
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// This process's stderr writer, shared by every stderr row it emits.
pub fn stderr() -> &'static EventLog {
    static STDERR: OnceLock<EventLog> = OnceLock::new();
    STDERR.get_or_init(|| EventLog::new(std::io::stderr()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, JsonValue};
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Racing threads still produce one dense sequence in line order, and
    /// every row leads with the stamped fields, detail numbers as numbers.
    #[test]
    fn racing_threads_share_one_dense_sequence() {
        let buf = Shared::default();
        let log = EventLog::new(buf.clone());
        std::thread::scope(|s| {
            for slot in 0..4u64 {
                let log = &log;
                s.spawn(move || {
                    for batch in 0..50 {
                        log.emit("fleet", "adopt", |o| {
                            o.int("slot", slot).int("batch", batch)
                        });
                    }
                });
            }
        });
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let rows: Vec<JsonValue> = text.lines().map(|l| parse_json(l).unwrap()).collect();
        assert_eq!(rows.len(), 200);
        for (n, row) in rows.iter().enumerate() {
            let JsonValue::Obj(fields) = row else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["seq", "component", "event", "t_s", "slot", "batch"]);
            assert_eq!(row.get("seq").and_then(JsonValue::as_u64), Some(n as u64));
            assert!(row.get("batch").and_then(JsonValue::as_u64).is_some());
        }
    }

    #[test]
    fn the_table_has_no_duplicate_rows() {
        for (i, row) in EVENTS.iter().enumerate() {
            assert!(!EVENTS[..i].contains(row), "{row:?} listed twice");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not in amulet_util::events::EVENTS")]
    fn an_unregistered_row_is_caught() {
        EventLog::off().emit("fleet", "no_such_event", |o| o);
    }
}
