//! Shared in-memory transport for the fabric tests: the real
//! `amulet worker` serve loop and the real `amulet drive` driver loop run
//! against each other over channel-backed links (the process transport
//! swapped out, every other line of the fabric identical).
//!
//! Used by `multiproc_determinism.rs` (clean runs) and `fleet_faults.rs`
//! (the same links wrapped in seeded fault injection).

#![allow(dead_code)] // each test binary uses a subset

use amulet::contracts::ContractKind;
use amulet::defenses::DefenseKind;
use amulet::fuzz::proto::Msg;
use amulet::fuzz::{Campaign, CampaignConfig, CampaignReport, ShardConfig};
use amulet_cli::{DriveConfig, WorkerLink};
use std::io::{BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

pub const BATCH_PROGRAMS: usize = 3;

pub fn quick_cfg(stop_on_first: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(DefenseKind::Baseline, ContractKind::CtSeq);
    cfg.programs_per_instance = 15;
    cfg.stop_on_first = stop_on_first;
    cfg
}

pub fn in_process(cfg: &CampaignConfig) -> CampaignReport {
    Campaign::new(cfg.clone()).run_sharded(ShardConfig {
        workers: 2,
        batch_programs: BATCH_PROGRAMS,
    })
}

/// A [`DriveConfig`] with millisecond-scale backoff and tight-but-safe
/// deadlines, so failure paths resolve quickly under test.
pub fn quick_drive(procs: usize) -> DriveConfig {
    DriveConfig {
        procs,
        batch_programs: BATCH_PROGRAMS,
        retries: 2,
        liveness: Duration::from_secs(5),
        batch_timeout: Duration::from_secs(60),
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
        quarantine_after: 3,
        seed: 2025,
    }
}

// ---- channel-backed transport -------------------------------------------

/// Driver side of an in-memory link: lines out, lines in.
pub struct MemLink {
    pub tx: Sender<String>,
    pub rx: Receiver<String>,
}

impl WorkerLink for MemLink {
    fn send(&mut self, msg: &Msg) -> Result<(), String> {
        self.tx
            .send(msg.to_line())
            .map_err(|_| "worker hung up".to_string())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
        match self.rx.recv_timeout(timeout) {
            Ok(line) => Msg::parse_line(&line).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err("worker hung up".to_string()),
        }
    }
}

/// Worker-side `Read` over a line channel (each received line is one
/// newline-terminated chunk, so `BufRead` behaves exactly as it does over
/// a pipe).
pub struct ChanReader {
    rx: Receiver<String>,
    pending: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.pending.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.pending = line.into_bytes();
                    self.pending.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // driver hung up = EOF
            }
        }
        let n = buf.len().min(self.pending.len() - self.pos);
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Worker-side `Write` over a line channel: buffers until newline, sends
/// complete lines.
pub struct ChanWriter {
    tx: Sender<String>,
    buf: Vec<u8>,
}

impl Write for ChanWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]).into_owned();
            if self.tx.send(line).is_err() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "driver hung up",
                ));
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Boots a real worker serve loop on its own thread and hands back the
/// driver's end of the link.
pub fn spawn_mem_worker(cfg: &CampaignConfig) -> MemLink {
    let (to_worker, worker_rx) = channel::<String>();
    let (worker_tx, from_worker) = channel::<String>();
    let cfg = cfg.clone();
    std::thread::spawn(move || {
        let reader = BufReader::new(ChanReader {
            rx: worker_rx,
            pending: Vec::new(),
            pos: 0,
        });
        let writer = ChanWriter {
            tx: worker_tx,
            buf: Vec::new(),
        };
        // Errors are expected when a test tears a link down mid-batch;
        // logs go nowhere (the tests assert on driver-side events).
        let _ = amulet_cli::serve_session(&cfg, reader, writer, &amulet::util::EventLog::off());
    });
    MemLink {
        tx: to_worker,
        rx: from_worker,
    }
}

/// Byte-level `Read` over a chunk channel: every received chunk is
/// delivered verbatim — no newline framing — so tests can feed the
/// hardened session reader partial frames, oversized lines and
/// byte-at-a-time slowloris drips exactly as a hostile socket would.
pub struct ByteChanReader {
    rx: Receiver<Vec<u8>>,
    pending: Vec<u8>,
    pos: usize,
}

impl Read for ByteChanReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.pending.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // client hung up = EOF
            }
        }
        let n = buf.len().min(self.pending.len() - self.pos);
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A campaign client's end of an in-memory `amulet serve` conversation:
/// protocol lines out, protocol lines in.
pub struct MemClient {
    pub tx: Sender<String>,
    pub rx: Receiver<String>,
}

impl MemClient {
    pub fn send(&self, msg: &Msg) {
        self.tx.send(msg.to_line()).expect("service hung up");
    }

    /// The next raw line from the service (panics on timeout — service
    /// tests always know a message is due).
    pub fn recv_line(&self, timeout: Duration) -> String {
        self.rx.recv_timeout(timeout).expect("service went silent")
    }

    pub fn recv(&self, timeout: Duration) -> Msg {
        let line = self.recv_line(timeout);
        Msg::parse_line(&line).expect("service sent a malformed line")
    }
}

/// Boots the real `serve_client` handler on its own thread against
/// `service` and hands back the client's end of the conversation —
/// the in-memory analogue of connecting to `amulet serve` over TCP.
/// Dropping the [`MemClient`] is the disconnect.
pub fn spawn_serve_client(service: &std::sync::Arc<amulet::fuzz::Service>) -> MemClient {
    let (to_service, service_rx) = channel::<String>();
    let (service_tx, from_service) = channel::<String>();
    let service = service.clone();
    std::thread::spawn(move || {
        let reader = BufReader::new(ChanReader {
            rx: service_rx,
            pending: Vec::new(),
            pos: 0,
        });
        let writer = ChanWriter {
            tx: service_tx,
            buf: Vec::new(),
        };
        // A dropped MemClient ends the conversation; errors are the
        // tests' business to assert on, not ours to unwrap.
        let _ = amulet_cli::serve_client(&service, reader, writer);
    });
    MemClient {
        tx: to_service,
        rx: from_service,
    }
}

/// Boots the hardened `serve_client_with` handler on its own thread with
/// the given [`SessionLimits`] and hands back a *byte-level* sender (the
/// test controls every byte — frames are not auto-terminated), the
/// service's line receiver, and the session's join handle so tests can
/// assert on the returned [`ClientStats`] (strikes, evictions, sheds).
///
/// [`SessionLimits`]: amulet_cli::SessionLimits
/// [`ClientStats`]: amulet_cli::ClientStats
#[allow(clippy::type_complexity)]
pub fn spawn_hardened_client(
    service: &std::sync::Arc<amulet::fuzz::Service>,
    limits: amulet_cli::SessionLimits,
) -> (
    Sender<Vec<u8>>,
    Receiver<String>,
    std::thread::JoinHandle<Result<amulet_cli::ClientStats, String>>,
) {
    let (to_service, service_rx) = channel::<Vec<u8>>();
    let (service_tx, from_service) = channel::<String>();
    let service = service.clone();
    let handle = std::thread::spawn(move || {
        let reader = BufReader::new(ByteChanReader {
            rx: service_rx,
            pending: Vec::new(),
            pos: 0,
        });
        let writer = ChanWriter {
            tx: service_tx,
            buf: Vec::new(),
        };
        amulet_cli::serve_client_with(&service, reader, writer, &limits)
    });
    (to_service, from_service, handle)
}

/// A `Write` that appends into a shared buffer — the capture sink for
/// fragment tees and fleet event logs.
pub struct SharedBuf(pub std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn pair() -> (Self, std::sync::Arc<std::sync::Mutex<Vec<u8>>>) {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        (SharedBuf(buf.clone()), buf)
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
