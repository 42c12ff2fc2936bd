//! TCP transport for the campaign fabric — the cross-host half of
//! `amulet drive --connect` / `amulet worker --listen`.
//!
//! The wire format is *identical* to the pipe transport: newline-delimited
//! `amulet_core::proto` JSON messages, read by the fabric's one frame
//! reader (`wire::pump_frames`) on a thread per connection. [`TcpLink`]
//! is the driver side (a [`WorkerLink`] whose deadlines are waits on its
//! frame channel); [`serve_listener`] is the worker side — accept one
//! connection at a time, run the ordinary serve loop over it, and go back
//! to accepting, so a driver reconnect after a network fault lands on a
//! fresh session of the same process. Each side shuts its socket down
//! when it is done, which ends its reader thread.
//!
//! Zero dependencies beyond `std::net`. No TLS, no auth — the fabric is
//! meant for trusted lab networks (see `docs/DISTRIBUTED.md`).

use crate::fleet::WorkerLink;
use crate::wire::{recv_msg, spawn_pump, write_msg, Frame};
use crate::worker::serve_session;
use amulet_core::proto::Msg;
use amulet_util::events;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// Writes get a generous fixed deadline: protocol messages are tiny, so a
/// send that stalls this long means the peer stopped draining its socket —
/// dead for the driver's purposes.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// The driver's end of one TCP worker connection.
///
/// A `wire::pump_frames` thread reads the socket, so a deadline that
/// expires mid-frame leaves the partial line in the pump and a later call
/// receives it whole: slow-but-alive peers lose nothing, while dead peers
/// are detected by the caller's retry ladder.
#[derive(Debug)]
pub struct TcpLink {
    stream: TcpStream,
    frames: Receiver<Frame>,
}

impl TcpLink {
    /// Connects to `addr` (`host:port`) with a connect deadline per
    /// resolved address.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, String> {
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?
            .collect();
        let mut last = format!("{addr}: no addresses resolved");
        for sock in &resolved {
            match TcpStream::connect_timeout(sock, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) => last = format!("cannot connect to {sock}: {e}"),
            }
        }
        Err(last)
    }

    /// Wraps an already-connected stream (used by tests and by churn
    /// injectors that pre-open sockets).
    pub fn from_stream(stream: TcpStream) -> Result<Self, String> {
        // Every protocol message is latency-critical (the scheduler blocks
        // on it) and tiny — Nagle only hurts here.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay failed: {e}"))?;
        stream
            .set_write_timeout(Some(WRITE_TIMEOUT))
            .map_err(|e| format!("set_write_timeout failed: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        // Unbounded: a records-bearing fragment grows with its violations.
        let frames = spawn_pump(BufReader::new(reader), usize::MAX);
        Ok(TcpLink { stream, frames })
    }
}

impl WorkerLink for TcpLink {
    fn send(&mut self, msg: &Msg) -> Result<(), String> {
        write_msg(&mut self.stream, msg)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Msg>, String> {
        recv_msg(&self.frames, timeout)
    }
}

impl Drop for TcpLink {
    /// Shuts the socket down, which ends the link's reader thread.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Worker-side settings for `amulet worker --listen`.
#[derive(Debug, Clone)]
pub struct ListenConfig {
    /// Bind address, e.g. `0.0.0.0:7711` (or `127.0.0.1:0` to let the OS
    /// pick a free port — the bound address is announced on stderr).
    pub addr: String,
    /// Serve this many driver sessions, then exit; `0` = forever.
    pub sessions: usize,
    /// Per-session idle deadline: a session with no traffic for this long
    /// ends (the listener then accepts the next connection). `None` =
    /// wait forever.
    pub idle_timeout: Option<Duration>,
}

/// Binds `addr` and serves driver sessions sequentially, announcing the
/// bound address in a `listening` row on the stderr event stream first
/// (so scripts and tests can scrape the port when binding to `:0`).
///
/// Each session serves the campaign its driver submits, so one listener
/// serves any number of campaigns, one session at a time. A session error
/// (malformed traffic, mid-batch disconnect) is logged and the listener
/// keeps accepting: driver reconnects after a network fault are routine,
/// not fatal.
pub fn serve_listener(listen: &ListenConfig) -> Result<(), String> {
    let listener =
        TcpListener::bind(&listen.addr).map_err(|e| format!("cannot bind {}: {e}", listen.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    let log = events::stderr();
    log.emit("worker", "listening", |o| {
        o.str("addr", &local.to_string())
            .int("pid", u64::from(std::process::id()))
    });
    let mut served = 0usize;
    loop {
        let (stream, peer) = listener
            .accept()
            .map_err(|e| format!("accept failed: {e}"))?;
        let _ = stream.set_nodelay(true);
        log.emit("worker", "session_start", |o| {
            o.str("peer", &peer.to_string())
        });
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        match serve_session(reader, &stream, log, listen.idle_timeout) {
            Ok(stats) => log.emit("worker", "session_end", |o| {
                o.int("batches", stats.batches as u64)
                    .int("pings", stats.pings as u64)
                    .int("malformed", stats.malformed as u64)
            }),
            Err(e) => log.emit("worker", "session_error", |o| o.str("error", &e)),
        }
        // Ends the session's reader thread, which holds a clone.
        let _ = stream.shutdown(Shutdown::Both);
        served += 1;
        if listen.sessions != 0 && served >= listen.sessions {
            return Ok(());
        }
    }
}

/// Splits a `--connect` list (`host:port,host:port,...`) into addresses.
pub fn parse_connect_list(list: &str) -> Result<Vec<String>, String> {
    let addrs: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if addrs.is_empty() {
        Err("--connect: expected host:port[,host:port...]".into())
    } else {
        Ok(addrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn connect_list_parses_and_rejects_empty() {
        assert_eq!(
            parse_connect_list("a:1, b:2 ,c:3").unwrap(),
            vec!["a:1", "b:2", "c:3"]
        );
        assert!(parse_connect_list(" , ,").is_err());
    }

    /// A full protocol exchange over a real loopback socket: hello,
    /// heartbeat, shutdown — with the worker side served by a thread.
    #[test]
    fn tcp_link_round_trips_the_protocol_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            let log = amulet_util::EventLog::off();
            serve_session(reader, &stream, &log, None).unwrap()
        });

        let mut link = TcpLink::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let Some(Msg::Hello(hello)) = link.recv_timeout(Duration::from_secs(5)).unwrap() else {
            panic!("expected hello")
        };
        hello.check().unwrap();
        link.send(&Msg::Ping { token: 0xfeed }).unwrap();
        assert!(matches!(
            link.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Msg::Pong { token: 0xfeed })
        ));
        link.send(&Msg::Shutdown).unwrap();
        let stats = server.join().unwrap();
        assert_eq!(stats.pings, 1);
        assert_eq!(stats.batches, 0);
    }

    /// A deadline on a silent (connected but mute) peer returns `Ok(None)`
    /// instead of blocking, and a partial frame survives across calls.
    #[test]
    fn recv_timeout_expires_on_a_silent_peer_and_keeps_partial_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Half a frame, then silence, then the rest.
            let line = Msg::Ping { token: 0xabcd }.to_line();
            let (a, b) = line.split_at(line.len() / 2);
            stream.write_all(a.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(200));
            stream.write_all(b.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            stream
        });

        let mut link = TcpLink::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        // First deadline expires mid-frame...
        assert!(link
            .recv_timeout(Duration::from_millis(30))
            .unwrap()
            .is_none());
        // ...and the reassembled frame arrives whole on a later call.
        let got = link.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            matches!(got, Some(Msg::Ping { token: 0xabcd })),
            "got {got:?}"
        );
        drop(server.join().unwrap());
    }

    /// A peer that vanishes mid-frame is an error (truncated frame), not a
    /// silent hang.
    #[test]
    fn a_peer_dying_mid_frame_is_a_truncation_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(b"{\"type\":\"hel").unwrap();
            // Dropping the stream closes the socket mid-frame.
        });

        let mut link = TcpLink::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        let err = link.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("mid-frame"), "unexpected error: {err}");
    }
}
