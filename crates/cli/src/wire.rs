//! Line framing for the campaign fabric: the one reader and the one writer
//! of `amulet_core::proto` JSON lines.
//!
//! Every protocol line the fabric receives — a worker's replies on a
//! `drive` pipe or TCP link, a driver's assignments in a `worker` session,
//! a client's requests in a `serve` session — is read by [`pump_frames`] on
//! a reader thread of its own and arrives as a [`Frame`] on a channel, so
//! the receiving side waits on that channel with whatever deadline it
//! keeps. Every line the fabric sends goes through [`write_msg`].

use amulet_core::proto::Msg;
use std::convert::Infallible;
use std::io::{BufRead, ErrorKind, Write};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// One unit on a frame channel: what [`pump_frames`] read, or — on a
/// `serve` session's channel, which is also the client's outbox — a
/// message `E` from the service.
pub(crate) enum Frame<E = Infallible> {
    /// A complete line within the size bound (trailing `\r` stripped).
    Line(String),
    /// A line exceeded the bound; this many bytes were discarded.
    TooLong(usize),
    /// The peer closed its sending side (EOF). A nonzero count means it
    /// did so inside a line — it died mid-frame — and is the number of
    /// bytes of that torn line, which are dropped.
    End(usize),
    /// The transport failed.
    Failed(String),
    /// A message from the channel's other sender.
    Event(E),
}

/// Reads newline-delimited frames from `input` under a hard per-line byte
/// bound, so a hostile peer can neither balloon memory with an endless
/// line nor smuggle one past the bound a byte at a time. Exits at EOF
/// (after sending [`Frame::End`]), on transport error, or when the
/// receiving side hangs up (send fails).
pub(crate) fn pump_frames<R: BufRead, E>(mut input: R, max_line: usize, tx: Sender<Frame<E>>) {
    let mut line: Vec<u8> = Vec::new();
    let mut overflow = 0usize;
    loop {
        let (consumed, ended) = {
            let chunk = match input.fill_buf() {
                Ok([]) => {
                    let _ = tx.send(Frame::End(overflow.max(line.len())));
                    return;
                }
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    let _ = tx.send(Frame::Failed(e.to_string()));
                    return;
                }
            };
            let newline = chunk.iter().position(|&b| b == b'\n');
            let body = &chunk[..newline.unwrap_or(chunk.len())];
            if overflow > 0 || line.len() + body.len() > max_line {
                if overflow == 0 {
                    overflow = line.len();
                    line.clear();
                }
                overflow += body.len();
            } else {
                line.extend_from_slice(body);
            }
            (newline.map_or(chunk.len(), |p| p + 1), newline.is_some())
        };
        input.consume(consumed);
        if ended {
            let frame = if overflow > 0 {
                Frame::TooLong(std::mem::take(&mut overflow))
            } else {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                Frame::Line(String::from_utf8_lossy(&line).into_owned())
            };
            line.clear();
            if tx.send(frame).is_err() {
                return;
            }
        }
    }
}

/// Starts [`pump_frames`] over `input` on its own thread and returns the
/// channel it feeds. The thread ends at EOF, on a read error, or once the
/// receiver is dropped and the next line arrives — a reader blocked on a
/// socket needs that socket shut down.
pub(crate) fn spawn_pump<R: BufRead + Send + 'static>(
    input: R,
    max_line: usize,
) -> Receiver<Frame> {
    let (tx, frames) = channel();
    std::thread::spawn(move || pump_frames(input, max_line, tx));
    frames
}

/// Writes one protocol line in one write and flushes it: every message is
/// on some peer's critical path, and a line split over two writes can
/// wake its reader twice.
pub(crate) fn write_msg(out: &mut impl Write, msg: &Msg) -> Result<(), String> {
    let mut line = msg.to_line();
    line.push('\n');
    out.write_all(line.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("write failed: {e}"))
}

/// The driver-side receive of [`ProcLink`](crate::ProcLink) and
/// [`TcpLink`](crate::TcpLink): waits up to `timeout` for the next message
/// on `frames` (fed by an unbounded [`pump_frames`]). `Ok(None)` is an
/// expired deadline; a partial line stays in the pump for the next call.
pub(crate) fn recv_msg(frames: &Receiver<Frame>, timeout: Duration) -> Result<Option<Msg>, String> {
    match frames.recv_timeout(timeout) {
        Ok(Frame::Line(line)) => Msg::parse_line(&line).map(Some),
        Ok(Frame::TooLong(bytes)) => Err(format!("frame exceeds the line bound ({bytes} bytes)")),
        Ok(Frame::End(0)) | Err(RecvTimeoutError::Disconnected) => {
            Err("peer closed the connection".into())
        }
        Ok(Frame::End(torn)) => Err(format!(
            "peer closed the connection mid-frame ({torn} bytes)"
        )),
        Ok(Frame::Failed(e)) => Err(format!("read failed: {e}")),
        Ok(Frame::Event(never)) => match never {},
        Err(RecvTimeoutError::Timeout) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A reader that hands out its chunks one `fill_buf` at a time, the
    /// way a socket delivers whatever has arrived.
    struct Script(Vec<Vec<u8>>);

    impl Read for Script {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("BufRead goes through fill_buf")
        }
    }

    impl BufRead for Script {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            match self.0.first() {
                Some(chunk) => Ok(chunk),
                None => Ok(&[]),
            }
        }
        fn consume(&mut self, amt: usize) {
            if amt == 0 {
                return;
            }
            let chunk = &mut self.0[0];
            chunk.drain(..amt);
            if chunk.is_empty() {
                self.0.remove(0);
            }
        }
    }

    fn pump(chunks: &[&[u8]], max_line: usize) -> Vec<Frame> {
        let (tx, rx) = channel();
        let chunks = chunks.iter().map(|c| c.to_vec()).collect();
        pump_frames(Script(chunks), max_line, tx);
        rx.iter().collect()
    }

    /// The bounded reader assembles split frames, strips `\r`, discards
    /// oversized lines without buffering them, and reports the overflow —
    /// including a line dripped in byte by byte (slowloris) — and ends
    /// with an explicit end-of-input frame.
    #[test]
    fn pump_frames_bounds_lines_and_reassembles_chunks() {
        let mut chunks: Vec<&[u8]> = vec![b"hel", b"lo\r\nwo"];
        // 100 more bytes dripped one at a time against a 16-byte cap: the
        // oversized line is "wo" + 100 × "x" = 102 bytes, all discarded.
        chunks.extend(std::iter::repeat_n(b"x".as_slice(), 100));
        chunks.push(b"\nrld\n");
        let frames = pump(&chunks, 16);
        assert_eq!(frames.len(), 4, "hello, overflow, rld, end of input");
        assert!(matches!(&frames[0], Frame::Line(l) if l == "hello"));
        assert!(
            matches!(frames[1], Frame::TooLong(n) if n == 102),
            "the slow drip must be discarded, not assembled"
        );
        assert!(matches!(&frames[2], Frame::Line(l) if l == "rld"));
        assert!(
            matches!(frames[3], Frame::End(0)),
            "EOF must be explicit: the service holds a sender too"
        );
    }

    /// CRLF and LF lines read alike, and a blank CRLF line is an empty
    /// frame, not a lost one.
    #[test]
    fn pump_frames_strips_crlf() {
        let frames = pump(&[b"a\r\n\r\nb\n", b"c\r", b"\n"], usize::MAX);
        let lines: Vec<&str> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Line(l) => Some(l.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(lines, ["a", "", "b", "c"]);
        assert!(matches!(frames.last(), Some(Frame::End(0))));
    }

    /// Input that ends inside a line is reported once, as an end-of-input
    /// frame with the torn tail's byte count — an oversized torn line
    /// counts every byte it streamed.
    #[test]
    fn pump_frames_reports_a_torn_tail_with_its_byte_count() {
        let frames = pump(&[b"{\"type\":\"ping\"}\n{\"type\":", b"\"sh"], usize::MAX);
        assert_eq!(frames.len(), 2);
        assert!(matches!(&frames[0], Frame::Line(l) if l == "{\"type\":\"ping\"}"));
        assert!(matches!(frames[1], Frame::End(11)), "8 + 3 torn bytes");

        let frames = pump(&[b"ok\n", b"0123456789", b"abcdef"], 8);
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[1], Frame::End(16)));
    }
}
