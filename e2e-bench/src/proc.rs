//! Child-process plumbing: timed waits with a deadline, signals, and peak
//! resident memory.

use std::path::Path;
use std::process::{Child, ExitStatus};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `SIGKILL`.
pub const SIGKILL: i32 = 9;
/// `SIGTERM` — `amulet serve` drains gracefully on it.
pub const SIGTERM: i32 = 15;

/// The stderr line prefix under which a child reports its peak RSS.
pub const PEAK_PREFIX: &str = "amulet-bench: vm_hwm_kb=";

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Sends `sig` to process `pid`.
pub fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes two integers and touches no memory of ours; a
    // pid that has already exited only makes it return ESRCH.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Waits for `child` on a helper thread, so the exit time is exact rather
/// than a polling interval late; kills it after `limit`. Returns the exit
/// status and the instant the wait returned.
pub fn wait_within(child: Child, limit: Duration) -> Result<(ExitStatus, Instant), String> {
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let mut child = child;
        let status = child.wait();
        let _ = tx.send((status, Instant::now()));
    });
    let outcome = match rx.recv_timeout(limit) {
        Ok((Ok(status), at)) => Ok((status, at)),
        Ok((Err(e), _)) => Err(format!("wait for pid {pid} failed: {e}")),
        Err(_) => {
            signal(pid, SIGKILL);
            Err(format!("pid {pid} still running after {limit:?}; killed"))
        }
    };
    waiter.join().expect("wait thread does not panic");
    outcome
}

/// `VmHWM` (peak resident set, KiB) from a `/proc/<pid>/status` file.
pub fn peak_kb(status_file: &Path) -> Option<u64> {
    std::fs::read_to_string(status_file)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The peak RSS so far of running process `pid`, KiB (0 if unreadable).
pub fn pid_peak_kb(pid: u32) -> u64 {
    peak_kb(Path::new(&format!("/proc/{pid}/status"))).unwrap_or(0)
}

/// Prints this process's peak RSS to stderr under [`PEAK_PREFIX`] — what
/// every child the benchmark spawns does as its last act.
pub fn report_own_peak() {
    if let Some(kb) = peak_kb(Path::new("/proc/self/status")) {
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), "{PEAK_PREFIX}{kb}");
    }
}

/// The sum of the peak RSS lines children wrote into `stderr` text, one
/// line per process so a driver and its workers add up — or `None` unless
/// exactly `processes` reported (a worker killed before it could report
/// would make the sum look smaller).
pub fn reported_peak_kb(stderr: &str, processes: usize) -> Option<u64> {
    let peaks: Vec<u64> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(PEAK_PREFIX)?.trim().parse().ok())
        .collect();
    (peaks.len() == processes).then(|| peaks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_peak_and_sums_reports() {
        assert!(peak_kb(Path::new("/proc/self/status")).unwrap() > 0);
        let text = format!("noise\n{PEAK_PREFIX}100\n{PEAK_PREFIX}23\nmore\n");
        assert_eq!(reported_peak_kb(&text, 2), Some(123));
        assert_eq!(reported_peak_kb(&text, 3), None);
    }

    #[test]
    fn wait_within_kills_a_hung_child() {
        let child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let started = Instant::now();
        assert!(wait_within(child, Duration::from_millis(100)).is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
    }
}
