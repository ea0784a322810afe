//! What the benchmark reads from the host: per-thread CPU time, peak
//! resident memory, and the machine stamp recorded beside every number.
//!
//! Linux `/proc` only; on another platform the readers return `None` and
//! the caller falls back (CPU time reads as wall time, or as 0) or leaves
//! the metric out.

use std::fs;
use std::process::Command;

/// CPU nanoseconds a thread has run, from the first field of a
/// `schedstat` file (`/proc/thread-self/schedstat` or
/// `/proc/self/task/<tid>/schedstat`).
fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU ns the calling thread has run so far. The kernel brings the
/// figure up to date when the thread leaves the CPU and otherwise only at
/// its 4 ms tick, so the thread yields first: with nothing else runnable
/// that costs a microsecond and makes the reading exact.
pub fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    schedstat_ns("/proc/thread-self/schedstat")
}

/// CPU ns of every live thread of this process, summed. Threads that have
/// already exited are not counted, so callers difference this only across
/// intervals in which no thread ends (the relay's workers live for the
/// whole measured section).
pub fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Some(ns) = schedstat_ns(path.to_str()?) {
            total += ns;
        }
    }
    Some(total)
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Default UDP receive-buffer size in bytes (`net.core.rmem_default`).
pub fn rmem_default() -> Option<u64> {
    fs::read_to_string("/proc/sys/net/core/rmem_default")
        .ok()?
        .trim()
        .parse()
        .ok()
}

/// Standard output of a command that succeeded, trailing newline removed.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim_end().to_string())
}

/// The machine stamp stored beside a recorded set.
#[derive(Debug, Clone)]
pub struct MachineStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
}

impl MachineStamp {
    pub fn read() -> MachineStamp {
        let unknown = || "unknown".to_string();
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        MachineStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        }
    }
}

/// `git rev-parse HEAD` plus the paths `git status --porcelain` lists,
/// from the repository containing the working directory. `None` outside a
/// git checkout (the benchmark driver's checkouts are not repositories).
pub fn git_state() -> Option<(String, Vec<String>)> {
    let rev = command_line("git", &["rev-parse", "HEAD"])?;
    let status = command_line("git", &["status", "--porcelain"])?;
    // Porcelain lines are "XY path": two status columns (either may be a
    // space), a space, the path.
    let dirty = status
        .lines()
        .filter_map(|l| l.get(3..))
        .map(|p| p.trim().to_string())
        .collect();
    Some((rev, dirty))
}
