//! Shared helpers of the socket-driven unit tests.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// An ephemeral loopback bind address.
pub fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("valid addr")
}

/// Polls `cond` for up to 2 s (relay and sink counters flush per batch,
/// so they trail the socket observations by a moment); a failure is
/// reported at the caller's line.
#[track_caller]
pub fn wait_for(cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "condition not reached in time"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
