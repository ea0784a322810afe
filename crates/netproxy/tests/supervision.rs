//! Integration tests for shard supervision, recovery, and the overload
//! shed ladder — socket-driven, so skipped under Miri (no socket
//! shims). These exercise the real `SO_REUSEPORT` restart path on
//! Linux and the portable single-shard rebind path elsewhere.

#![cfg(not(miri))]

use netproxy::shard::{RelayConfig, ShardedRelay};
use netproxy::wire::WireHeader;
use std::net::{SocketAddr, UdpSocket};
use std::num::NonZeroU64;
use std::time::{Duration, Instant};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("addr")
}

/// A two-shard relay under the supervisor's fixed timing.
fn supervised_config(receiver: SocketAddr) -> RelayConfig {
    RelayConfig {
        shards: 2,
        ..RelayConfig::streamlined(receiver)
    }
}

/// Polls `cond` for up to `secs` seconds.
fn wait_for(secs: u64, what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(secs),
            "not reached in time: {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sends data datagrams for `flow` at the relay until the receiver sees
/// one (restart windows can eat a few), then returns.
fn push_until_forwarded(
    sender: &UdpSocket,
    receiver: &UdpSocket,
    relay_addr: SocketAddr,
    flow: u64,
) {
    receiver
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut buf = [0u8; 2048];
    let start = Instant::now();
    let mut seq = 0u64;
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "flow {flow} never forwarded"
        );
        sender
            .send_to(&WireHeader::data(flow, seq, 4).encode(&[7; 4]), relay_addr)
            .unwrap();
        seq += 1;
        if receiver.recv_from(&mut buf).is_ok() {
            return;
        }
    }
}

#[test]
fn crashed_shard_is_restarted_and_stats_never_regress() {
    let receiver = UdpSocket::bind(loopback()).unwrap();
    let relay = ShardedRelay::start(
        loopback(),
        supervised_config(receiver.local_addr().unwrap()),
    )
    .expect("relay starts");
    let sender = UdpSocket::bind(loopback()).unwrap();

    push_until_forwarded(&sender, &receiver, relay.local_addr(), 1);
    // Counters flush after the batch's sends, a moment behind the socket.
    wait_for(2, "first forward counted", || relay.stats().forwarded >= 1);
    let before = relay.stats();

    // Kill every shard: whichever one the kernel steers our flow to is
    // certainly among them.
    for shard in 0..relay.shards() {
        relay.inject_crash(shard);
    }
    wait_for(5, "all shards restarted", || {
        (0..relay.shards()).all(|s| relay.shard_generation(s) >= 1)
    });
    let sup = relay.supervisor_stats();
    assert!(
        sup.restarts >= relay.shards() as u64,
        "every crash restarted"
    );
    assert!(sup.crashes_detected >= relay.shards() as u64);
    assert_eq!(sup.gave_up, 0);

    // The satellite claim: counters from a crashed-then-restarted shard
    // are monotone — the replacement adopts the same atomics, so the
    // merged snapshot never regresses.
    let after_restart = relay.stats();
    assert!(
        after_restart.forwarded >= before.forwarded,
        "no counter regression"
    );
    assert!(after_restart.received >= before.received);

    // And the relay still relays: same flow, post-restart.
    push_until_forwarded(&sender, &receiver, relay.local_addr(), 1);
    wait_for(2, "post-restart forward counted", || {
        relay.stats().forwarded > after_restart.forwarded
    });

    // Heartbeats advance on the replacement workers.
    let hb: Vec<u64> = (0..relay.shards())
        .map(|s| relay.shard_heartbeat(s))
        .collect();
    wait_for(2, "replacement heartbeats advance", || {
        (0..relay.shards()).any(|s| relay.shard_heartbeat(s) > hb[s])
    });
}

#[test]
fn wedged_shard_is_detected_and_replaced() {
    let receiver = UdpSocket::bind(loopback()).unwrap();
    let relay = ShardedRelay::start(
        loopback(),
        supervised_config(receiver.local_addr().unwrap()),
    )
    .expect("relay starts");

    relay.inject_wedge(0);
    // The wedge only trips once the worker consumes the chaos flag, then
    // the supervisor needs wedge_timeout of heartbeat silence.
    wait_for(5, "wedge detected and superseded", || {
        relay.shard_generation(0) >= 1
    });
    let sup = relay.supervisor_stats();
    assert!(sup.wedges_detected >= 1, "wedge classified as wedge");
    assert_eq!(sup.gave_up, 0);

    // The replacement serves traffic again (on Linux the wedged orphan's
    // socket may still soak up part of the steering until it exits; the
    // push helper retries through that window).
    let sender = UdpSocket::bind(loopback()).unwrap();
    push_until_forwarded(&sender, &receiver, relay.local_addr(), 3);
}

#[test]
fn directory_routed_feedback_survives_restart() {
    let receiver = UdpSocket::bind(loopback()).unwrap();
    let relay = ShardedRelay::start(
        loopback(),
        supervised_config(receiver.local_addr().unwrap()),
    )
    .expect("relay starts");
    let sender = UdpSocket::bind(loopback()).unwrap();

    // Teach the relay flow 9's sender, then crash every shard: the
    // private tables die with the workers, the shared directory does not.
    push_until_forwarded(&sender, &receiver, relay.local_addr(), 9);
    wait_for(2, "flow published to directory", || {
        relay.directory().lookup(9).is_some()
    });
    for shard in 0..relay.shards() {
        relay.inject_crash(shard);
    }
    wait_for(5, "all shards restarted", || {
        (0..relay.shards()).all(|s| relay.shard_generation(s) >= 1)
    });

    // Feedback for the pre-crash flow must still route to its sender —
    // via the directory, since no replacement has seen flow 9's data.
    sender
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut buf = [0u8; 2048];
    let start = Instant::now();
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "feedback never reversed after restart"
        );
        receiver
            .send_to(&WireHeader::ack(9, 0).encode(&[]), relay.local_addr())
            .unwrap();
        if let Ok((n, from)) = sender.recv_from(&mut buf) {
            assert_eq!(from, relay.local_addr());
            let (h, _) = WireHeader::decode(&buf[..n]).expect("wire");
            assert_eq!(h.flow, 9);
            return;
        }
    }
}

#[test]
fn overload_ladder_sheds_and_coalesces_under_burst() {
    let receiver = UdpSocket::bind(loopback()).unwrap();
    let recv_addr = receiver.local_addr().unwrap();
    // Keep the receiver drained so the burst pressure lands on the relay.
    std::thread::spawn(move || {
        let mut buf = [0u8; 2048];
        while receiver.recv_from(&mut buf).is_ok() {}
    });
    let relay = ShardedRelay::start(
        loopback(),
        RelayConfig {
            shards: 1,
            // A tiny budget: a burst of hundreds exhausts the forward
            // and NACK buckets (bursts of two batches and one) at once.
            overload: NonZeroU64::new(50),
            ..RelayConfig::streamlined(recv_addr)
        },
    )
    .expect("relay starts");
    let sender = UdpSocket::bind(loopback()).unwrap();

    // One flow, hot bursts: rung 1 exhausts (shed→NACK), the NACK
    // bucket exhausts (shed→drop), and duplicates coalesce. Coalescing
    // needs a NACK token and two over-budget datagrams in the same batch,
    // which a relay that keeps up one datagram at a time never sees — so
    // burst again (the bucket refills meanwhile) until every rung engaged.
    let start = Instant::now();
    let mut seq = 0u64;
    loop {
        let s = relay.stats();
        if s.shed_nacked > 0 && s.shed_dropped > 0 && s.nacks_coalesced > 0 {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "ladder never engaged on all rungs: {s:?}"
        );
        for _ in 0..13 {
            for _ in 0..64 {
                sender
                    .send_to(
                        &WireHeader::data(5, seq, 16).encode(&[1; 16]),
                        relay.local_addr(),
                    )
                    .unwrap();
                seq += 1;
            }
            // Pace just enough that the kernel socket buffer doesn't
            // swallow the whole burst before the relay reads any of it.
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    // Counters flush one by one per batch: snapshot only once the last
    // burst has drained, never mid-flush.
    let mut s = relay.stats();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let next = relay.stats();
        if next == s {
            break;
        }
        s = next;
    }
    // Ladder accounting: every received datagram lands in exactly one
    // bucket (streamlined relays are datagram-conserving).
    assert_eq!(
        s.received,
        s.forwarded + s.reversed + s.dropped + s.nacks + s.nacks_coalesced + s.shed_dropped,
        "shed ladder conserves datagrams: {s:?}"
    );
    assert!(s.shed_nacked <= s.nacks, "shed-NACKs are a subset of NACKs");
}
