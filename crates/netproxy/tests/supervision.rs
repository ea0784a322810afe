//! Integration tests for shard supervision, recovery, and the overload
//! shed ladder — socket-driven, so skipped under Miri (no socket
//! shims). These exercise the real `SO_REUSEPORT` restart path on
//! Linux and the portable single-shard rebind path elsewhere. Crashes
//! and stalls come from the relay's fault plan, as in a soak.

#![cfg(not(miri))]

use dcsim::faults::FaultPlan;
use dcsim::time::{SimDuration, SimTime};
use netproxy::shard::{effective_shards, RelayConfig, ShardedRelay};
use netproxy::supervisor::WEDGE_TIMEOUT;
use netproxy::wire::WireHeader;
use std::net::{SocketAddr, UdpSocket};
use std::num::NonZeroU64;
use std::time::{Duration, Instant};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("addr")
}

/// `ms` milliseconds after the relay starts, on the plan's clock.
fn ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// A two-shard relay under the supervisor's fixed timing, running `plan`.
fn supervised(receiver: &UdpSocket, plan: FaultPlan) -> ShardedRelay {
    let config = RelayConfig {
        shards: 2,
        faults: Some((plan, 1)),
        ..RelayConfig::streamlined(receiver.local_addr().unwrap())
    };
    ShardedRelay::start(loopback(), config).expect("relay starts")
}

/// A plan that crashes every shard of a two-shard relay at `at`.
fn crash_every_shard(at: SimTime) -> FaultPlan {
    (0..effective_shards(2) as u32).fold(FaultPlan::new(), |plan, s| plan.crash_shard(s, at))
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

/// Every shard crashes at 500 ms, so whichever one the kernel steers the
/// flow to is among them. Each is restarted; the counters never regress,
/// since a replacement adopts the same atomics; feedback for the flow
/// taught before the crash still reverses to its sender, through the
/// shared directory, since the private tables died with the workers; and
/// the relay still relays.
#[test]
fn crashed_shards_are_restarted_and_keep_counters_and_routes() {
    let receiver = UdpSocket::bind(loopback()).unwrap();
    let relay = supervised(&receiver, crash_every_shard(ms(500)));
    let sender = UdpSocket::bind(loopback()).unwrap();
    push_until_forwarded(&sender, &receiver, relay.local_addr(), 9);
    // Counters flush after the batch's sends, a moment behind the socket.
    wait_for(2, "first forward counted and flow 9 published", || {
        relay.stats().forwarded >= 1 && relay.directory().lookup(9).is_some()
    });
    let before = relay.stats();
    wait_for(5, "all shards restarted", || {
        (0..relay.shards()).all(|s| relay.shard_generation(s) >= 1)
    });
    let (sup, shards) = (relay.supervisor_stats(), relay.shards() as u64);
    assert!(
        sup.restarts >= shards && sup.crashes_detected >= shards,
        "{sup:?}"
    );
    assert_eq!(sup.gave_up, 0);
    let after = relay.stats();
    assert!(after.forwarded >= before.forwarded && after.received >= before.received);

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
            break;
        }
    }

    push_until_forwarded(&sender, &receiver, relay.local_addr(), 9);
    wait_for(2, "post-restart forward counted", || {
        relay.stats().forwarded > after.forwarded
    });
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
    // A one-second stall: the worker's receive holds it, so the
    // supervisor sees WEDGE_TIMEOUT of heartbeat silence.
    let relay = supervised(
        &receiver,
        FaultPlan::new().crash_shard_window(0, ms(50), ms(1_050)),
    );
    wait_for(5, "wedge detected and superseded", || {
        relay.shard_generation(0) >= 1
    });
    let sup = relay.supervisor_stats();
    assert!(sup.wedges_detected >= 1, "wedge classified as wedge");
    assert_eq!(sup.gave_up, 0);

    // The replacement serves traffic again (on Linux the wedged orphan's
    // socket soaks up part of the steering until its stall ends and it
    // exits; the push helper retries through that window).
    let sender = UdpSocket::bind(loopback()).unwrap();
    push_until_forwarded(&sender, &receiver, relay.local_addr(), 3);
}

/// A stall shorter than the wedge timeout is ridden out: the worker
/// resumes, nothing is superseded, and the relay still forwards.
#[test]
fn a_short_stall_is_ridden_out() {
    let receiver = UdpSocket::bind(loopback()).unwrap();
    let started = Instant::now();
    let relay = supervised(
        &receiver,
        FaultPlan::new().crash_shard_window(0, ms(50), ms(150)),
    );
    // Past the stall and a whole wedge timeout after it.
    let quiet = Duration::from_millis(150) + 2 * WEDGE_TIMEOUT;
    std::thread::sleep(quiet.saturating_sub(started.elapsed()));
    assert_eq!(relay.shard_generation(0), 0, "no supersession");
    let sup = relay.supervisor_stats();
    assert_eq!((sup.wedges_detected, sup.restarts), (0, 0), "{sup:?}");
    let hb = relay.shard_heartbeat(0);
    wait_for(2, "shard 0 beats again", || relay.shard_heartbeat(0) > hb);
    let sender = UdpSocket::bind(loopback()).unwrap();
    push_until_forwarded(&sender, &receiver, relay.local_addr(), 4);
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
