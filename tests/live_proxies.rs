//! Integration tests for the Naive TCP proxy: byte transparency and
//! load-generator interoperation over loopback. (The UDP relay's
//! closed-loop tests live beside it in `netproxy::shard`.)

use netproxy::{NaiveProxy, TcpLoadGen, TcpSink};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("addr")
}

#[test]
fn naive_proxy_is_byte_transparent_under_load() {
    let sink = TcpSink::start().expect("sink");
    let proxy = NaiveProxy::start(loopback(), sink.local_addr()).expect("proxy");
    let load = TcpLoadGen {
        rate_bps: 100_000_000,
        duration: Duration::from_millis(500),
        chunk: 8192,
    };
    let stats = load.run(proxy.local_addr()).expect("load");
    // Allow the relay to drain.
    // simlint: allow(wall-clock) — drain deadline for live sockets
    let start = Instant::now();
    while sink.bytes() < stats.sent_bytes && start.elapsed() < Duration::from_secs(2) {
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        sink.bytes(),
        stats.sent_bytes,
        "every byte must arrive exactly once"
    );
    assert_eq!(proxy.bytes_relayed(), stats.sent_bytes);
    assert!(proxy.recorder().count() > 0, "latency samples collected");
}

#[test]
fn naive_proxy_preserves_content_not_just_counts() {
    // An echo upstream: payload integrity both directions.
    let listener = TcpListener::bind(loopback()).unwrap();
    let upstream = listener.local_addr().unwrap();
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut w) = conn else { break };
            let mut r = w.try_clone().unwrap();
            thread::spawn(move || {
                let _ = std::io::copy(&mut r, &mut w);
                let _ = w.shutdown(Shutdown::Write);
            });
        }
    });
    let proxy = NaiveProxy::start(loopback(), upstream).expect("proxy");
    let mut r = TcpStream::connect(proxy.local_addr()).unwrap();
    let mut w = r.try_clone().unwrap();
    let pattern: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let to_send = pattern.clone();
    let sender = thread::spawn(move || {
        w.write_all(&to_send).unwrap();
        w.shutdown(Shutdown::Write).unwrap();
    });
    let mut received = Vec::new();
    r.read_to_end(&mut received).unwrap();
    sender.join().unwrap();
    assert_eq!(received, pattern, "payload corrupted in relay");
}
