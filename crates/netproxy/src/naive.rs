//! The Naive split-connection proxy (user-space TCP relay).
//!
//! For each accepted sender connection the proxy dials the receiver and
//! relays bytes in both directions — the full send/receive logic the paper
//! blames for the Figure 4 overhead. Every relayed chunk records one
//! latency sample (read completion → write completion through user
//! space) into a shared [`LatencyRecorder`].
//!
//! Plain blocking `std::net`: one accept thread, and per connection one
//! thread per direction.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use trace::LatencyRecorder;

/// Relay chunk size. 16 KiB matches common user-space proxy buffers.
const CHUNK: usize = 16 * 1024;

/// A blocking TCP accept loop on its own thread, serving each connection
/// on a thread of its own ([`NaiveProxy`] and the load generator's
/// [`crate::loadgen::TcpSink`] are both this plus a connection handler).
pub(crate) struct TcpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `listen` and runs `serve(connection, stop)` per accepted
    /// connection; the connection is closed when `serve` returns. At
    /// shutdown every live connection is closed under its handler (`stop`
    /// is set by then), so a handler blocked in a read returns.
    pub(crate) fn start(
        listen: SocketAddr,
        serve: impl Fn(&TcpStream, &AtomicBool) + Send + Sync + 'static,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = stop.clone();
            let serve = Arc::new(serve);
            thread::Builder::new()
                .name("tcp-accept".into())
                .spawn(move || {
                    // A second handle on each live connection (to close it
                    // at shutdown) beside its handler thread.
                    let mut live: Vec<(TcpStream, thread::JoinHandle<()>)> = Vec::new();
                    for conn in listener.incoming() {
                        // ordering: Acquire — pairs with the Release store in
                        // `shutdown`, whose wake-up connection lands here.
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(conn) = conn else { break };
                        live.retain(|(_, handler)| !handler.is_finished());
                        let Ok(closer) = conn.try_clone() else {
                            continue;
                        };
                        let (serve, stop) = (serve.clone(), stop.clone());
                        let handler = thread::spawn(move || {
                            serve(&conn, &stop);
                            // `closer` keeps the descriptor open past this
                            // thread; the peer must see the close now.
                            let _ = conn.shutdown(Shutdown::Both);
                        });
                        live.push((closer, handler));
                    }
                    for (closer, handler) in live {
                        let _ = closer.shutdown(Shutdown::Both);
                        let _ = handler.join();
                    }
                })?
        };
        Ok(TcpServer {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes live connections and joins every thread.
    /// Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        // ordering: Release — pairs with the Acquire loads in the accept
        // loop and the handlers.
        self.stop.store(true, Ordering::Release);
        // The accept call blocks; a throwaway connection wakes it.
        let _ = TcpStream::connect(self.local_addr);
        let _ = accept.join();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the relay threads share with the [`NaiveProxy`] handle.
#[derive(Default)]
struct Shared {
    recorder: LatencyRecorder,
    bytes_relayed: AtomicU64,
    connections: AtomicU64,
    relay_errors: AtomicU64,
}

/// A running Naive proxy instance.
pub struct NaiveProxy {
    server: TcpServer,
    shared: Arc<Shared>,
}

impl NaiveProxy {
    /// Binds a listener on `listen` and relays every accepted connection
    /// to `upstream`. Returns once the listener is ready.
    pub fn start(listen: SocketAddr, upstream: SocketAddr) -> io::Result<NaiveProxy> {
        let shared = Arc::new(Shared::default());
        let sh = shared.clone();
        let server = TcpServer::start(listen, move |inbound, stop| {
            // ordering: Relaxed — monotone stats counter.
            sh.connections.fetch_add(1, Ordering::Relaxed);
            // Connection errors are per-flow events, not proxy failures —
            // but an operator must see them, so they are counted, not
            // swallowed (teardown noise at shutdown excepted).
            // ordering: Acquire — pairs with `TcpServer::shutdown`.
            if relay_connection(inbound, upstream, &sh, stop).is_err()
                && !stop.load(Ordering::Acquire)
            {
                // ordering: Relaxed — monotone stats counter.
                sh.relay_errors.fetch_add(1, Ordering::Relaxed);
            }
        })?;
        Ok(NaiveProxy { server, shared })
    }

    /// The bound listen address (with the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The per-chunk relay-latency recorder (nanosecond samples).
    pub fn recorder(&self) -> &LatencyRecorder {
        &self.shared.recorder
    }

    /// Total bytes relayed sender→receiver so far.
    pub fn bytes_relayed(&self) -> u64 {
        // ordering: Relaxed — live snapshot of a monotone counter.
        self.shared.bytes_relayed.load(Ordering::Relaxed)
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        // ordering: Relaxed — live snapshot of a monotone counter.
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// Relays that ended with an error (upstream dial failures, resets).
    pub fn relay_errors(&self) -> u64 {
        // ordering: Relaxed — live snapshot of a monotone counter.
        self.shared.relay_errors.load(Ordering::Relaxed)
    }

    /// Stops accepting, tears down active relays and joins their threads
    /// (also done on drop). Idempotent.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Relays one sender connection through a fresh upstream connection,
/// recording per-chunk user-space latency on the forward direction.
fn relay_connection(
    inbound: &TcpStream,
    upstream: SocketAddr,
    shared: &Shared,
    stop: &AtomicBool,
) -> io::Result<()> {
    inbound.set_nodelay(true)?;
    let outbound = TcpStream::connect(upstream)?;
    outbound.set_nodelay(true)?;
    thread::scope(|s| {
        // Reverse path (acks/responses), uninstrumented.
        let rev = s.spawn(|| pump(&outbound, inbound, None));
        // Forward path (instrumented): sender -> proxy -> receiver.
        let fwd = pump(inbound, &outbound, Some(shared));
        // The upstream may keep answering after the sender is done — and
        // at shutdown (which closes `inbound`, ending `fwd`) may never
        // close its side: wait for it, but not past a stop request.
        while !rev.is_finished() {
            // ordering: Acquire — pairs with `TcpServer::shutdown`.
            if stop.load(Ordering::Acquire) {
                let _ = outbound.shutdown(Shutdown::Both);
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        fwd.and(rev.join().expect("reverse relay thread panicked"))
    })
}

/// Copies `from` to `to` through a user-space buffer until EOF, then
/// half-closes `to`. With `stats`, each chunk records one sample: from the
/// read's completion (kernel→user copy done) to the write's (user→kernel
/// copy done) — waiting for the next chunk to arrive is not relay time.
fn pump(mut from: &TcpStream, mut to: &TcpStream, stats: Option<&Shared>) -> io::Result<()> {
    let mut buf = vec![0u8; CHUNK];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => return to.shutdown(Shutdown::Write),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let read_done = Instant::now();
        to.write_all(&buf[..n])?;
        if let Some(shared) = stats {
            shared
                .recorder
                .record_nanos(read_done.elapsed().as_nanos() as u64);
            // ordering: Relaxed — monotone byte counter, no payload published.
            shared.bytes_relayed.fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}

// Socket tests are skipped under Miri (real sockets need real syscalls).
#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::testutil::{loopback, wait_for};

    /// An echo upstream; its threads end with the test process.
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind(loopback()).unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut w) = conn else { break };
                let mut r = w.try_clone().unwrap();
                thread::spawn(move || {
                    let _ = io::copy(&mut r, &mut w);
                    let _ = w.shutdown(Shutdown::Write);
                });
            }
        });
        addr
    }

    #[test]
    fn relays_bytes_transparently() {
        let proxy = NaiveProxy::start(loopback(), echo_server()).unwrap();

        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        let msg = b"hello through the proxy";
        client.write_all(msg).unwrap();
        let mut echoed = vec![0u8; msg.len()];
        client.read_exact(&mut echoed).unwrap();
        assert_eq!(&echoed, msg);
        assert_eq!(proxy.connections(), 1);
        assert!(proxy.bytes_relayed() >= msg.len() as u64);
    }

    #[test]
    fn records_per_chunk_latency() {
        let proxy = NaiveProxy::start(loopback(), echo_server()).unwrap();

        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        for _ in 0..10 {
            client.write_all(&[7u8; 1024]).unwrap();
            let mut back = [0u8; 1024];
            client.read_exact(&mut back).unwrap();
        }
        assert!(proxy.recorder().count() >= 1, "latency samples recorded");
    }

    #[test]
    fn bidirectional_large_transfer() {
        let proxy = NaiveProxy::start(loopback(), echo_server()).unwrap();

        let mut r = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut w = r.try_clone().unwrap();
        let send = thread::spawn(move || {
            w.write_all(&vec![0x5Au8; 1_000_000]).unwrap();
            w.shutdown(Shutdown::Write).unwrap();
        });
        let mut received = Vec::new();
        r.read_to_end(&mut received).unwrap();
        send.join().unwrap();
        assert_eq!(received.len(), 1_000_000);
        assert!(received.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn multiple_concurrent_connections() {
        let proxy = NaiveProxy::start(loopback(), echo_server()).unwrap();
        let addr = proxy.local_addr();

        let clients: Vec<_> = (0..8u8)
            .map(|i| {
                thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    let msg = vec![i; 4096];
                    c.write_all(&msg).unwrap();
                    let mut back = vec![0u8; 4096];
                    c.read_exact(&mut back).unwrap();
                    assert_eq!(back, msg);
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(proxy.connections(), 8);
    }

    #[test]
    fn failed_relays_are_counted_not_swallowed() {
        // An upstream that refuses connections: bind, learn the port, drop.
        let upstream = TcpListener::bind(loopback()).unwrap().local_addr().unwrap();
        let proxy = NaiveProxy::start(loopback(), upstream).unwrap();
        let mut client = TcpStream::connect(proxy.local_addr()).unwrap();
        client.write_all(b"doomed").ok();
        wait_for(|| proxy.relay_errors() == 1);
    }

    #[test]
    fn shutdown_stops_accepting_and_ends_live_relays() {
        // An upstream that accepts and then neither reads nor closes.
        let listener = TcpListener::bind(loopback()).unwrap();
        let upstream = listener.local_addr().unwrap();
        thread::spawn(move || {
            let _held: Vec<_> = listener.incoming().collect();
        });
        let mut proxy = NaiveProxy::start(loopback(), upstream).unwrap();
        let addr = proxy.local_addr();
        // Two relays in progress: `open` has both directions blocked in
        // reads; `done` has finished sending, so only the reverse
        // direction is left, waiting on the silent upstream.
        let mut open = TcpStream::connect(addr).unwrap();
        open.write_all(b"x").unwrap();
        let done = TcpStream::connect(addr).unwrap();
        done.shutdown(Shutdown::Write).unwrap();
        wait_for(|| proxy.connections() == 2 && proxy.bytes_relayed() == 1);
        proxy.shutdown(); // joins every thread, so returning at all is the check
        proxy.shutdown(); // idempotent
        assert_eq!(open.read(&mut [0u8; 1]).unwrap_or(0), 0, "relay torn down");
        assert_eq!(proxy.relay_errors(), 0, "teardown is not a relay error");
        // Either connect fails outright or the connection is never served.
        if let Ok(mut c) = TcpStream::connect(addr) {
            c.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            c.write_all(b"x").ok();
            if let Ok(n) = c.read(&mut [0u8; 1]) {
                assert_eq!(n, 0, "proxy still relaying after shutdown");
            }
        }
    }
}
