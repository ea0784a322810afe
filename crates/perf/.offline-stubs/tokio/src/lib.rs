//! Offline stand-in for `tokio`: just enough surface for `netproxy`'s
//! first-generation async relays (`naive`, `streamlined`, `detecting`,
//! `transport`, `loadgen`) to type-check. `incast-perf` drives only the
//! thread-based `ShardedRelay`, so nothing here ever runs; every entry
//! point panics rather than pretend to be a runtime.

use std::future::Future;
use std::marker::PhantomData;

#[doc(hidden)]
pub fn no_runtime() -> ! {
    panic!("tokio stand-in (crates/perf/.offline-stubs): the async relays cannot run in the incast-perf build")
}

/// Branch selector for the `select!` expansion; never returns.
#[doc(hidden)]
pub fn pick(_arm: usize) -> bool {
    no_runtime()
}

pub fn spawn<F: Future + 'static>(_future: F) -> task::JoinHandle<F::Output> {
    no_runtime()
}

pub mod task {
    use super::*;

    pub struct JoinHandle<T>(pub(crate) PhantomData<T>);

    #[derive(Debug)]
    pub struct JoinError;

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;
        fn poll(
            self: std::pin::Pin<&mut Self>,
            _cx: &mut std::task::Context<'_>,
        ) -> std::task::Poll<Self::Output> {
            no_runtime()
        }
    }
}

/// Type-checks every arm (`pat = future => body`), runs none.
#[macro_export]
macro_rules! select {
    (@arms ($n:expr) $p:pat = $e:expr => $b:block , $($rest:tt)*) => {
        if $crate::pick($n) { let $p = $e.await; $b } else { $crate::select!(@arms ($n + 1) $($rest)*) }
    };
    (@arms ($n:expr) $p:pat = $e:expr => $b:block $($rest:tt)*) => {
        if $crate::pick($n) { let $p = $e.await; $b } else { $crate::select!(@arms ($n + 1) $($rest)*) }
    };
    (@arms ($n:expr) $p:pat = $e:expr => $b:expr , $($rest:tt)*) => {
        if $crate::pick($n) { let $p = $e.await; $b } else { $crate::select!(@arms ($n + 1) $($rest)*) }
    };
    (@arms ($n:expr) $p:pat = $e:expr => $b:expr) => {
        if $crate::pick($n) { let $p = $e.await; $b } else { $crate::no_runtime() }
    };
    (@arms ($n:expr)) => { $crate::no_runtime() };
    ($($arms:tt)+) => { $crate::select!(@arms (0usize) $($arms)+) };
}

#[macro_export]
macro_rules! join {
    ($($f:expr),+ $(,)?) => { ($($f.await),+) };
}

pub mod net {
    use super::no_runtime;
    use std::io;
    use std::net::SocketAddr;

    pub struct UdpSocket(());

    impl UdpSocket {
        pub async fn bind<A>(_addr: A) -> io::Result<UdpSocket> {
            no_runtime()
        }
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            no_runtime()
        }
        pub async fn recv_from(&self, _buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            no_runtime()
        }
        pub async fn send_to<A>(&self, _buf: &[u8], _target: A) -> io::Result<usize> {
            no_runtime()
        }
    }

    pub struct TcpListener(());

    impl TcpListener {
        pub async fn bind<A>(_addr: A) -> io::Result<TcpListener> {
            no_runtime()
        }
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            no_runtime()
        }
        pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            no_runtime()
        }
    }

    pub struct TcpStream(());

    impl TcpStream {
        pub async fn connect<A>(_addr: A) -> io::Result<TcpStream> {
            no_runtime()
        }
        pub fn set_nodelay(&self, _nodelay: bool) -> io::Result<()> {
            no_runtime()
        }
        pub fn into_split(self) -> (tcp::OwnedReadHalf, tcp::OwnedWriteHalf) {
            no_runtime()
        }
    }

    pub mod tcp {
        pub struct OwnedReadHalf(pub(crate) ());
        pub struct OwnedWriteHalf(pub(crate) ());
    }

    impl crate::io::AsyncReadExt for TcpStream {}
    impl crate::io::AsyncWriteExt for TcpStream {}
    impl crate::io::AsyncReadExt for tcp::OwnedReadHalf {}
    impl crate::io::AsyncWriteExt for tcp::OwnedWriteHalf {}
}

pub mod io {
    use super::no_runtime;
    use std::future::Future;
    use std::io;

    pub trait AsyncReadExt {
        fn read(&mut self, _buf: &mut [u8]) -> impl Future<Output = io::Result<usize>> {
            async { no_runtime() }
        }
    }

    pub trait AsyncWriteExt {
        fn write_all(&mut self, _src: &[u8]) -> impl Future<Output = io::Result<()>> {
            async { no_runtime() }
        }
        fn shutdown(&mut self) -> impl Future<Output = io::Result<()>> {
            async { no_runtime() }
        }
    }
}

pub mod sync {
    pub mod watch {
        use crate::no_runtime;
        use std::marker::PhantomData;

        pub struct Sender<T>(PhantomData<T>);
        pub struct Receiver<T>(PhantomData<T>);

        pub mod error {
            #[derive(Debug)]
            pub struct SendError<T>(pub T);
            #[derive(Debug)]
            pub struct RecvError(pub(crate) ());
        }

        pub fn channel<T>(_init: T) -> (Sender<T>, Receiver<T>) {
            (Sender(PhantomData), Receiver(PhantomData))
        }

        impl<T> Sender<T> {
            pub fn send(&self, _value: T) -> Result<(), error::SendError<T>> {
                Ok(())
            }
        }

        impl<T> Clone for Receiver<T> {
            fn clone(&self) -> Self {
                Receiver(PhantomData)
            }
        }

        impl<T> Receiver<T> {
            pub async fn changed(&mut self) -> Result<(), error::RecvError> {
                no_runtime()
            }
        }
    }
}

pub mod time {
    use super::no_runtime;
    use std::future::Future;
    use std::time::Duration;

    pub mod error {
        #[derive(Debug)]
        pub struct Elapsed(pub(crate) ());
    }

    pub async fn sleep(_duration: Duration) {
        no_runtime()
    }

    pub async fn timeout<F: Future>(_duration: Duration, _future: F) -> Result<F::Output, error::Elapsed> {
        no_runtime()
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Instant(std::time::Instant);

    impl Instant {
        pub fn now() -> Instant {
            Instant(std::time::Instant::now())
        }
        pub fn duration_since(&self, earlier: Instant) -> Duration {
            self.0.duration_since(earlier.0)
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum MissedTickBehavior {
        Burst,
        Delay,
        Skip,
    }

    pub struct Interval(());

    pub fn interval(_period: Duration) -> Interval {
        no_runtime()
    }

    impl Interval {
        pub fn set_missed_tick_behavior(&mut self, _behavior: MissedTickBehavior) {}
        pub async fn tick(&mut self) -> Instant {
            no_runtime()
        }
    }
}
