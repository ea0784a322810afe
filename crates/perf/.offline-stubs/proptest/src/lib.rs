//! Offline stand-in for `proptest`: only other members' dev-dependencies
//! name it, so it is resolved but never compiled into `incast-perf`.
