//! Offline stand-in for `criterion`: only `bench`'s dev-dependencies name
//! it, so it is resolved but never compiled into `incast-perf`.
