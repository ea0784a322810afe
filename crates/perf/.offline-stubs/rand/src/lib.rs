//! Offline stand-in for `rand`: the four crates `incast-perf` links declare
//! the dependency but call nothing from it (their RNG is `trace::SplitMix64`).
