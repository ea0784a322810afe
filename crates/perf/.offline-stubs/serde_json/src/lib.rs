//! Offline stand-in for `serde_json`: `incast-core` declares it and its
//! library code calls nothing from it (only the `bench` binaries do).
