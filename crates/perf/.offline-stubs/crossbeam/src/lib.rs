//! Offline stand-in for `crossbeam`: `netproxy` declares it and uses nothing.
