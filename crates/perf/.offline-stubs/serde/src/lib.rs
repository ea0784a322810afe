//! Offline stand-in for `serde`: marker traits every type satisfies, plus
//! the no-op derives. `incast-perf` writes its JSON by hand and serialises
//! nothing through these.

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
