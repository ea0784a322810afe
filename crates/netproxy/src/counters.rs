//! One declaration per counter set. [`counters!`] turns one field list
//! into the atomics a thread flushes into and the plain-`u64` snapshot
//! that readers merge them into, so the two never drift apart.

/// Declares a counter set once: `$atomic`, one `crate::sync::AtomicU64`
/// per field (so loom can model the flush) with the struct's own
/// visibility, and `$plain`, the same fields as public `u64`s. Two counts
/// of a field add up, unless the field is marked `: max`, which keeps the
/// larger. Generated beside the two structs:
///
/// * `$plain::merge(&mut self, &$atomic)` folds one set of atomics into a
///   snapshot;
/// * `$atomic::flush(&self, &$plain)` folds one batch's plain counts into
///   the atomics, skipping the zero ones.
///
/// Every counter is monotone and freestanding, so both sides use Relaxed
/// ordering: a snapshot taken while a thread flushes may mix counters
/// from different batches (`received` ahead of `batches`, say) but never
/// reads a value that was not written, and it is exact once the writer
/// has joined.
macro_rules! counters {
    (@merge [], $acc:expr, $v:expr) => { $acc += $v };
    (@merge [max], $acc:expr, $v:expr) => { $acc = $acc.max($v) };
    (@flush [], $atomic:expr, $v:expr) => {
        // ordering: Relaxed — see the doc comment of `counters!`.
        $atomic.fetch_add($v, $crate::sync::Ordering::Relaxed)
    };
    (@flush [max], $atomic:expr, $v:expr) => {
        // ordering: Relaxed — see the doc comment of `counters!`.
        $atomic.fetch_max($v, $crate::sync::Ordering::Relaxed)
    };
    (
        $(#[$atomic_meta:meta])*
        $vis:vis struct $atomic:ident;
        $(#[$plain_meta:meta])*
        pub struct $plain:ident {
            $( $(#[$doc:meta])* $field:ident $(: $fold:ident)?, )*
        }
    ) => {
        $(#[$atomic_meta])*
        #[derive(Debug, Default)]
        $vis struct $atomic {
            $( $(#[$doc])* $vis $field: $crate::sync::AtomicU64, )*
        }

        $(#[$plain_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $plain {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl $plain {
            #[doc = concat!("Folds one [`", stringify!($atomic), "`] into this snapshot.")]
            $vis fn merge(&mut self, from: &$atomic) {
                $(
                    // ordering: Relaxed — monotone freestanding counters
                    // (see `counters!`); no non-atomic data rides on them.
                    let v = from.$field.load($crate::sync::Ordering::Relaxed);
                    counters!(@merge [$($fold)?], self.$field, v);
                )*
            }
        }

        impl $atomic {
            /// Folds one batch's counts into these atomics.
            $vis fn flush(&self, batch: &$plain) {
                $(
                    if batch.$field != 0 {
                        counters!(@flush [$($fold)?], self.$field, batch.$field);
                    }
                )*
            }
        }
    };
}
