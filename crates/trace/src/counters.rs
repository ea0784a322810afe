//! One declaration per counter set; DESIGN.md §2 ("Counters") has the
//! whole story. Every form declares a struct of `pub u64` fields with
//! `add` (sum, or the larger where declared `: max`), `iter` (`(dotted
//! name, value)` in declaration order) and a `Display` of the nonzero
//! counters. The **atomic** form (`"prefix", atomic $Atomic;`) adds the
//! caller's atomics (so a model checker's shim can stand in), a Relaxed
//! per-batch `flush` into them and an Acquire `merge` out of them in
//! declaration order. The **keyed** form (`enum Key;`, fields `field as
//! Variant`) adds a `Copy` key enum, with `bump` and `get`.

/// Declares a counter set once (see the [module docs](crate::counters)).
#[macro_export]
macro_rules! counters {
    (@fold [], $acc:expr, $v:expr) => { $acc += $v };
    (@fold [max], $acc:expr, $v:expr) => { $acc = ::core::cmp::max($acc, $v) };
    // ordering: Relaxed — monotone freestanding counters: a mid-flush
    // snapshot may mix batches, and is exact once the writers have joined.
    (@flush [], $a:expr, $v:expr) => { $a.fetch_add($v, ::core::sync::atomic::Ordering::Relaxed) };
    // ordering: Relaxed — as above.
    (@flush [max], $a:expr, $v:expr) => { $a.fetch_max($v, ::core::sync::atomic::Ordering::Relaxed) };
    (@plain $prefix:literal, [$(#[$meta:meta])*] $vis:vis $plain:ident {
        $( [$(#[$doc:meta])*] $field:ident [$($fold:ident)?] )*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $plain { $( $(#[$doc])* pub $field: u64, )* }

        // A set need not use every method its declaration gives it.
        #[allow(dead_code)]
        impl $plain {
            /// Folds `other` into these counts (sum, or max where declared).
            pub fn add(&mut self, other: &Self) {
                $( $crate::counters!(@fold [$($fold)?], self.$field, other.$field); )*
            }

            /// Every counter as `(dotted name, value)`, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (concat!($prefix, ".", stringify!($field)), self.$field) ),*].into_iter()
            }
        }

        /// The nonzero counters as `name=value`; `none` if all are zero.
        impl ::core::fmt::Display for $plain {
            fn fmt(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                let mut sep = "";
                for (name, value) in self.iter().filter(|&(_, v)| v != 0) {
                    write!(f, "{sep}{name}={value}")?;
                    sep = " ";
                }
                f.write_str(if sep.is_empty() { "none" } else { "" })
            }
        }
    };
    (
        $prefix:literal, atomic $atomic_ty:ty;
        $(#[$atomic_meta:meta])* $avis:vis struct $atomic:ident;
        $(#[$plain_meta:meta])* pub struct $plain:ident {
            $( $(#[$doc:meta])* $field:ident $(: $fold:ident)?, )*
        }
    ) => {
        $crate::counters!(@plain $prefix, [$(#[$plain_meta])*] pub $plain {
            $( [$(#[$doc])*] $field [$($fold)?] )*
        });

        $(#[$atomic_meta])*
        #[derive(Debug, Default)]
        $avis struct $atomic { $( $(#[$doc])* $avis $field: $atomic_ty, )* }

        impl $plain {
            #[doc = concat!("Folds one [`", stringify!($atomic), "`] into this snapshot.")]
            $avis fn merge(&mut self, from: &$atomic) {
                // ordering: Acquire — in declaration order, so a count
                // declared first and bumped with Release never reads ahead
                // of the counts declared after it.
                $( $crate::counters!(@fold [$($fold)?], self.$field,
                    from.$field.load(::core::sync::atomic::Ordering::Acquire)); )*
            }
        }

        impl $atomic {
            /// Folds one batch's counts into these atomics.
            $avis fn flush(&self, batch: &$plain) {
                $( if batch.$field != 0 {
                    $crate::counters!(@flush [$($fold)?], self.$field, batch.$field);
                } )*
            }
        }
    };
    (
        $prefix:literal;
        $(#[$key_meta:meta])* $kvis:vis enum $key:ident;
        $(#[$plain_meta:meta])* $vis:vis struct $plain:ident {
            $( $(#[$doc:meta])* $field:ident as $variant:ident, )*
        }
    ) => {
        $crate::counters!(@plain $prefix, [$(#[$plain_meta])*] $vis $plain {
            $( [$(#[$doc])*] $field [] )*
        });

        $(#[$key_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $kvis enum $key { $( $(#[$doc])* $variant, )* }

        impl $key {
            /// The counter's field name.
            pub const fn label(self) -> &'static str {
                match self { $( $key::$variant => stringify!($field), )* }
            }
        }

        impl $plain {
            /// Adds `amount` to the counter `key` names.
            #[inline]
            pub fn bump(&mut self, key: $key, amount: u64) {
                match key { $( $key::$variant => self.$field += amount, )* }
            }

            /// The count `key` names.
            pub fn get(&self, key: $key) -> u64 {
                match key { $( $key::$variant => self.$field, )* }
            }
        }
    };
    (
        $prefix:literal;
        $(#[$plain_meta:meta])* $vis:vis struct $plain:ident {
            $( $(#[$doc:meta])* $field:ident $(: $fold:ident)?, )*
        }
    ) => {
        $crate::counters!(@plain $prefix, [$(#[$plain_meta])*] $vis $plain {
            $( [$(#[$doc])*] $field [$($fold)?] )*
        });
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    crate::counters! {
        "test.plain";
        /// A plain set.
        pub struct Plain {
            /// Summed.
            sent,
            /// Kept at the larger.
            peak: max,
            /// Summed too.
            errors,
        }
    }

    crate::counters! {
        "test.atomic", atomic AtomicU64;
        /// A thread's atomics.
        pub struct Shared;
        /// Their snapshot.
        pub struct Snapshot {
            released,
            delayed,
            largest: max,
        }
    }

    crate::counters! {
        "test.keyed";
        /// The key an event carries.
        pub enum Key;
        /// The keyed set.
        pub struct Keyed {
            /// First.
            nacks as Nacks,
            /// Second.
            probes as Probes,
        }
    }

    #[test]
    fn add_sums_and_max_keeps_the_larger() {
        let mut a = Plain {
            sent: 3,
            peak: 9,
            errors: 1,
        };
        a.add(&Plain {
            sent: 4,
            peak: 5,
            errors: 0,
        });
        assert_eq!(
            a,
            Plain {
                sent: 7,
                peak: 9,
                errors: 1
            }
        );
        a.add(&Plain {
            peak: 12,
            ..Plain::default()
        });
        assert_eq!(a.peak, 12);
    }

    #[test]
    fn iter_names_every_counter_in_declaration_order() {
        let s = Plain {
            sent: 1,
            peak: 0,
            errors: 2,
        };
        let got: Vec<_> = s.iter().collect();
        assert_eq!(
            got,
            vec![
                ("test.plain.sent", 1),
                ("test.plain.peak", 0),
                ("test.plain.errors", 2)
            ]
        );
    }

    #[test]
    fn display_prints_nonzero_counters_by_name() {
        let s = Plain {
            sent: 5,
            peak: 0,
            errors: 2,
        };
        assert_eq!(s.to_string(), "test.plain.sent=5 test.plain.errors=2");
        assert_eq!(Plain::default().to_string(), "none");
    }

    #[test]
    fn atomic_flush_then_merge() {
        let shared = Shared::default();
        shared.flush(&Snapshot {
            released: 1,
            delayed: 2,
            largest: 7,
        });
        shared.flush(&Snapshot {
            released: 0,
            delayed: 3,
            largest: 4,
        });
        let mut snap = Snapshot::default();
        snap.merge(&shared);
        assert_eq!(
            snap,
            Snapshot {
                released: 1,
                delayed: 5,
                largest: 7
            }
        );
        // A second set merged into the same snapshot: sums add, max keeps.
        let other = Shared::default();
        other.flush(&Snapshot {
            released: 2,
            delayed: 0,
            largest: 9,
        });
        snap.merge(&other);
        assert_eq!((snap.released, snap.delayed, snap.largest), (3, 5, 9));
        let names: Vec<_> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "test.atomic.released",
                "test.atomic.delayed",
                "test.atomic.largest"
            ]
        );
    }

    #[test]
    fn keyed_bump_get_and_label() {
        let mut k = Keyed::default();
        k.bump(Key::Probes, 2);
        k.bump(Key::Probes, 3);
        assert_eq!((k.get(Key::Nacks), k.get(Key::Probes)), (0, 5));
        assert_eq!(k.probes, 5);
        assert_eq!(
            (Key::Nacks.label(), Key::Probes.label()),
            ("nacks", "probes")
        );
        let mut sum = k;
        sum.add(&k);
        assert_eq!(
            sum.iter().collect::<Vec<_>>(),
            [("test.keyed.nacks", 0), ("test.keyed.probes", 10)]
        );
    }
}
