//! The [`counters!`](crate::counters) table macro: a counter group is
//! declared once, one row per metric, and everything that has to know
//! the metric's name is generated from that row.

/// Declares a counter group from a table — one row per metric: its
/// doc line, its field name and, where events are recorded through a
/// method rather than by `+=` on the field, the recorder's name.
///
/// The group is a `Copy` plain-data struct of public `u64` fields (so
/// a copy of it *is* its snapshot) with, per row, a getter named after
/// the field and the recorder if one is declared (`=> name` adds one,
/// `=> name(n)` adds `n`), plus `NAMES`, `values()`, `from_values()`,
/// `merge()` and `since()`. A row marked `: max` is a level rather
/// than a count: `merge` keeps the larger side and `since` reports it
/// as it stands.
///
/// ```
/// thinc_telemetry::counters! {
///     /// What one door saw.
///     pub struct DoorStats {
///         /// Times the door opened.
///         opened => record_open,
///         /// People who went through.
///         people => record_people(n),
///         /// Most people waiting at once.
///         queue_peak: max,
///     }
/// }
///
/// let mut d = DoorStats::default();
/// d.record_open();
/// d.record_people(3);
/// d.queue_peak = 2;
/// assert_eq!(DoorStats::NAMES, ["opened", "people", "queue_peak"]);
/// assert_eq!(d.values(), [1, 3, 2]);
/// assert_eq!(d.people(), 3);
///
/// let earlier = d;
/// d.record_open();
/// assert_eq!(d.since(&earlier), DoorStats { opened: 1, people: 0, queue_peak: 2 });
/// d.merge(&earlier);
/// assert_eq!(d.values(), [3, 6, 2]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$doc:meta])+
                $field:ident $(: $kind:ident)? $(=> $record:ident $(($n:ident))?)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$doc])+ pub $field: u64,)+
        }

        impl $name {
            /// Number of rows in the table.
            pub const LEN: usize = [$(stringify!($field)),+].len();

            /// Every field name, in declaration order.
            pub const NAMES: [&'static str; Self::LEN] = [$(stringify!($field)),+];

            /// Every value, in declaration order (parallel to `NAMES`).
            pub fn values(&self) -> [u64; Self::LEN] {
                [$(self.$field),+]
            }

            /// The group holding `values` (the inverse of `values()`).
            pub fn from_values(values: [u64; Self::LEN]) -> Self {
                let [$($field),+] = values;
                Self { $($field),+ }
            }

            /// Adds `other` into this group, row by row.
            pub fn merge(&mut self, other: &Self) {
                $($crate::counters!(@merge $($kind)?, self.$field, other.$field);)+
            }

            /// What was counted since `base`, an earlier copy of this
            /// group.
            pub fn since(&self, base: &Self) -> Self {
                Self { $($field: $crate::counters!(@since $($kind)?, self.$field, base.$field)),+ }
            }

            $(
                $(#[$doc])+
                pub fn $field(&self) -> u64 {
                    self.$field
                }
                $crate::counters!(@recorder [$(#[$doc])+] $field $(=> $record $(($n))?)?);
            )+
        }
    };
    (@merge, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@since, $a:expr, $b:expr) => { $a - $b };
    (@since max, $a:expr, $b:expr) => { $a };
    (@recorder [$($doc:tt)+] $field:ident) => {};
    (@recorder [$($doc:tt)+] $field:ident => $record:ident) => {
        $($doc)+
        pub fn $record(&mut self) {
            self.$field += 1;
        }
    };
    (@recorder [$($doc:tt)+] $field:ident => $record:ident($n:ident)) => {
        $($doc)+
        pub fn $record(&mut self, $n: u64) {
            self.$field += $n;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{BufferStats, ClientStats, PlaneCounters, ResilienceMetrics, TranslatorStats};

    crate::counters! {
        /// Every row shape the macro accepts.
        struct Shapes {
            /// A bare row.
            bare,
            /// A row with an increment recorder.
            stepped => record_step,
            /// A row with an adding recorder.
            added => record_added(n),
            /// A level.
            level: max,
        }
    }

    /// The laws every generated group obeys, checked row by row. (The
    /// tables other crates declare are expansions of the same macro;
    /// duplicate names cannot compile, being duplicate fields.)
    macro_rules! check_laws {
        ($($group:ty [$($level:literal),*]),+ $(,)?) => {$({
            type G = $group;
            let levels: &[&str] = &[$($level),*];
            let mut names = G::NAMES.to_vec();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), G::LEN, "{} repeats a name", stringify!($group));
            let full = G::from_values(std::array::from_fn(|i| 100 + i as u64));
            for i in 0..G::LEN {
                let mut v = [0u64; G::LEN];
                v[i] = 7;
                let one = G::from_values(v);
                assert_eq!(one.values(), v, "{}.{}", stringify!($group), G::NAMES[i]);
                assert_ne!(one, G::default());
                let mut sum = full;
                sum.merge(&one);
                let is_level = levels.contains(&G::NAMES[i]);
                let mut expect = full.values();
                expect[i] = if is_level { 100 + i as u64 } else { 107 + i as u64 };
                assert_eq!(sum.values(), expect, "merge of {}", G::NAMES[i]);
                if !is_level {
                    assert_eq!(sum.since(&one), full, "since of {}", G::NAMES[i]);
                }
            }
            let mut none = G::default();
            none.merge(&G::default());
            assert_eq!(none, G::default());
            assert_eq!(full.since(&full).values().iter().filter(|&&v| v != 0).count(), levels.len());
        })+};
    }

    #[test]
    fn every_group_obeys_the_table_laws() {
        check_laws!(
            Shapes ["level"],
            ResilienceMetrics ["degradation_level", "max_degradation_level"],
            BufferStats [],
            TranslatorStats [],
            ClientStats [],
            PlaneCounters [],
        );
    }

    #[test]
    fn getters_and_recorders_address_their_own_row() {
        let mut s = Shapes::default();
        s.record_step();
        s.record_added(5);
        s.record_added(2);
        s.level = 3;
        assert_eq!(Shapes::NAMES, ["bare", "stepped", "added", "level"]);
        assert_eq!(s.values(), [0, 1, 7, 3]);
        assert_eq!((s.bare(), s.stepped(), s.added(), s.level()), (0, 1, 7, 3));
        let mut r = ResilienceMetrics::new();
        r.record_reconnect();
        r.record_cache_evictions(4);
        let at = |name| ResilienceMetrics::NAMES.iter().position(|n| *n == name).unwrap();
        assert_eq!(r.values()[at("reconnects")], 1);
        assert_eq!(r.values()[at("cache_evictions")], 4);
        assert_eq!(r.values().iter().sum::<u64>(), 5);
    }
}
