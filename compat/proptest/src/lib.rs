//! Offline stand-in for `proptest`.
//!
//! Implements the property-testing surface this workspace uses — the
//! [`proptest!`] macro, [`strategy::Strategy`] with
//! `prop_map`/`prop_flat_map`/`prop_filter`/`prop_recursive`, range and
//! tuple strategies, a tiny character-class string strategy,
//! [`collection::vec`], [`Just`], `prop_oneof!`, and
//! `any::<T>()` — as a plain deterministic random-case runner.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports the panic from the test
//!   body directly (the case's inputs appear in assertion messages).
//! * **Deterministic seeding.** Each test function derives its RNG seed
//!   from its module path and name, so failures reproduce exactly and
//!   CI runs are stable.
//! * `prop_assert!`/`prop_assert_eq!` panic immediately instead of
//!   returning `Err(TestCaseError)`.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Strategies for collections (only `vec` is provided).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Size specification for [`vec()`]: an exact `usize`, a `Range`, or a
    /// `RangeInclusive`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(strategy, len)` lookalike.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.max - self.size.min + 1;
            let len = self.size.min + (rng.next_u64() % span as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "anything goes" strategy.
    pub trait ArbitraryValue: Sized {
        fn arbitrary_from(rng: &mut TestRng) -> Self;
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<fn() -> T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<T> Copy for Any<T> {}

    impl<T> std::fmt::Debug for Any<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("any")
        }
    }

    /// `proptest::prelude::any::<T>()` lookalike.
    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_from(rng)
        }
    }

    impl ArbitraryValue for bool {
        fn arbitrary_from(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl ArbitraryValue for $t {
                fn arbitrary_from(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl ArbitraryValue for f64 {
        fn arbitrary_from(rng: &mut TestRng) -> f64 {
            // Finite, well-spread values; the workspace's properties are
            // about numerics, not NaN plumbing.
            let mag = rng.unit_f64() * 1e6 - 5e5;
            if rng.next_u64() & 7 == 0 {
                mag / 1e9
            } else {
                mag
            }
        }
    }

    impl ArbitraryValue for f32 {
        fn arbitrary_from(rng: &mut TestRng) -> f32 {
            f64::arbitrary_from(rng) as f32
        }
    }

    impl ArbitraryValue for char {
        fn arbitrary_from(rng: &mut TestRng) -> char {
            // Printable ASCII keeps renderer round-trips honest.
            (b' ' + (rng.next_u64() % 95) as u8) as char
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union, ValueTree};
    pub use crate::test_runner::{ProptestConfig, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use arbitrary::any;
pub use strategy::Just;

/// `prop_assert!` that panics on failure (no `TestCaseError` channel).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `prop_assert_eq!` that panics on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `prop_assert_ne!` that panics on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// The property-test entry macro: generates a plain `#[test]` fn per
/// property that runs `ProptestConfig::cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __runner = $crate::test_runner::TestRunner::deterministic_for(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__config.cases {
                    let ($($pat,)*) = (
                        $($crate::strategy::Strategy::generate(&($strat), __runner.rng()),)*
                    );
                    $body
                }
            }
        )*
    };
}
