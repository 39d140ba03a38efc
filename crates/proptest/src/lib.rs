//! Offline drop-in subset of the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of the proptest API its test suites use: the
//! [`Strategy`] trait with `prop_map`, range and tuple strategies,
//! [`prop::collection::vec`], [`any`], `prop_oneof!`, and the
//! `proptest!`/`prop_assert!` macros.
//!
//! Unlike the real crate there is no shrinking: a failing case reports its
//! deterministic case index, and because generation is a pure function of
//! `(test name, case index)` every failure replays exactly. Case count
//! defaults to 64 and can be raised with the `PROPTEST_CASES` environment
//! variable.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

/// Number of cases each property runs (`PROPTEST_CASES` overrides; default
/// 64).
#[expect(
    clippy::disallowed_methods,
    reason = "the case count changes how many cases a property runs, never what a case computes"
)]
pub fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Deterministic per-case random source (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator for one `(test, case)` pair. The seed is a pure function
    /// of both, so failures replay bit-for-bit.
    pub fn for_case(test_name: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> std::fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Uniform choice among several strategies of one value type (the
/// `prop_oneof!` backend).
#[derive(Debug, Clone)]
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union of the given arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// A strategy that always yields clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Full-domain strategy for a primitive (see [`any`]).
#[derive(Debug, Clone)]
pub struct AnyOf<T>(PhantomData<T>);

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws from the type's whole domain.
    fn arbitrary_value(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for AnyOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary_value(rng)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary_value(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary_value(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The full-domain strategy for `T` (e.g. `any::<u64>()`).
pub fn any<T: Arbitrary>() -> AnyOf<T> {
    AnyOf(PhantomData)
}

/// Strategy namespaces mirroring the real crate's `prop::` module.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Lengths a [`vec()`] strategy may produce: a fixed size or a
        /// half-open range.
        pub trait IntoSizeRange {
            /// Draws a concrete length.
            fn pick_len(&self, rng: &mut TestRng) -> usize;
        }

        impl IntoSizeRange for usize {
            fn pick_len(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl IntoSizeRange for Range<usize> {
            fn pick_len(&self, rng: &mut TestRng) -> usize {
                assert!(self.start < self.end, "empty size range");
                self.start + rng.below((self.end - self.start) as u64) as usize
            }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.pick_len(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// A `Vec` whose elements come from `element` and whose length comes
        /// from `len` (a fixed `usize` or a `Range<usize>`).
        pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }
    }
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{Arbitrary, BoxedStrategy, Just, Strategy};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Each property runs [`cases`] deterministic cases; a failure reports the
/// case index, and the same index always regenerates the same inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                for case in 0..$crate::cases() {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| $body),
                    );
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest: {} failed at case {case} (deterministic; rerun reproduces)",
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

/// `assert!` under a name the real proptest API uses.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a name the real proptest API uses.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Uniform choice among strategies producing one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let x = (3u32..7).generate(&mut rng);
            assert!((3..7).contains(&x));
            let f = (-1.0f32..1.0).generate(&mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn determinism_per_case() {
        let s = prop::collection::vec(0u64..1000, 1..20);
        let a = s.generate(&mut crate::TestRng::for_case("d", 7));
        let b = s.generate(&mut crate::TestRng::for_case("d", 7));
        assert_eq!(a, b);
        let c = s.generate(&mut crate::TestRng::for_case("d", 8));
        assert_ne!(a, c, "different cases should (overwhelmingly) differ");
    }

    proptest! {
        #[test]
        fn macro_generates_and_runs(xs in prop::collection::vec(0u32..5, 0..10), flag in any::<bool>()) {
            prop_assert!(xs.len() < 10);
            prop_assert!(xs.iter().all(|&x| x < 5));
            let _ = flag;
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u32..5).prop_map(|x| x as u64),
            any::<bool>().prop_map(|b| if b { 100 } else { 200 }),
        ]) {
            prop_assert!(v < 5 || v == 100 || v == 200);
        }
    }
}
