//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal property-testing harness exposing the
//! proptest API surface it actually uses: the [`proptest!`] macro with an
//! optional `#![proptest_config(...)]` header, `prop_assert!` /
//! `prop_assert_eq!`, range and tuple [`Strategy`]s, `prop_map`,
//! [`collection::vec`], and a deterministic
//! [`test_runner::TestRunner`].
//!
//! Differences from real proptest: generation is always deterministic
//! (seeded from the test-local case counter, so each property still sees
//! a spread of inputs), and failing cases are reported without
//! shrinking. Properties hold universally, so neither difference affects
//! pass/fail behaviour.

use rand::rngs::SmallRng;
use rand::Rng;

/// Strategy combinators and the core generation trait.
pub mod strategy {
    use super::SmallRng;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut SmallRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn generate(&self, rng: &mut SmallRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut SmallRng) -> T {
            self.0.clone()
        }
    }
}

pub use strategy::Strategy;

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(f64, f32, usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Strategies over collections.
pub mod collection {
    use super::{SmallRng, Strategy};
    use rand::Rng;

    /// Number-of-elements specification for [`vec()`]: an exact count or a
    /// half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy producing `Vec`s of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The case runner and its configuration/error types.
pub mod test_runner {
    use super::Strategy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::fmt;

    /// How many cases each property runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A single failing case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure with the given message (used by the
        /// `prop_assert*` macros).
        #[must_use]
        pub fn fail(msg: String) -> Self {
            TestCaseError(msg)
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// A failed property run.
    #[derive(Debug, Clone)]
    pub struct TestError(String);

    impl fmt::Display for TestError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestError {}

    /// Drives a property over `cases` generated inputs.
    pub struct TestRunner {
        rng: SmallRng,
        cases: u32,
    }

    impl TestRunner {
        /// A runner with the given config (deterministically seeded).
        #[must_use]
        pub fn new(config: Config) -> Self {
            TestRunner {
                rng: SmallRng::seed_from_u64(0x0AB0_5EED_BA5E_0001),
                cases: config.cases,
            }
        }

        /// A deterministically seeded runner with the default config.
        #[must_use]
        pub fn deterministic() -> Self {
            Self::new(Config::default())
        }

        /// Runs `test` on `cases` values drawn from `strategy`, stopping
        /// at the first failure.
        ///
        /// # Errors
        ///
        /// Returns a [`TestError`] describing the first failing case.
        pub fn run<S, F>(&mut self, strategy: &S, mut test: F) -> Result<(), TestError>
        where
            S: Strategy,
            F: FnMut(S::Value) -> Result<(), TestCaseError>,
        {
            for case in 0..self.cases {
                let value = strategy.generate(&mut self.rng);
                if let Err(e) = test(value) {
                    return Err(TestError(format!("property failed at case #{case}: {e}")));
                }
            }
            Ok(())
        }
    }
}

/// The glob-import surface: traits, config, and macros.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut __runner = $crate::test_runner::TestRunner::new($cfg);
            let __result = __runner.run(&($($strat,)+), |($($arg,)+)| {
                $body
                ::std::result::Result::Ok(())
            });
            if let ::std::result::Result::Err(__e) = __result {
                ::std::panic!("{}", __e);
            }
        }
    )*};
}

/// Asserts a condition inside a property, failing the case (not the whole
/// process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", ::std::stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__left, __right) => {
                if !(*__left == *__right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!(
                            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                            __left,
                            __right
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__left, __right) => {
                if !(*__left == *__right) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!($($fmt)+),
                    ));
                }
            }
        }
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__left, __right) => {
                if *__left == *__right {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        ::std::format!(
                            "assertion failed: `(left != right)`\n  both: `{:?}`",
                            __left
                        ),
                    ));
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_stay_in_bounds(x in -2.0..3.0_f64, n in 1usize..10) {
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n), "n = {n}");
        }

        #[test]
        fn vec_respects_size(v in crate::collection::vec(0.0..1.0_f64, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
        }

        #[test]
        fn exact_vec_size_and_map(
            v in crate::collection::vec(0u64..100, 7).prop_map(|v| v.len()),
        ) {
            prop_assert_eq!(v, 7);
        }
    }

    #[test]
    fn failing_property_reports_error() {
        let mut runner = crate::test_runner::TestRunner::deterministic();
        let result = runner.run(&(0usize..10,), |(n,)| {
            prop_assert!(n < 5, "saw {n}");
            Ok(())
        });
        assert!(result.is_err());
    }

    #[test]
    fn deterministic_runs_repeat() {
        let collect = || {
            let mut runner = crate::test_runner::TestRunner::deterministic();
            let mut seen = Vec::new();
            runner
                .run(&(0.0..1.0_f64,), |(x,)| {
                    seen.push(x);
                    Ok(())
                })
                .unwrap();
            seen
        };
        assert_eq!(collect(), collect());
    }
}
