//! Offline stand-in for [proptest](https://docs.rs/proptest).
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the slice of the proptest API the workspace's property suites use:
//!
//! * [`Strategy`](strategy::Strategy) with `prop_map`, `prop_recursive`
//!   and `boxed`, implemented for integer ranges and strategy tuples;
//! * [`collection::vec`] and [`bool::ANY`];
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`] and [`prop_assert_ne!`] macros.
//!
//! Semantics differ from real proptest in one honest way: there is no
//! shrinking — a failing case reports the case number and message only.
//! Generation is deterministic per test (seeded from the test name), so
//! failures reproduce exactly under `cargo test`.

#![warn(missing_docs)]

/// Test-runner scaffolding: config, RNG, case errors.
pub mod test_runner {
    /// Per-suite configuration (`cases` = generated inputs per test).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Number of random cases each `#[test]` runs.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` inputs per test.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Deterministic SplitMix64 RNG used for case generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test name (FNV-1a hash), so every
        /// test gets a distinct, stable stream.
        pub fn from_name(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, n)`.
        pub fn below(&mut self, n: usize) -> usize {
            assert!(n > 0, "below: empty range");
            (self.next_u64() % n as u64) as usize
        }
    }

    /// A failed property case (no shrinking in the shim).
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure from a message.
        pub fn fail(message: String) -> TestCaseError {
            TestCaseError { message }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (cheaply clonable).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// Builds a recursive strategy: `self` is the leaf; `recurse`
        /// wraps a strategy for depth `k` into one for depth `k+1`. The
        /// `_desired_size` / `_expected_branch` hints are accepted for
        /// API compatibility and ignored.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf = self.boxed();
            let mut cur = leaf.clone();
            for _ in 0..depth {
                cur = Union::new(vec![leaf.clone(), recurse(cur).boxed()]).boxed();
            }
            cur
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased, clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

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

    /// Uniform choice among boxed strategies (backs [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options` (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "Union: no options");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len());
            self.options[i].generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "range strategy: empty range");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    self.start + ((rng.next_u64() as u128) % span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "range strategy: empty range");
                    let span = (hi as u128) - (lo as u128) + 1;
                    lo + ((rng.next_u64() as u128) % span) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
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
}

/// Boolean strategies.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy type behind [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Uniform `true` / `false`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "vec size: empty range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "vec size: empty range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Output of [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates `Vec`s of `elem`-generated values with length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi - self.size.lo + 1;
            let len = self.size.lo + rng.below(span);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Glob-import surface mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// item becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for __case in 0..__config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!("property `{}` failed at case {}: {}", stringify!($name), __case, e);
                }
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}

/// Property-test assertion: fails the current case (not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion for property tests.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{:?}` != `{:?}`", __l, __r
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$a, &$b);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?}` != `{:?}`: {}", __l, __r, format!($($fmt)+)),
            ));
        }
    }};
}

/// Inequality assertion for property tests.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{:?}` == `{:?}`", __l, __r
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_vecs_respect_bounds() {
        let mut rng = TestRng::from_name("bounds");
        let s = crate::collection::vec(0..5u32, 2..=4);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..=4).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Clone, Debug)]
        #[allow(dead_code)] // payloads exist only to exercise generation
        enum T {
            Leaf(u32),
            Node(Vec<T>),
        }
        let s = (0..10u32).prop_map(T::Leaf).prop_recursive(3, 24, 3, |inner| {
            crate::collection::vec(inner, 1..=3).prop_map(T::Node)
        });
        let mut rng = TestRng::from_name("recursive");
        for _ in 0..100 {
            let _ = s.generate(&mut rng);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline works end to end.
        #[test]
        fn macro_roundtrip(a in 0..100u32, b in 1..=5usize, flag in crate::bool::ANY) {
            prop_assert!(a < 100);
            prop_assert!((1..=5).contains(&b));
            prop_assert_eq!(flag, flag);
            prop_assert_ne!(b, 0);
        }
    }
}
