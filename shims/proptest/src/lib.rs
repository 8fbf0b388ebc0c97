//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses: the
//! [`Strategy`] trait with `prop_map` / `prop_filter` / `prop_filter_map`,
//! range and tuple strategies, [`any`], [`Just`], `collection::vec`, the
//! `proptest!` / `prop_assert!` / `prop_assert_eq!` / `prop_assume!`
//! macros, and a deterministic case runner (default 64 cases, override
//! with `PROPTEST_CASES`). Cases are seeded from the test name, mixed
//! with `PROPTEST_SEED` when it is set, so a run with a fresh seed draws
//! fresh inputs. No shrinking: a failing case reports its seed and index
//! but is not minimized.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Outcome of a single generated test case.
#[derive(Debug)]
pub enum TestCaseError {
    /// A `prop_assert!` failed — the property is violated.
    Fail(String),
    /// A `prop_assume!` failed — the case does not apply and is skipped.
    Reject(String),
}

/// Value generator. Unlike real proptest there is no value tree; filters
/// retry generation instead of shrinking.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F>(self, whence: impl Into<String>, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence: whence.into(),
            f,
        }
    }

    fn prop_filter_map<U, F>(self, whence: impl Into<String>, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap {
            inner: self,
            whence: whence.into(),
            f,
        }
    }
}

/// How many times a filtering strategy retries before giving up. High on
/// purpose: rejection-heavy strategies (e.g. "nonzero axis") stay cheap
/// because each retry is just another PRNG draw.
const FILTER_RETRIES: usize = 10_000;

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct Filter<S, F> {
    inner: S,
    whence: String,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter '{}' rejected every candidate", self.whence);
    }
}

pub struct FilterMap<S, F> {
    inner: S,
    whence: String,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        for _ in 0..FILTER_RETRIES {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map '{}' rejected every candidate", self.whence);
    }
}

/// Strategy yielding one constant value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.random_range(self.start..self.end)
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.random_range(*self.start()..=*self.end())
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A / 0);
impl_tuple_strategy!(A / 0, B / 1);
impl_tuple_strategy!(A / 0, B / 1, C / 2);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Types with a default "anything goes" strategy, via `any::<T>()`.
pub trait Arbitrary: Sized {
    fn arbitrary_value(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary_value(rng: &mut StdRng) -> $t {
                rng.random::<$t>()
            }
        }
    )+};
}

impl_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary_value(rng)
    }
}

/// The `any::<T>()` entry point from `proptest::prelude`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.start + 1 >= self.size.end {
                self.size.start
            } else {
                rng.random_range(self.size.start..self.size.end)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

fn case_count() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The RNG seed of a property: the FNV hash of its name, mixed with
/// `PROPTEST_SEED` when that is set (unset, the cases are the same on
/// every run).
fn seed_for(name: &str, env_seed: Option<&str>) -> u64 {
    let h = fnv1a(name);
    env_seed.map_or(h, |s| h ^ fnv1a(s).rotate_left(17))
}

/// Drives one property: generates cases until `cases` pass, skipping
/// rejected ones, panicking on the first failure with the seed and the
/// case index. Deterministic for a given name and `PROPTEST_SEED`.
pub fn run_cases<F>(name: &str, mut case: F)
where
    F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
{
    let cases = case_count();
    let env_seed = std::env::var("PROPTEST_SEED").ok();
    let seed = seed_for(name, env_seed.as_deref());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut passed = 0u64;
    let mut rejected = 0u64;
    while passed < cases {
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected < cases * 32 + 1024,
                    "proptest '{name}': too many rejected cases ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => panic!(
                "proptest '{name}' failed after {passed} passing cases \
                 (case {}, seed {seed:#018x}, PROPTEST_SEED={}): {msg}",
                passed + rejected,
                env_seed.as_deref().unwrap_or("unset"),
            ),
        }
    }
}

#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), |prop_rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), prop_rng);)+
                    (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })()
                });
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {} at {}:{}", stringify!($cond), file!(), line!()),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("{} at {}:{}", format!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        if lhs != rhs {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) at {}:{}",
                stringify!($lhs),
                stringify!($rhs),
                lhs,
                rhs,
                file!(),
                line!(),
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let lhs = $lhs;
        let rhs = $rhs;
        if lhs == rhs {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} != {} (both: {:?}) at {}:{}",
                stringify!($lhs),
                stringify!($rhs),
                lhs,
                file!(),
                line!(),
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u32> {
        (0u32..1000).prop_filter_map("even", |n| if n % 2 == 0 { Some(n) } else { None })
    }

    proptest! {
        #[test]
        fn ranges_and_tuples(x in -1.0f32..1.0, (a, b) in (0u32..10, 5u64..6)) {
            prop_assert!((-1.0..1.0).contains(&x));
            prop_assert!(a < 10);
            prop_assert_eq!(b, 5);
        }

        #[test]
        fn vec_lengths(bytes in crate::collection::vec(any::<u8>(), 3..7)) {
            prop_assert!(bytes.len() >= 3 && bytes.len() < 7);
        }

        #[test]
        fn filter_map_applies(n in arb_even()) {
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn assume_rejects(n in 0u32..10) {
            prop_assume!(n < 8);
            prop_assert!(n < 8);
        }
    }

    #[test]
    fn env_seed_varies_the_cases_and_its_absence_does_not() {
        let name = "some_property";
        assert_eq!(crate::seed_for(name, None), crate::fnv1a(name));
        let (a, b) = (
            crate::seed_for(name, Some("1")),
            crate::seed_for(name, Some("2")),
        );
        assert!(a != b && a != crate::fnv1a(name) && b != crate::fnv1a(name));
    }

    #[test]
    #[should_panic(expected = "failed after 0 passing cases (case 0, seed 0x")]
    fn failing_property_panics() {
        crate::run_cases("always_fails", |_rng| {
            Err(crate::TestCaseError::Fail("nope".into()))
        });
    }
}
