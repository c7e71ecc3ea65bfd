//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map` / `prop_recursive`
//! / `boxed`, range and regex-subset string strategies, `Just`, tuples,
//! `collection::vec`, `option::of`, `sample::select`, `any::<T>()`,
//! [`Union`] behind `prop_oneof!`, and the `proptest!` /
//! `prop_assert*!` macros.
//!
//! Differences from real proptest, deliberate for an offline shim:
//! - generation is seeded deterministically per test run (no persistence
//!   files, `.proptest-regressions` are ignored);
//! - failing cases are **not shrunk** — the first failing input is
//!   reported as-is by the underlying `assert!`;
//! - string strategies support only the regex subset actually used here:
//!   `.*` and `[class]{m,n}`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::rc::Rc;

pub mod test_runner {
    use super::{SeedableRng, StdRng};

    /// Deterministic RNG driving all strategies in a test.
    pub type TestRng = StdRng;

    /// Creates the per-test RNG. Fixed seed: property tests here are
    /// reproducible CI checks, not a fuzzing campaign.
    pub fn new_rng() -> TestRng {
        StdRng::seed_from_u64(0x5eed_cafe_f00d_0001)
    }

    /// Subset of proptest's run configuration: the case count.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per test function.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }
}

use test_runner::TestRng;

/// A generator of values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Builds a recursive strategy: `self` is the leaf case and `recurse`
    /// wraps the strategy-so-far into deeper cases, applied `depth`
    /// times. `desired_size`/`expected_branch_size` are accepted for
    /// signature compatibility; depth alone bounds recursion here.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            // Bias toward leaves (2:1) so generated trees stay small.
            current = Union::new(vec![
                leaf.clone(),
                leaf.clone(),
                recurse(current).boxed(),
            ])
            .boxed();
        }
        current
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

/// Object-safe view of [`Strategy`] for type erasure.
trait DynStrategy<V> {
    fn generate_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A clonable, type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: Rc<dyn DynStrategy<V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among same-valued strategies (backs `prop_oneof!`).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over `options`; panics if empty.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "Union requires at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! range_strategy_impls {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f64);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`any`].
    type Strategy: Strategy<Value = Self>;

    /// The full-range strategy for this type.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-range generator for primitives (backs [`Arbitrary`]).
pub struct ArbitraryPrimitive<T> {
    _marker: std::marker::PhantomData<T>,
}

macro_rules! arbitrary_impls {
    ($($t:ty),*) => {$(
        impl Strategy for ArbitraryPrimitive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen::<$t>()
            }
        }

        impl Arbitrary for $t {
            type Strategy = ArbitraryPrimitive<$t>;

            fn arbitrary() -> Self::Strategy {
                ArbitraryPrimitive { _marker: std::marker::PhantomData }
            }
        }
    )*};
}

arbitrary_impls!(bool, u8, u32, u64, i64, f64);

macro_rules! tuple_strategy_impls {
    ($( ($($name:ident . $idx:tt),+) )+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($( self.$idx.generate(rng), )+)
            }
        }
    )+};
}

tuple_strategy_impls! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

pub mod collection {
    use super::{Range, Strategy, TestRng};
    use rand::Rng;
    use std::ops::RangeInclusive;

    /// An inclusive length range for [`vec`].
    #[derive(Clone, Debug)]
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
            assert!(r.end > r.start, "empty length range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Generates `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Yields `None` half the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Uniformly picks one of the given values.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    /// See [`select`].
    #[derive(Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].clone()
        }
    }
}

// ---- regex-subset string strategies ----

/// `&'static str` patterns act as string strategies, like in real
/// proptest, for the subset `.*` and `[class]{m,n}`.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    if pattern == ".*" {
        // Arbitrary short strings over a deliberately hostile alphabet
        // (quotes, separators, newlines, non-ASCII) for fuzz tests.
        const HOSTILE: &[char] = &[
            'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '\t', '\n', '\r', ',', ';', '"', '\'', '\\',
            '(', ')', '[', ']', '{', '}', '<', '>', '=', '+', '-', '*', '/', '.', '_', ':', '#',
            '|', '&', '!', '%', '@', '~', '`', '^', '?', '$', 'é', 'λ', '€', '🦀', '\u{0}',
        ];
        let len = rng.gen_range(0usize..=12);
        (0..len)
            .map(|_| HOSTILE[rng.gen_range(0..HOSTILE.len())])
            .collect()
    } else if let Some(spec) = parse_class_pattern(pattern) {
        let len = rng.gen_range(spec.min_len..=spec.max_len);
        (0..len)
            .map(|_| spec.chars[rng.gen_range(0..spec.chars.len())])
            .collect()
    } else {
        panic!(
            "string strategy stand-in supports only `.*` and `[class]{{m,n}}`, got {pattern:?}"
        );
    }
}

struct ClassSpec {
    chars: Vec<char>,
    min_len: usize,
    max_len: usize,
}

/// Parses `[class]{m,n}` where class members are literal chars, `\x`
/// escapes, and `a-z` ranges (a trailing `-` is literal).
fn parse_class_pattern(pattern: &str) -> Option<ClassSpec> {
    let rest = pattern.strip_prefix('[')?;
    // Find the closing bracket, honoring backslash escapes.
    let mut class = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        match chars.next()? {
            ']' => break,
            '\\' => {
                let c = chars.next()?;
                class.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                });
            }
            c => class.push(c),
        }
    }
    // Expand `a-z` ranges over the collected literal chars.
    let mut expanded = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if class[i] == '-' && i > 0 && i + 1 < class.len() {
            // Range: extend from the previously pushed char.
            let start = *expanded.last()?;
            let end = class[i + 1];
            let (lo, hi) = (start as u32 + 1, end as u32);
            for code in lo..=hi {
                expanded.push(char::from_u32(code)?);
            }
            i += 2;
        } else {
            expanded.push(class[i]);
            i += 1;
        }
    }
    if expanded.is_empty() {
        return None;
    }
    // Parse the `{m,n}` repetition.
    let rep: String = chars.collect();
    let rep = rep.strip_prefix('{')?.strip_suffix('}')?;
    let (m, n) = rep.split_once(',')?;
    let min_len = m.trim().parse().ok()?;
    let max_len = n.trim().parse().ok()?;
    if min_len > max_len {
        return None;
    }
    Some(ClassSpec {
        chars: expanded,
        min_len,
        max_len,
    })
}

// ---- macros ----

/// Uniform choice among listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Assertion inside a property (no shrinking; plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property test functions: each runs its body for `cases`
/// generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let mut __rng = $crate::test_runner::new_rng();
                for __case in 0..__config.cases {
                    let _ = __case;
                    $(
                        let $pat = $crate::Strategy::generate(&($strategy), &mut __rng);
                    )+
                    // Bodies may `return Ok(())` early, as in real
                    // proptest, so run them in a Result-returning closure.
                    // The closure is what lets them return, so clippy's
                    // redundant_closure_call does not apply.
                    #[allow(unreachable_code, clippy::redundant_closure_call)]
                    let __outcome: ::std::result::Result<(), ::std::string::String> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(__msg) = __outcome {
                        panic!("property case failed: {__msg}");
                    }
                }
            }
        )*
    };
}

pub mod prelude {
    //! The usual glob import for property tests.

    pub use crate as prop;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_maps_generate() {
        let mut rng = crate::test_runner::new_rng();
        let strat = (0i64..10, prop::sample::select(vec!["a", "b"]))
            .prop_map(|(n, s)| format!("{s}{n}"));
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            assert!(v.starts_with('a') || v.starts_with('b'));
            let n: i64 = v[1..].parse().unwrap();
            assert!((0..10).contains(&n));
        }
    }

    #[test]
    fn class_patterns_generate_within_spec() {
        let mut rng = crate::test_runner::new_rng();
        for _ in 0..100 {
            let s = "[a-c,\n]{1,4}".generate(&mut rng);
            assert!(!s.is_empty() && s.chars().count() <= 4);
            assert!(s.chars().all(|c| matches!(c, 'a'..='c' | ',' | '\n')));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        let strat = (0i64..5).prop_map(Tree::Leaf).prop_recursive(3, 16, 2, |inner| {
            prop::collection::vec(inner, 0..3).prop_map(Tree::Node)
        });
        let mut rng = crate::test_runner::new_rng();
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => {
                    assert!((0..5).contains(v), "leaf {v} outside its strategy");
                    1
                }
                Tree::Node(children) => {
                    1 + children.iter().map(depth).max().unwrap_or(0)
                }
            }
        }
        for _ in 0..50 {
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_declares_runnable_properties(n in 0u64..100, flag in any::<bool>()) {
            prop_assert!(n < 100);
            let _ = flag;
        }
    }

    #[test]
    fn macro_cases_run() {
        macro_declares_runnable_properties();
    }
}
