//! Offline-compatible subset of the `proptest` API.
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of proptest it uses: the [`proptest!`] test macro, range and
//! `any::<T>()` strategies, `prop_map`, [`prop_oneof!`], tuple and
//! collection strategies, and a tiny `[class]{m,n}` regex string strategy.
//!
//! Differences from upstream, deliberately accepted:
//! - **No shrinking.** A failing case panics with the generated inputs
//!   visible in the assertion message rather than a minimized example.
//! - **Deterministic by construction.** Each test's RNG is seeded from a
//!   hash of the test function's name, so runs are reproducible without a
//!   `proptest-regressions` directory.
//! - Values are drawn uniformly (no edge-case biasing).

pub mod strategy {
    /// Deterministic splitmix64 generator used to drive all strategies.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from a test name.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name, folded into a non-zero seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h | 1,
            }
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform float in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// A generator of values for property tests.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                inner: Box::new(self),
            }
        }
    }

    /// Object-safe view of [`Strategy`], used by [`Union`] and
    /// [`BoxedStrategy`].
    pub trait DynStrategy<V> {
        /// Draw one value through the erased strategy.
        fn generate_dyn(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A boxed, type-erased strategy.
    pub struct BoxedStrategy<V> {
        inner: Box<dyn DynStrategy<V>>,
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.inner.generate_dyn(rng)
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
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

    /// Choice between several strategies with the same value type; built
    /// by [`crate::prop_oneof!`].
    pub struct Union<V> {
        arms: Vec<Box<dyn DynStrategy<V>>>,
    }

    impl<V> Union<V> {
        /// Build from a non-empty arm list.
        pub fn new(arms: Vec<Box<dyn DynStrategy<V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let pick = rng.below(self.arms.len() as u64) as usize;
            self.arms[pick].generate_dyn(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (lo as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    /// Marker strategy returned by [`crate::arbitrary::any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Any<T> {
        pub(crate) fn new() -> Self {
            Any {
                _marker: std::marker::PhantomData,
            }
        }
    }

    macro_rules! any_uint {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            // Always-finite doubles across a wide magnitude span.
            let mag = rng.next_f64() * 2.0 - 1.0;
            let exp = rng.below(60) as i32 - 30;
            mag * 2f64.powi(exp)
        }
    }

    impl Strategy for Any<char> {
        type Value = char;
        fn generate(&self, rng: &mut TestRng) -> char {
            // Printable ASCII keeps generated strings debuggable.
            (0x20 + rng.below(0x5f) as u8) as char
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }

    /// `&'static str` regex-style strategy: supports patterns of the form
    /// `[class]{m,n}` (char class with ranges and `\`-escapes, repeated a
    /// uniform length in `m..=n`). Any other pattern generates itself
    /// literally.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            match parse_class_repeat(self) {
                Some((chars, lo, hi)) => {
                    let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                    (0..len)
                        .map(|_| chars[rng.below(chars.len() as u64) as usize])
                        .collect()
                }
                None => (*self).to_string(),
            }
        }
    }

    fn parse_class_repeat(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pattern.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < class.len() {
            match class[i] {
                '\\' if i + 1 < class.len() => {
                    chars.push(class[i + 1]);
                    i += 2;
                }
                lo if i + 2 < class.len() && class[i + 1] == '-' => {
                    let hi = class[i + 2];
                    for c in lo..=hi {
                        chars.push(c);
                    }
                    i += 3;
                }
                c => {
                    chars.push(c);
                    i += 1;
                }
            }
        }
        if chars.is_empty() {
            return None;
        }
        let reps = rest[close + 1..]
            .strip_prefix('{')?
            .strip_suffix('}')?
            .split_once(',')?;
        let lo: usize = reps.0.trim().parse().ok()?;
        let hi: usize = reps.1.trim().parse().ok()?;
        (lo <= hi).then_some((chars, lo, hi))
    }
}

pub mod arbitrary {
    use super::strategy::Any;

    /// Produce the default strategy for `T` (uniform, always finite for
    /// floats).
    pub fn any<T>() -> Any<T> {
        Any::new()
    }
}

pub mod collection {
    use super::strategy::{Strategy, TestRng};

    /// Size specification accepted by [`vec()`].
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors whose length falls in `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-test configuration; only `cases` is honoured by this subset.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests. Each `fn name(arg in strategy, ...)` body runs
/// for `cases` generated inputs (from the optional
/// `#![proptest_config(...)]` header, default 256).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __proptest_cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __proptest_rng =
                $crate::strategy::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __proptest_case in 0..__proptest_cfg.cases {
                let _ = __proptest_case;
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __proptest_rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Assert a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Assert inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Choose uniformly between several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strat) as Box<dyn $crate::strategy::DynStrategy<_>>),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in 1u32..10, b in 0usize..3, x in -1e3f64..1e3) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(b < 3);
            prop_assert!((-1e3..1e3).contains(&x), "x={}", x);
        }

        #[test]
        fn vec_sizes_honoured(v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u32..10).prop_map(|x| x as u64),
            any::<bool>().prop_map(|b| b as u64 + 100),
        ]) {
            prop_assert!(v < 10u64 || v == 100u64 || v == 101u64);
        }

        #[test]
        fn string_pattern_subset(s in "[a-c0-1_\\-]{2,6}") {
            prop_assert!((2..=6).contains(&s.len()), "len={}", s.len());
            prop_assert!(s.chars().all(|c| "abc01_-".contains(c)), "s={}", s);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::{Strategy, TestRng};
        let draw = |name: &str| {
            let mut rng = TestRng::deterministic(name);
            (0..8).map(|_| (0u32..1000).generate(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw("t1"), draw("t1"));
        assert_ne!(draw("t1"), draw("t2"));
    }
}
