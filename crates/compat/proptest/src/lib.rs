//! Offline shim for the subset of the `proptest` 1.x API used by this
//! workspace's property tests.
//!
//! The build environment has no access to crates.io, so the workspace pins
//! this path crate instead of the real proptest. It provides the
//! [`proptest!`] test macro, the [`Strategy`](strategy::Strategy) trait with
//! the `prop_map`/`prop_recursive`/`boxed` combinators, range and tuple
//! strategies, [`prop_oneof!`], [`any`](strategy::any), `collection::vec`, and the
//! `prop_assert*`/[`prop_assume!`] macros.
//!
//! Differences from real proptest, deliberate for an offline shim:
//!
//! * no shrinking — failures report the failing values via the assertion
//!   message and are reproducible because every test derives its RNG seed
//!   from its own name;
//! * `prop_assume!` skips the case instead of drawing a replacement, so a
//!   test runs *up to* `PROPTEST_CASES` cases (default 256).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Strategies for collections (subset of `proptest::collection`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A strategy producing `Vec`s of values from an element strategy.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Creates a strategy producing vectors whose lengths fall in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let len = self.len.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The conventional glob import, mirroring `proptest::prelude`.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// The number of cases each property runs, from `PROPTEST_CASES` (default
/// 256, like real proptest).
pub fn cases_from_env() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Asserts a condition inside a property (failing the whole test).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Chooses uniformly among several strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property-based tests, mirroring `proptest::proptest!`.
///
/// Each function body runs once per generated case; `prop_assume!` skips a
/// case, `prop_assert*` failures fail the test with the standard panic
/// message (values are printed by the assertion itself).
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($parm:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::cases_from_env();
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for _case in 0..cases {
                    let ($($parm,)+) = (
                        $($crate::strategy::Strategy::generate(&($strat), &mut rng),)+
                    );
                    let case = || $body;
                    case();
                }
            }
        )*
    };
}
