//! A minimal property-testing harness (the `proptest` API subset the
//! workspace's test suites use).
//!
//! ## Design: choice-stream generation and shrinking
//!
//! Every strategy draws from a [`Source`]: a stream of `u64` choices
//! that is *recorded* during generation. In normal runs the stream
//! comes from a seeded xoshiro256++ generator (seed derived from the
//! test name, so failures reproduce deterministically; override with
//! `PROPTEST_SEED`). When a case fails, the recorded stream is shrunk
//! greedily — truncate the tail, delete blocks, reduce individual
//! choices — and replayed through the same strategy. Strategies are
//! written so that a lexicographically smaller stream produces a
//! "simpler" value (shorter collections, smaller integers, earlier
//! `prop_oneof!` alternatives), which is what makes stream-level
//! shrinking produce minimal counterexamples without any per-type
//! shrink logic.
//!
//! Supported surface: the [`Strategy`] trait with `prop_map`,
//! `prop_recursive`, and `boxed`; integer-range, tuple, string-regex
//! (`string`) and collection ([`collection`]) strategies;
//! [`any`]; and the `proptest!`, `prop_assert!`, `prop_assert_eq!`,
//! `prop_assert_ne!`, `prop_assume!`, and `prop_oneof!` macros.

pub mod collection;
mod strategy;
mod string;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rand::{uniform_below, RngCore as _, SeedableRng, StdRng};

pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Map, Strategy, Union};

/// The stream of choices a strategy draws from; see the module docs.
pub struct Source<'a> {
    rng: Option<&'a mut StdRng>,
    replay: Option<&'a [u64]>,
    pos: usize,
    record: Vec<u64>,
}

impl<'a> Source<'a> {
    /// A source drawing fresh random choices from `rng`.
    pub fn random(rng: &'a mut StdRng) -> Self {
        Source {
            rng: Some(rng),
            replay: None,
            pos: 0,
            record: Vec::new(),
        }
    }

    /// A source replaying `choices`; draws beyond the end yield 0 (the
    /// minimal choice), and out-of-range choices are clamped.
    pub fn replay(choices: &'a [u64]) -> Self {
        Source {
            rng: None,
            replay: Some(choices),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// Draws a choice in `0..=max`, recording it.
    pub fn draw(&mut self, max: u64) -> u64 {
        let v = match self.replay {
            Some(r) => {
                if self.pos < r.len() {
                    r[self.pos].min(max)
                } else {
                    0
                }
            }
            None => {
                let rng = self.rng.as_mut().expect("random source has an rng");
                if max == u64::MAX {
                    rng.next_u64()
                } else {
                    uniform_below(rng, max + 1)
                }
            }
        };
        self.pos += 1;
        self.record.push(v);
        v
    }

    /// The choices actually drawn (after clamping), for replay.
    pub fn into_record(self) -> Vec<u64> {
        self.record
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property is false for this input.
    Fail(String),
    /// The input does not satisfy a `prop_assume!` precondition; the
    /// case is skipped, not failed.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given reason.
    pub fn fail(reason: impl fmt::Display) -> Self {
        TestCaseError::Fail(reason.to_string())
    }

    /// A rejection (skipped case) with the given reason.
    pub fn reject(reason: impl fmt::Display) -> Self {
        TestCaseError::Reject(reason.to_string())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
            TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
        }
    }
}

/// Result of one test-case execution.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; construct with [`ProptestConfig::with_cases`]
/// or `Default` (256 cases, overridable via `PROPTEST_CASES`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
    /// Cap on shrink attempts after a failure.
    pub max_shrink_iters: u32,
    /// Cap on `prop_assume!` rejections across the whole run.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(256);
        ProptestConfig {
            cases,
            max_shrink_iters: 2048,
            max_global_rejects: 8192,
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// A property failure: the shrunk counterexample plus run statistics.
#[derive(Debug)]
pub struct PropertyFailure<V> {
    /// The minimal failing input found by shrinking.
    pub minimal: V,
    /// The failure message of the minimal input.
    pub message: String,
    /// Cases that passed before the failure surfaced.
    pub cases_passed: u32,
    /// Shrink attempts spent.
    pub shrink_iters: u32,
    /// The PRNG seed of the run (for `PROPTEST_SEED` reproduction).
    pub seed: u64,
}

impl<V: fmt::Debug> fmt::Display for PropertyFailure<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "property failed: {}\nminimal failing input: {:#?}\n\
             ({} cases passed before failure, {} shrink iterations, \
             seed {} — rerun with PROPTEST_SEED={})",
            self.message, self.minimal, self.cases_passed, self.shrink_iters, self.seed, self.seed
        )
    }
}

enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn execute<V>(test: &impl Fn(V) -> TestCaseResult, value: V) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(TestCaseError::Reject(_))) => Outcome::Reject,
        Ok(Err(TestCaseError::Fail(m))) => Outcome::Fail(m),
        Err(payload) => Outcome::Fail(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with non-string payload".to_string()
    }
}

fn seed_for(name: &str) -> u64 {
    if let Some(seed) = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        return seed;
    }
    // FNV-1a over the test name: deterministic across runs and machines.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checks `cases` random inputs of `strategy` against `test`, shrinking
/// the first failure. Returns the number of passing cases, or the
/// shrunk failure. [`run_property`] is the panicking wrapper the
/// `proptest!` macro uses; this form exists so the harness itself can
/// be tested on known-failing properties.
pub fn check_property<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    test: impl Fn(S::Value) -> TestCaseResult,
) -> Result<u32, PropertyFailure<S::Value>> {
    let seed = seed_for(name);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    while passed < config.cases {
        let mut src = Source::random(&mut rng);
        let value = strategy.generate(&mut src);
        let choices = src.into_record();
        match execute(&test, value) {
            Outcome::Pass => passed += 1,
            Outcome::Reject => {
                rejected += 1;
                assert!(
                    rejected <= config.max_global_rejects,
                    "property {name}: too many rejected cases \
                     ({rejected} rejections for {passed} passes) — \
                     weaken the prop_assume! preconditions"
                );
            }
            Outcome::Fail(message) => {
                let (best, message, shrink_iters) =
                    shrink(config, strategy, &test, choices, message);
                let minimal = strategy.generate(&mut Source::replay(&best));
                return Err(PropertyFailure {
                    minimal,
                    message,
                    cases_passed: passed,
                    shrink_iters,
                    seed,
                });
            }
        }
    }
    Ok(passed)
}

/// Runs a property and panics with the shrunk counterexample on
/// failure. This is what `proptest!`-generated tests call.
pub fn run_property<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    test: impl Fn(S::Value) -> TestCaseResult,
) {
    if let Err(failure) = check_property(config, name, strategy, test) {
        panic!("{failure}");
    }
}

/// Greedy stream shrinking: keep applying the first simplification that
/// still fails, until none does or the iteration cap is hit.
fn shrink<S: Strategy>(
    config: &ProptestConfig,
    strategy: &S,
    test: &impl Fn(S::Value) -> TestCaseResult,
    mut best: Vec<u64>,
    mut message: String,
) -> (Vec<u64>, String, u32) {
    let mut iters = 0u32;
    let mut improved = true;
    'passes: while improved && iters < config.max_shrink_iters {
        improved = false;
        for candidate in candidates(&best) {
            if iters >= config.max_shrink_iters {
                break 'passes;
            }
            iters += 1;
            let mut src = Source::replay(&candidate);
            let value = strategy.generate(&mut src);
            let recorded = src.into_record();
            // Only accept strictly simpler streams; this makes progress
            // a well-founded order, so shrinking always terminates.
            if !simpler(&recorded, &best) {
                continue;
            }
            if let Outcome::Fail(m) = execute(test, value) {
                best = recorded;
                message = m;
                improved = true;
                continue 'passes;
            }
        }
    }
    (best, message, iters)
}

/// Is stream `a` strictly simpler than `b` (shorter, or same length and
/// lexicographically smaller)?
fn simpler(a: &[u64], b: &[u64]) -> bool {
    a.len() < b.len() || (a.len() == b.len() && a < b)
}

/// Candidate simplifications of a choice stream, roughly biggest-win
/// first: tail cuts, block deletions, then single-value reductions.
fn candidates(best: &[u64]) -> Vec<Vec<u64>> {
    let n = best.len();
    let mut out = Vec::new();
    for cut in [n / 2, n * 3 / 4, n.saturating_sub(1)] {
        if cut < n {
            out.push(best[..cut].to_vec());
        }
    }
    for size in [8usize, 4, 2, 1] {
        if size >= n {
            continue;
        }
        let mut start = 0;
        while start + size <= n {
            let mut c = best[..start].to_vec();
            c.extend_from_slice(&best[start + size..]);
            // Deleting a block often removes collection elements, whose
            // count was drawn earlier in the stream; couple the deletion
            // with decrementing one earlier draw so "shorter collection"
            // is reachable in one accepted step. Full coupling is
            // quadratic, so long streams only couple with the first and
            // the immediately preceding draw.
            let earlier: Vec<usize> = if n <= 40 {
                (0..start).collect()
            } else {
                [0, start.saturating_sub(1)]
                    .into_iter()
                    .take(start)
                    .collect()
            };
            for j in earlier {
                if best[j] > 0 {
                    let mut cc = c.clone();
                    cc[j] -= 1;
                    out.push(cc);
                }
            }
            out.push(c);
            start += size;
        }
    }
    for i in 0..n {
        if best[i] != 0 {
            let mut zeroed = best.to_vec();
            zeroed[i] = 0;
            out.push(zeroed);
            if best[i] > 1 {
                let mut halved = best.to_vec();
                halved[i] /= 2;
                out.push(halved);
            }
            // Several small deltas, not just −1: a single-step decrement
            // can be permanently rejected by parity-style `prop_assume!`
            // filters, which would wedge the shrink far from minimal.
            for delta in [1u64, 2, 3, 4] {
                if best[i] >= delta {
                    let mut reduced = best.to_vec();
                    reduced[i] -= delta;
                    out.push(reduced);
                }
            }
        }
    }
    out
}

/// One-stop imports for test files: `use engage_util::prop::prelude::*;`.
pub mod prelude {
    pub use super::{
        any, Arbitrary, BoxedStrategy, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`run_property`] over the argument
/// strategies. An optional `#![proptest_config(expr)]` header sets the
/// [`ProptestConfig`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    (@impl ($config:expr)
        $( $(#[$meta:meta])* fn $name:ident
            ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::prop::ProptestConfig = $config;
                let strategy = ($($strategy,)+);
                $crate::prop::run_property(
                    &config,
                    stringify!($name),
                    &strategy,
                    |($($arg,)+)| {
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::prop::ProptestConfig::default()) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (and
/// triggering shrinking) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::prop::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}", left, right, format!($($fmt)+)
        );
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Skips the current case when a precondition does not hold; skipped
/// cases do not count toward the configured case total.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::prop::TestCaseError::reject(stringify!(
                $cond
            )));
        }
    };
}

/// Chooses uniformly between several strategies producing the same
/// value type. Shrinks toward the first alternative.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop::Union::new(vec![
            $($crate::prop::Strategy::boxed($strategy)),+
        ])
    };
}
