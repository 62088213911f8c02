//! # engage-util
//!
//! Pure-`std` substitutes for the external crates the workspace used to
//! pull from crates.io. The build environment for this reproduction is
//! hermetic — no registry access — so everything the workspace needs
//! beyond `std` lives here. Each module replaces one dependency and
//! implements exactly the API subset the workspace uses (not the full
//! upstream surface):
//!
//! * [`rand`] replaces the `rand` crate: a [`rand::SplitMix64`] seeder,
//!   a [`rand::Xoshiro256PlusPlus`] generator (re-exported as
//!   [`rand::StdRng`]), and a [`rand::Rng`] trait offering `gen_range`
//!   over integer ranges, `gen_bool`, and Fisher–Yates `shuffle`.
//! * [`sync`] replaces `parking_lot` and `crossbeam::channel`:
//!   a poison-free [`sync::Mutex`] whose `lock()` returns the guard
//!   directly, a matching [`sync::RwLock`], and [`sync::channel`] — an
//!   MPMC channel (`unbounded` and `bounded`) with cloneable
//!   `Sender`/`Receiver`,
//!   `send`, `try_send`, `recv`, `try_recv`, `try_iter`, `iter`,
//!   disconnect-on-last-drop semantics, and typed backpressure
//!   (`TrySendError::Full`) on bounded queues.
//! * [`prop`] replaces `proptest`: seeded case generation from a
//!   recorded choice stream (Hypothesis-style), greedy stream-level
//!   shrinking of failing cases, strategies for integer ranges, tuples,
//!   collections (`vec`/`btree_map`/`btree_set`), a regex-subset string
//!   strategy, and the `proptest!` / `prop_assert!` / `prop_assert_eq!`
//!   / `prop_assume!` / `prop_oneof!` macros.
//! * [`obs`] is native to this workspace (it replaces nothing): a
//!   structured observability layer — hierarchical monotonic-clock
//!   spans, atomic counters/gauges, a structured event log, and
//!   pluggable sinks (in-memory for tests, JSON Lines for tools) — that
//!   every pipeline stage reports into.
//! * [`env`] is also native: the one sweep-size environment-knob
//!   parser (`ENGAGE_*_SWEEP_SEEDS`) every seeded test sweep shares.
//! * [`hash`] is also native: stable FNV-1a hashing for cross-run cache
//!   keys (std's `DefaultHasher` is seeded per process).
//!
//! Everything is deterministic where the replaced crate was not: the
//! property runner seeds its PRNG from the test name (override with
//! `PROPTEST_SEED`), so failures reproduce across runs and machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod hash;
pub mod obs;
pub mod prop;
pub mod rand;
pub mod sync;
