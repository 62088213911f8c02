//! Retry policy for driver transitions: bounded attempts with seeded
//! exponential backoff.
//!
//! Transient faults (network blips, package-mirror hiccups — in our
//! world, [`SimError::is_transient`](engage_sim::SimError::is_transient)
//! injections) are retried up to a bounded number of attempts; permanent
//! faults propagate immediately. Backoff is exponential with jitter, but
//! the jitter is *not* wall-clock entropy: it is drawn from a
//! [`SplitMix64`] stream keyed on (policy seed, instance, action,
//! attempt), so two runs of the same deployment back off identically and
//! every robustness test is reproducible.
//!
//! Backoff waits advance the **simulated** clock, never a real sleep, so
//! retries cost nothing in test wall-clock time and do not interact with
//! the parallel executor's host-side guard timeouts (which watch real
//! time).

use std::time::Duration;

use engage_util::rand::{Rng, RngCore, SplitMix64};

/// Bounded-attempt retry with seeded exponential backoff, applied to
/// every driver transition the executor runs.
///
/// The default ([`RetryPolicy::none`]) makes exactly one attempt —
/// existing single-shot semantics are unchanged unless a policy is
/// explicitly enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: one attempt, then the error propagates.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::from_millis(500),
            cap: Duration::from_secs(30),
            seed: 0,
        }
    }

    /// Up to `max_attempts` attempts per transition (so `max_attempts -
    /// 1` retries). Values below 1 are clamped to 1.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::none()
        }
    }

    /// Sets the first-retry backoff (default 500 ms, doubling per
    /// attempt).
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Caps the exponential backoff (default 30 s).
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Seeds the jitter stream (default 0). Same seed ⇒ same waits.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Maximum attempts per transition (≥ 1).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Whether this policy ever retries.
    pub fn is_enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The wait before retrying `action` on `instance` after failed
    /// attempt number `attempt` (1-based): `base · 2^(attempt-1)` capped
    /// at the configured maximum, then jittered into `[50%, 100%]` of
    /// that window by a deterministic per-(seed, instance, action,
    /// attempt) draw.
    pub fn backoff(&self, instance: &str, action: &str, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        let window = exp.min(self.cap);
        let mut rng = SplitMix64::new(jitter_key(self.seed, instance, action, attempt));
        let ns = window.as_nanos() as u64;
        let jittered = ns / 2 + rng.gen_range(0..=ns.saturating_sub(ns / 2));
        Duration::from_nanos(jittered)
    }
}

/// FNV-1a over the jitter inputs: a stable, dependency-free way to key
/// the per-attempt RNG stream.
fn jitter_key(seed: u64, instance: &str, action: &str, attempt: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for chunk in [instance.as_bytes(), b"\0", action.as_bytes()] {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Mix once more through SplitMix64 so nearby attempts decorrelate.
    SplitMix64::new(h ^ u64::from(attempt)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts(), 1);
        assert!(!p.is_enabled());
        assert!(RetryPolicy::new(0).max_attempts() == 1);
        assert!(RetryPolicy::new(4).is_enabled());
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter() {
        let p = RetryPolicy::new(8).with_base(Duration::from_millis(100));
        for attempt in 1..=5u32 {
            let window = Duration::from_millis(100 * (1 << (attempt - 1)));
            let wait = p.backoff("fa-1", "install", attempt);
            assert!(wait <= window, "attempt {attempt}: {wait:?} > {window:?}");
            assert!(
                wait >= window / 2,
                "attempt {attempt}: {wait:?} < {:?}",
                window / 2
            );
        }
    }

    #[test]
    fn backoff_respects_cap() {
        let p = RetryPolicy::new(32)
            .with_base(Duration::from_secs(1))
            .with_cap(Duration::from_secs(4));
        assert!(p.backoff("i", "a", 30) <= Duration::from_secs(4));
    }

    #[test]
    fn backoff_is_deterministic_and_seed_sensitive() {
        let p = RetryPolicy::new(5).with_seed(7);
        let a = p.backoff("fa-1", "start", 2);
        assert_eq!(a, p.backoff("fa-1", "start", 2));
        // Different coordinates give (almost surely) different waits.
        let others = [
            p.backoff("fa-2", "start", 2),
            p.backoff("fa-1", "stop", 2),
            RetryPolicy::new(5).with_seed(8).backoff("fa-1", "start", 2),
        ];
        assert!(others.iter().any(|o| *o != a));
    }
}
