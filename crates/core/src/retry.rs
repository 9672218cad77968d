//! Retrying transient failures: exponential backoff with decorrelated
//! jitter.
//!
//! A [`RetryPolicy`] drives whole-enrollment (and, in the library
//! crates, whole-performance) retries after transient failures —
//! timeouts, aborted or stalled performances — injected by the chaos
//! layer or arising naturally. Backoff follows the *decorrelated
//! jitter* scheme: each sleep is drawn uniformly from
//! `[base, 3 * previous]` and clamped to `cap`, which spreads repeated
//! contenders apart faster than plain exponential doubling while
//! keeping a hard ceiling.
//!
//! The jitter source is a seeded SplitMix64 chain, so a given policy
//! value always produces the same backoff sequence — chaos soak tests
//! can replay a schedule exactly.

use std::time::Duration;

use crate::{splitmix64, ScriptError};

/// A bounded retry schedule: up to `max_attempts` tries separated by
/// exponential backoff with decorrelated jitter.
///
/// # Example
///
/// ```
/// use script_core::RetryPolicy;
/// use std::time::Duration;
///
/// let policy = RetryPolicy::new(4)
///     .with_base(Duration::from_millis(5))
///     .with_cap(Duration::from_millis(100))
///     .with_seed(42);
/// // Deterministic: the same policy always sleeps the same amounts.
/// let a: Vec<_> = policy.backoffs().collect();
/// let b: Vec<_> = policy.backoffs().collect();
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 3); // one backoff between each pair of attempts
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    base: Duration,
    cap: Duration,
    seed: u64,
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total tries (so `max_attempts -
    /// 1` retries), with a 10 ms base and a 1 s cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts > 0, "a policy must allow at least one attempt");
        Self {
            max_attempts,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0x5ca1_ab1e,
        }
    }

    /// Sets the minimum (and first) backoff.
    #[must_use]
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Sets the backoff ceiling.
    #[must_use]
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// Seeds the jitter chain (policies with equal seeds sleep equal
    /// amounts).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total attempts this policy allows.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The deterministic backoff sequence: one duration per retry
    /// (`max_attempts - 1` items).
    pub fn backoffs(&self) -> Backoffs {
        Backoffs {
            state: self.seed,
            prev: self.base,
            base: self.base,
            cap: self.cap,
            remaining: self.max_attempts - 1,
        }
    }

    /// Runs `op` until it succeeds, fails permanently, or attempts run
    /// out, retrying errors for which `retryable` is true. `op` receives
    /// the 0-based attempt number; the final error is returned verbatim.
    pub fn run_if<T, E>(
        &self,
        retryable: impl Fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut backoffs = self.backoffs();
        for attempt in 0..self.max_attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 < self.max_attempts && retryable(&e) => {
                    if let Some(d) = backoffs.next() {
                        std::thread::sleep(d);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// [`RetryPolicy::run_if`] specialized to script operations:
    /// retries exactly the transient errors
    /// ([`ScriptError::is_transient`]).
    pub fn run<T>(&self, op: impl FnMut(u32) -> Result<T, ScriptError>) -> Result<T, ScriptError> {
        self.run_if(ScriptError::is_transient, op)
    }
}

/// Iterator over a policy's backoff durations (see
/// [`RetryPolicy::backoffs`]).
#[derive(Debug, Clone)]
pub struct Backoffs {
    state: u64,
    prev: Duration,
    base: Duration,
    cap: Duration,
    remaining: u32,
}

impl Iterator for Backoffs {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Decorrelated jitter: uniform in [base, 3 * prev], capped.
        let lo = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let pick = lo + splitmix64(&mut self.state) % (hi - lo);
        let d = Duration::from_nanos(pick).min(self.cap);
        self.prev = d;
        Some(d)
    }
}

impl ExactSizeIterator for Backoffs {
    fn len(&self) -> usize {
        self.remaining as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RetryPolicy {
        RetryPolicy::new(5)
            .with_base(Duration::from_micros(10))
            .with_cap(Duration::from_micros(200))
            .with_seed(9)
    }

    #[test]
    fn backoffs_are_deterministic_and_seed_sensitive() {
        let a: Vec<_> = fast().backoffs().collect();
        let b: Vec<_> = fast().backoffs().collect();
        assert_eq!(a, b);
        let c: Vec<_> = fast().with_seed(10).backoffs().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn backoffs_respect_base_and_cap() {
        let p = RetryPolicy::new(50)
            .with_base(Duration::from_micros(10))
            .with_cap(Duration::from_micros(100))
            .with_seed(3);
        for d in p.backoffs() {
            assert!(d >= Duration::from_micros(10), "below base: {d:?}");
            assert!(d <= Duration::from_micros(100), "above cap: {d:?}");
        }
        assert_eq!(p.backoffs().len(), 49);
    }

    #[test]
    fn retries_transient_until_success() {
        let mut calls = 0;
        let out = fast().run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err(ScriptError::Timeout)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let mut calls = 0;
        let out: Result<(), _> = fast().run(|_| {
            calls += 1;
            Err(ScriptError::InstanceClosed)
        });
        assert_eq!(out, Err(ScriptError::InstanceClosed));
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhausted_attempts_return_last_error() {
        let mut calls = 0;
        let out: Result<(), _> = fast().run(|_| {
            calls += 1;
            Err(ScriptError::Stalled)
        });
        assert_eq!(out, Err(ScriptError::Stalled));
        assert_eq!(calls, 5);
    }

    #[test]
    fn custom_predicate_controls_retry() {
        let mut calls = 0;
        let out: Result<(), &str> = fast().run_if(
            |e| *e == "again",
            |attempt| {
                calls += 1;
                Err(if attempt == 0 { "again" } else { "fatal" })
            },
        );
        assert_eq!(out, Err("fatal"));
        assert_eq!(calls, 2);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::new(0);
    }
}
