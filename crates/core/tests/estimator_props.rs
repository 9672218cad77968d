//! Property battery for the rendezvous-latency estimator behind
//! adaptive watchdog windows ([`LatencyEstimator`], [`AdaptiveWindow`]).
//!
//! The estimator's contract is deliberately strong — its output is a
//! pure function of the retained sample *multiset* — because the
//! watchdog derives abort decisions from it. The properties checked:
//!
//! 1. any reported quantile lies within the retained samples' min/max;
//! 2. quantiles are monotone in the requested rank;
//! 3. window eviction forgets old regimes (a burst of fast samples
//!    after a slow regime pulls the window back down once the slow
//!    samples age out);
//! 4. the same samples in any order yield the same window.

use std::time::Duration;

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use script_core::{AdaptiveWindow, LatencyEstimator};

/// Feeds every duration (as micros) into a fresh estimator of the given
/// capacity.
fn fed(capacity: usize, micros: &[u64]) -> LatencyEstimator {
    let est = LatencyEstimator::new(capacity);
    for &us in micros {
        est.record(Duration::from_micros(us));
    }
    est
}

/// Deterministic xorshift64* Fisher–Yates shuffle, so the permutation
/// property needs no RNG dependency and replays from the proptest seed.
fn shuffled(samples: &[u64], mut state: u64) -> Vec<u64> {
    let mut out = samples.to_vec();
    state = state.max(1);
    for i in (1..out.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every quantile of a non-empty estimator lies within the min and
    /// max of the samples it has *retained* (the last `capacity`).
    #[test]
    fn quantiles_lie_within_retained_extremes(
        samples in pvec(1u64..=1_000_000, 1..400),
        q_permille in 0u64..=1000,
    ) {
        let q = q_permille as f64 / 1000.0;
        let capacity = 256usize;
        let est = fed(capacity, &samples);
        let retained = &samples[samples.len().saturating_sub(capacity)..];
        let lo = Duration::from_micros(*retained.iter().min().unwrap());
        let hi = Duration::from_micros(*retained.iter().max().unwrap());
        let got = est.quantile(q).expect("non-empty estimator reports");
        prop_assert!(got >= lo && got <= hi,
            "quantile({q}) = {got:?} outside retained [{lo:?}, {hi:?}]");
    }

    /// Quantiles are monotone: a higher requested rank never reports a
    /// smaller latency.
    #[test]
    fn quantiles_are_monotone_in_rank(
        samples in pvec(1u64..=1_000_000, 1..300),
        a in 0u64..=1000,
        b in 0u64..=1000,
    ) {
        let (a, b) = (a as f64 / 1000.0, b as f64 / 1000.0);
        let (lo_q, hi_q) = if a <= b { (a, b) } else { (b, a) };
        let est = fed(128, &samples);
        let lo = est.quantile(lo_q).unwrap();
        let hi = est.quantile(hi_q).unwrap();
        prop_assert!(lo <= hi,
            "quantile({lo_q}) = {lo:?} > quantile({hi_q}) = {hi:?}");
    }

    /// Eviction forgets old regimes: after a full window of fast
    /// samples, a preceding slow regime no longer influences the
    /// quantile or the adaptive window — the window collapses to
    /// `MIN_WINDOW` instead of staying pinned wide.
    #[test]
    fn eviction_forgets_old_regimes(
        capacity in 4usize..64,
        slow_ms in 10u64..100,
        fast_us in 1u64..100,
    ) {
        let est = LatencyEstimator::new(capacity);
        let slow = Duration::from_millis(slow_ms);
        let fast = Duration::from_micros(fast_us);
        for _ in 0..capacity {
            est.record(slow);
        }
        let (wide, observed) = AdaptiveWindow::window_for(&est);
        prop_assert_eq!(observed, Some(slow));
        for _ in 0..capacity {
            est.record(fast);
        }
        prop_assert_eq!(est.quantile(0.99), Some(fast),
            "a full window of fast samples must evict the slow regime");
        let (narrow, observed) = AdaptiveWindow::window_for(&est);
        prop_assert_eq!(observed, Some(fast));
        prop_assert_eq!(narrow, AdaptiveWindow::MIN_WINDOW,
            "fast-regime windows clamp to MIN_WINDOW");
        prop_assert!(wide > narrow,
            "the slow-regime window ({wide:?}) must exceed the fast one ({narrow:?})");
    }

    /// Order independence: identical samples fed in any order yield the
    /// same window and the same quantiles. (Valid because the sample
    /// count never exceeds capacity, so the retained multiset is equal.)
    #[test]
    fn sample_order_does_not_change_the_window(
        samples in pvec(1u64..=1_000_000, 1..128),
        seed in any::<u64>(),
    ) {
        let capacity = 128usize;
        let a = fed(capacity, &samples);
        let b = fed(capacity, &shuffled(&samples, seed));
        prop_assert_eq!(AdaptiveWindow::window_for(&a), AdaptiveWindow::window_for(&b));
        prop_assert_eq!(a.quantile(0.5), b.quantile(0.5));
        prop_assert_eq!(a.quantile(0.99), b.quantile(0.99));
    }
}

/// Deterministic spot checks complementing the properties above.
#[test]
fn median_of_known_multiset() {
    let est = fed(16, &[100, 200, 300, 400, 500]);
    assert_eq!(est.quantile(0.5), Some(Duration::from_micros(300)));
    assert_eq!(est.quantile(0.0), Some(Duration::from_micros(100)));
    assert_eq!(est.quantile(1.0), Some(Duration::from_micros(500)));
}

#[test]
fn empty_estimator_reports_nothing_and_initial_window() {
    let est = LatencyEstimator::new(8);
    assert_eq!(est.quantile(0.99), None);
    assert_eq!(
        AdaptiveWindow::window_for(&est),
        (AdaptiveWindow::INITIAL, None)
    );
}
