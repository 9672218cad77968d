//! Measurement helpers for the `experiments` verdict program, the one
//! program that checks the paper's claims (DESIGN.md §6).
//!
//! The paper has no quantitative evaluation, so the program verifies the
//! *shapes* of its qualitative claims: who is faster, by roughly what
//! factor, and in which direction quantities scale. A timing claim is a
//! ratio of two medians whose arms were sampled in alternation
//! ([`compare`]), so a change in the machine's load falls on both alike.

pub mod delayed;

use std::time::{Duration, Instant};

/// Statistics over repeated timed runs of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Measurement {
    /// Median duration per run.
    pub median: Duration,
    /// Minimum observed duration.
    pub min: Duration,
    /// Maximum observed duration.
    pub max: Duration,
}

impl Measurement {
    fn of(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        Measurement {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: *samples.last().expect("runs > 0"),
        }
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.median)
    }
}

/// Turns a scenario into one that reports its own wall time.
pub fn timed(mut scenario: impl FnMut()) -> impl FnMut() -> Duration {
    move || {
        let t0 = Instant::now();
        scenario();
        t0.elapsed()
    }
}

/// Times `runs` executions of `scenario` and reports median/min/max.
/// A warm-up run is performed first and discarded.
pub fn measure(runs: usize, scenario: impl FnMut()) -> Measurement {
    measure_custom(runs, timed(scenario))
}

/// Like [`measure`], but the scenario reports its own duration (for
/// metrics other than wall time, e.g. summed time-in-script).
pub fn measure_custom(runs: usize, mut scenario: impl FnMut() -> Duration) -> Measurement {
    assert!(runs > 0);
    scenario();
    Measurement::of((0..runs).map(|_| scenario()).collect())
}

/// Like [`measure_custom`] for two scenarios at once, sampled in
/// alternation (`a`, `b`, `a`, `b`, …) after one discarded warm-up run
/// of each.
pub fn compare(
    runs: usize,
    mut a: impl FnMut() -> Duration,
    mut b: impl FnMut() -> Duration,
) -> (Measurement, Measurement) {
    assert!(runs > 0);
    a();
    b();
    let (sa, sb) = (0..runs).map(|_| (a(), b())).unzip();
    (Measurement::of(sa), Measurement::of(sb))
}

/// The ratio of two medians, `a` over `b`.
pub fn ratio(a: Measurement, b: Measurement) -> f64 {
    a.median.as_secs_f64() / b.median.as_secs_f64()
}

/// Renders a verdict cell.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "HOLDS"
    } else {
        "DIFFERS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_ordered_stats() {
        let m = measure(5, || std::thread::sleep(Duration::from_micros(200)));
        assert!(m.min <= m.median && m.median <= m.max);
        assert!(m.min >= Duration::from_micros(150));
    }

    #[test]
    fn measure_custom_uses_reported_durations() {
        let mut i = 0;
        let m = measure_custom(3, || {
            i += 1;
            Duration::from_millis(i)
        });
        // Samples are 2, 3, 4 ms (warm-up consumed 1).
        assert_eq!(m.min, Duration::from_millis(2));
        assert_eq!(m.median, Duration::from_millis(3));
        assert_eq!(m.max, Duration::from_millis(4));
    }

    #[test]
    fn compare_alternates_after_one_warm_up_each() {
        let order = std::cell::RefCell::new(Vec::new());
        let arm = |tag: char, ms: u64| {
            let order = &order;
            move || {
                order.borrow_mut().push(tag);
                Duration::from_millis(ms)
            }
        };
        let (a, b) = compare(2, arm('a', 1), arm('b', 10));
        assert_eq!(order.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
        assert_eq!(ratio(b, a), 10.0);
        assert_eq!(verdict(true), "HOLDS");
        assert_eq!(verdict(false), "DIFFERS");
    }
}
