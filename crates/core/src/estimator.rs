//! Streaming rendezvous-latency estimation for adaptive watchdog
//! windows.
//!
//! Each performance shard owns a [`LatencyEstimator`]; the engine feeds
//! it the wall-clock latency of every *successful* rendezvous operation
//! observed on the performance's network (sends, selections, non-empty
//! polls). The watchdog reads a high quantile back out and arms its
//! next quiescence deadline at `max(MIN_WINDOW, 8 × p99)` — see
//! [`AdaptiveWindow`](crate::AdaptiveWindow).
//!
//! The estimator is an exact quantile over a bounded ring of the most
//! recent samples rather than a P²-style running approximation. The
//! window is small (a few hundred samples) so sorting a copy on each
//! watchdog poll is cheap, and — unlike P², whose cell positions depend
//! on arrival order — the estimate is a pure function of the retained
//! sample multiset. That purity is what makes the estimator testable by
//! property: identical samples in any order yield the same window, and
//! eviction provably forgets old regimes once the ring turns over.

use std::time::Duration;

use parking_lot::Mutex;

/// A lock-cheap bounded-window latency estimator.
///
/// `record` is an O(1) ring overwrite under a private mutex; `quantile`
/// copies and sorts the occupied slots (bounded by the capacity chosen
/// at construction). Old samples are evicted strictly in arrival order,
/// so after `capacity` recordings from a new latency regime nothing of
/// the previous regime remains.
#[derive(Debug)]
pub struct LatencyEstimator {
    state: Mutex<EstState>,
}

#[derive(Debug)]
struct EstState {
    /// Retained samples in nanoseconds; slots `..filled` are occupied.
    ring: Box<[u64]>,
    /// Write cursor: the slot the next sample overwrites.
    next: usize,
    /// Occupied slots, saturating at the ring's length.
    filled: usize,
    /// Samples ever recorded (not capped by the window).
    total: u64,
}

impl LatencyEstimator {
    /// A fresh estimator retaining the `capacity` most recent samples
    /// (at least one).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            state: Mutex::new(EstState {
                ring: vec![0u64; cap].into_boxed_slice(),
                next: 0,
                filled: 0,
                total: 0,
            }),
        }
    }

    /// Records one completed-rendezvous latency, evicting the oldest
    /// retained sample once the window is full.
    pub fn record(&self, sample: Duration) {
        let ns = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        let mut st = self.state.lock();
        let cap = st.ring.len();
        let slot = st.next;
        st.ring[slot] = ns;
        st.next = (slot + 1) % cap;
        st.filled = (st.filled + 1).min(cap);
        st.total += 1;
    }

    /// Samples ever recorded, including ones the window has evicted.
    pub fn count(&self) -> u64 {
        self.state.lock().total
    }

    /// Samples currently retained in the window.
    pub fn len(&self) -> usize {
        self.state.lock().filled
    }

    /// True until the first sample is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exact `q`-quantile (nearest rank, `q` clamped to `[0, 1]`)
    /// of the retained window, or `None` before any sample arrives.
    ///
    /// By construction the estimate is one of the retained samples, so
    /// it never leaves their min/max range, and the rank index is
    /// non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let mut window = {
            let st = self.state.lock();
            if st.filled == 0 {
                return None;
            }
            st.ring[..st.filled].to_vec()
        };
        window.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let idx = ((window.len() - 1) as f64 * q).ceil() as usize;
        Some(Duration::from_nanos(window[idx]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimator_has_no_quantile() {
        let est = LatencyEstimator::new(8);
        assert!(est.is_empty());
        assert_eq!(est.quantile(0.99), None);
    }

    #[test]
    fn quantile_extremes_are_min_and_max() {
        let est = LatencyEstimator::new(16);
        for ns in [30u64, 10, 20] {
            est.record(Duration::from_nanos(ns));
        }
        assert_eq!(est.quantile(0.0), Some(Duration::from_nanos(10)));
        assert_eq!(est.quantile(1.0), Some(Duration::from_nanos(30)));
        assert_eq!(est.len(), 3);
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let est = LatencyEstimator::new(0);
        est.record(Duration::from_nanos(5));
        est.record(Duration::from_nanos(9));
        // Only the latest sample survives in a one-slot window.
        assert_eq!(est.quantile(0.0), Some(Duration::from_nanos(9)));
        assert_eq!(est.quantile(1.0), Some(Duration::from_nanos(9)));
    }

    #[test]
    fn ring_evicts_oldest_samples_first() {
        let est = LatencyEstimator::new(4);
        for ns in 1..=6u64 {
            est.record(Duration::from_micros(ns));
        }
        // Samples 1 and 2 µs fell off; 3..=6 remain.
        assert_eq!(est.quantile(0.0), Some(Duration::from_micros(3)));
        assert_eq!(est.quantile(1.0), Some(Duration::from_micros(6)));
        assert_eq!(est.len(), 4);
        assert_eq!(est.count(), 6);
    }
}
