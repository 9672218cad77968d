//! Initiation, termination, critical-role-set, and watchdog policies.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::estimator::LatencyEstimator;
use crate::RoleId;

/// When a performance of a script begins (paper §II, *Script Initiation
/// and Termination*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Initiation {
    /// Processes must first enroll in all roles of some critical role set;
    /// only then does the performance (and every role body) begin. This
    /// enforces global synchronization across the whole cast.
    #[default]
    Delayed,
    /// The performance starts with the first enrollment; later processes
    /// join while it is in progress. A role blocks only when it attempts
    /// to communicate with an unfilled role.
    Immediate,
}

/// When enrolled processes are released from a performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Termination {
    /// All processes are freed together, once every role of the cast has
    /// finished.
    #[default]
    Delayed,
    /// Each process is freed as soon as its own role body returns.
    Immediate,
}

/// How the quiescence watchdog sizes a performance's window (see
/// [`Instance::set_watchdog_policy`](crate::Instance::set_watchdog_policy)).
///
/// Whichever policy is installed, the window the watchdog actually
/// arms — and, under [`WatchdogPolicy::Adaptive`], the observed p99 it
/// was derived from — is reported on the telemetry plane as
/// [`TelemetryPayload::WatchdogArmed`](crate::TelemetryPayload::WatchdogArmed)
/// whenever it first arms or moves by ≥ 1/8 of its previous value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WatchdogPolicy {
    /// A constant window for every performance. A performance of roles
    /// that compute without communicating for longer than the window
    /// is treated as hung; size it accordingly.
    Fixed(Duration),
    /// A window derived from each performance's *own* observed
    /// rendezvous latency: `max(min_window, multiplier × p-quantile)`,
    /// re-evaluated on every watchdog poll. In-process performances
    /// keep tight millisecond windows while socket-backed ones widen
    /// to RPC latency, with no per-transport tuning.
    Adaptive(AdaptiveWindow),
}

impl WatchdogPolicy {
    /// The adaptive policy with default parameters — the recommended
    /// starting point when an instance mixes transports.
    pub fn adaptive() -> Self {
        Self::Adaptive(AdaptiveWindow::default())
    }

    /// Panics on parameters that could never arm a sane window; called
    /// once when the policy is installed, so misconfiguration fails at
    /// `set_watchdog_policy` rather than silently in a monitor thread.
    pub(crate) fn validate(&self) {
        match self {
            Self::Fixed(window) => {
                assert!(*window > Duration::ZERO, "watchdog window must be positive");
            }
            Self::Adaptive(a) => {
                assert!(
                    a.min_window > Duration::ZERO,
                    "adaptive min_window must be positive"
                );
                assert!(
                    a.max_window >= a.min_window,
                    "adaptive max_window must be >= min_window"
                );
                assert!(
                    a.initial > Duration::ZERO,
                    "adaptive initial window must be positive"
                );
                assert!(
                    a.multiplier.is_finite() && a.multiplier >= 1.0,
                    "adaptive multiplier must be finite and >= 1"
                );
                assert!(
                    a.quantile > 0.0 && a.quantile <= 1.0,
                    "adaptive quantile must be in (0, 1]"
                );
                assert!(a.capacity > 0, "adaptive sample capacity must be positive");
                assert!(
                    (0.0..=1.0).contains(&a.smoothing),
                    "adaptive smoothing must be in [0, 1]"
                );
            }
        }
    }
}

/// Parameters of [`WatchdogPolicy::Adaptive`].
///
/// The armed window is `clamp(multiplier × quantile(observed),
/// min_window, max_window)`; until `warmup` samples have been recorded
/// the window never drops below `initial`, and an EWMA floor (weight
/// `smoothing` on the newest value) makes the window shrink gradually
/// after a slow→fast regime shift while still widening instantly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveWindow {
    /// Hard lower bound on the armed window.
    pub min_window: Duration,
    /// Hard upper bound on the armed window.
    pub max_window: Duration,
    /// Window used before any sample arrives, and the floor during
    /// warmup — generous enough to cover a cold transport's first
    /// rendezvous.
    pub initial: Duration,
    /// Safety factor `k` applied to the observed quantile. The default
    /// of 8 tolerates an 8× latency excursion beyond the p99 before
    /// calling a performance stalled.
    pub multiplier: f64,
    /// Which latency quantile to track (default 0.99).
    pub quantile: f64,
    /// Samples required before the `initial` floor is lifted.
    pub warmup: u64,
    /// Retained-sample window size of the per-shard estimator.
    pub capacity: usize,
    /// EWMA weight of the newest raw window in the decay floor
    /// (`1.0` disables smoothing entirely).
    pub smoothing: f64,
}

impl Default for AdaptiveWindow {
    fn default() -> Self {
        Self {
            min_window: Duration::from_millis(25),
            max_window: Duration::from_secs(30),
            initial: Duration::from_millis(500),
            multiplier: 8.0,
            quantile: 0.99,
            warmup: 8,
            capacity: 256,
            smoothing: 0.3,
        }
    }
}

impl AdaptiveWindow {
    /// Overrides the hard lower bound on the armed window.
    pub fn with_min_window(mut self, min_window: Duration) -> Self {
        self.min_window = min_window;
        self
    }

    /// Overrides the hard upper bound on the armed window.
    pub fn with_max_window(mut self, max_window: Duration) -> Self {
        self.max_window = max_window;
        self
    }

    /// Overrides the cold-start window.
    pub fn with_initial(mut self, initial: Duration) -> Self {
        self.initial = initial;
        self
    }

    /// Overrides the safety factor `k`.
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = multiplier;
        self
    }

    /// The raw (pre-smoothing) window for the estimator's current
    /// state, plus the observed quantile itself. Pure in the
    /// estimator's retained sample multiset and total count.
    pub fn window_for(&self, est: &LatencyEstimator) -> (Duration, Option<Duration>) {
        let observed = est.quantile(self.quantile);
        let mut window = match observed {
            // Cap the quantile before scaling so a pathological sample
            // cannot overflow `mul_f64`; the final clamp re-applies the
            // same ceiling anyway.
            Some(q) => q.min(self.max_window).mul_f64(self.multiplier),
            None => self.initial,
        };
        if est.count() < self.warmup {
            window = window.max(self.initial);
        }
        window = window.max(self.min_window).min(self.max_window);
        (window, observed)
    }
}

/// One alternative critical role set: a subset of roles whose enrollment
/// suffices for a performance (paper §II, *Critical Role Set*).
///
/// A critical set is built from entries naming singleton roles, specific
/// family members, whole families, or a minimum count of an (open) family.
///
/// # Example
///
/// ```
/// use script_core::CriticalSet;
///
/// // The lock-manager example: all managers plus the reader.
/// let cs = CriticalSet::new().family("manager").role("reader");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CriticalSet {
    pub(crate) entries: Vec<CriticalEntry>,
}

/// One entry of a [`CriticalSet`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CriticalEntry {
    /// A singleton role, by name.
    Role(String),
    /// One specific member of a family.
    Member(String, usize),
    /// Every member of a (fixed-size) family.
    Family(String),
    /// At least `1`.. members of a family, counted at freeze time. Only
    /// meaningful with [`Initiation::Immediate`].
    FamilyAtLeast(String, usize),
}

impl CriticalSet {
    /// An empty critical set; add entries with the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requires the singleton role `name`.
    pub fn role(mut self, name: impl Into<String>) -> Self {
        self.entries.push(CriticalEntry::Role(name.into()));
        self
    }

    /// Requires member `index` of family `name`.
    pub fn member(mut self, name: impl Into<String>, index: usize) -> Self {
        self.entries.push(CriticalEntry::Member(name.into(), index));
        self
    }

    /// Requires every member of the fixed-size family `name`.
    pub fn family(mut self, name: impl Into<String>) -> Self {
        self.entries.push(CriticalEntry::Family(name.into()));
        self
    }

    /// Requires at least `count` enrolled members of family `name`.
    pub fn family_at_least(mut self, name: impl Into<String>, count: usize) -> Self {
        self.entries
            .push(CriticalEntry::FamilyAtLeast(name.into(), count));
        self
    }

    /// Returns `true` if the set has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Expands the exact entries into concrete role ids, given the sizes
    /// of fixed families. `FamilyAtLeast` entries are returned separately.
    pub(crate) fn expand(
        &self,
        family_size: &dyn Fn(&str) -> Option<usize>,
    ) -> (BTreeSet<RoleId>, Vec<(String, usize)>) {
        let mut exact = BTreeSet::new();
        let mut at_least = Vec::new();
        for e in &self.entries {
            match e {
                CriticalEntry::Role(name) => {
                    exact.insert(RoleId::new(name));
                }
                CriticalEntry::Member(name, i) => {
                    exact.insert(RoleId::indexed(name, *i));
                }
                CriticalEntry::Family(name) => {
                    if let Some(n) = family_size(name) {
                        for i in 0..n {
                            exact.insert(RoleId::indexed(name, i));
                        }
                    }
                }
                CriticalEntry::FamilyAtLeast(name, k) => {
                    at_least.push((name.clone(), *k));
                }
            }
        }
        (exact, at_least)
    }
}

impl fmt::Display for CriticalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match e {
                CriticalEntry::Role(n) => write!(f, "{n}")?,
                CriticalEntry::Member(n, i) => write!(f, "{n}[{i}]")?,
                CriticalEntry::Family(n) => write!(f, "{n}[*]")?,
                CriticalEntry::FamilyAtLeast(n, k) => write!(f, "{n}[>={k}]")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_delayed() {
        assert_eq!(Initiation::default(), Initiation::Delayed);
        assert_eq!(Termination::default(), Termination::Delayed);
    }

    #[test]
    fn expand_mixed_entries() {
        let cs = CriticalSet::new()
            .role("sender")
            .member("aux", 7)
            .family("recipient")
            .family_at_least("worker", 2);
        let sizes = |name: &str| match name {
            "recipient" => Some(3),
            _ => None,
        };
        let (exact, at_least) = cs.expand(&sizes);
        assert!(exact.contains(&RoleId::new("sender")));
        assert!(exact.contains(&RoleId::indexed("aux", 7)));
        for i in 0..3 {
            assert!(exact.contains(&RoleId::indexed("recipient", i)));
        }
        assert_eq!(exact.len(), 5);
        assert_eq!(at_least, vec![("worker".to_string(), 2)]);
    }

    #[test]
    fn display_renders_entries() {
        let cs = CriticalSet::new()
            .role("r")
            .member("f", 1)
            .family("g")
            .family_at_least("h", 4);
        assert_eq!(cs.to_string(), "{r, f[1], g[*], h[>=4]}");
    }

    #[test]
    fn empty_set_detected() {
        assert!(CriticalSet::new().is_empty());
        assert!(!CriticalSet::new().role("x").is_empty());
    }

    #[test]
    fn adaptive_window_starts_at_initial() {
        let a = AdaptiveWindow::default();
        let est = LatencyEstimator::new(a.capacity);
        assert_eq!(a.window_for(&est), (a.initial, None));
    }

    #[test]
    fn adaptive_window_holds_initial_floor_through_warmup() {
        let a = AdaptiveWindow::default();
        let est = LatencyEstimator::new(a.capacity);
        let fast = Duration::from_micros(50);
        for _ in 0..a.warmup - 1 {
            est.record(fast);
        }
        let (w, p99) = a.window_for(&est);
        assert_eq!(w, a.initial);
        assert_eq!(p99, Some(fast));
        // One more sample completes warmup; the window drops to the
        // clamped multiple of the observation.
        est.record(fast);
        assert_eq!(a.window_for(&est), (a.min_window, Some(fast)));
    }

    #[test]
    fn adaptive_window_scales_with_observed_quantile() {
        let a = AdaptiveWindow::default();
        let est = LatencyEstimator::new(a.capacity);
        let slow = Duration::from_millis(40);
        for _ in 0..16 {
            est.record(slow);
        }
        let (w, p99) = a.window_for(&est);
        assert_eq!(p99, Some(slow));
        assert_eq!(w, slow.mul_f64(a.multiplier));
        assert!(w <= a.max_window);
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn adaptive_validation_rejects_shrinking_multiplier() {
        WatchdogPolicy::Adaptive(AdaptiveWindow::default().with_multiplier(0.5)).validate();
    }
}
