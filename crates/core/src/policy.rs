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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WatchdogPolicy {
    /// A constant window for every performance. A performance of roles
    /// that compute without communicating for longer than the window
    /// is treated as hung; size it accordingly.
    Fixed(Duration),
    /// A window derived from each performance's *own* observed
    /// rendezvous latency by [`AdaptiveWindow`], re-evaluated on every
    /// watchdog poll. In-process performances keep tight millisecond
    /// windows while socket-backed ones widen to RPC latency, with no
    /// per-transport tuning.
    Adaptive,
}

/// The window [`WatchdogPolicy::Adaptive`] arms, from constants that
/// are not settable.
///
/// The raw window is `clamp(MULTIPLIER × QUANTILE(observed),
/// MIN_WINDOW, MAX_WINDOW)` over the estimator's last `CAPACITY`
/// samples; until `WARMUP` samples have been recorded it never drops
/// below `INITIAL`. The armed window is the raw one under an EWMA floor
/// (weight `SMOOTHING` on the newest value), so it widens *immediately*
/// when rendezvous slow down but shrinks only geometrically after a
/// slow→fast regime shift: a burst of fast samples cannot collapse the
/// window underneath an operation that started in the slower regime.
#[derive(Debug, Default)]
pub struct AdaptiveWindow {
    /// The EWMA floor in nanoseconds; 0 until the first window.
    floor_ns: f64,
}

impl AdaptiveWindow {
    /// Hard lower bound on the armed window.
    pub const MIN_WINDOW: Duration = Duration::from_millis(25);
    /// Hard upper bound on the armed window.
    pub const MAX_WINDOW: Duration = Duration::from_secs(30);
    /// The window before any sample arrives, and the floor during
    /// warm-up: generous enough for a cold transport's first rendezvous.
    pub const INITIAL: Duration = Duration::from_millis(500);
    /// Safety factor on the observed quantile: an 8× excursion beyond
    /// the p99 is tolerated before a performance is called stalled.
    pub const MULTIPLIER: f64 = 8.0;
    /// The latency quantile tracked.
    pub const QUANTILE: f64 = 0.99;
    /// Samples recorded before the `INITIAL` floor lifts.
    pub const WARMUP: u64 = 8;
    /// Samples a watched performance's estimator retains, under either
    /// policy.
    pub const CAPACITY: usize = 256;
    /// EWMA weight of the newest raw window in the floor.
    pub const SMOOTHING: f64 = 0.3;

    /// The raw (pre-smoothing) window for the estimator's current
    /// state, plus the observed quantile itself. Pure in the
    /// estimator's retained sample multiset and total count.
    pub fn window_for(est: &LatencyEstimator) -> (Duration, Option<Duration>) {
        let observed = est.quantile(Self::QUANTILE);
        let mut window = match observed {
            // Cap the quantile before scaling so a pathological sample
            // cannot overflow `mul_f64`; the final clamp re-applies the
            // same ceiling anyway.
            Some(q) => q.min(Self::MAX_WINDOW).mul_f64(Self::MULTIPLIER),
            None => Self::INITIAL,
        };
        if est.count() < Self::WARMUP {
            window = window.max(Self::INITIAL);
        }
        (window.clamp(Self::MIN_WINDOW, Self::MAX_WINDOW), observed)
    }

    /// The window to arm next, and the observed quantile: the raw
    /// window under the floor, which it also moves.
    pub(crate) fn arm(&mut self, est: &LatencyEstimator) -> (Duration, Option<Duration>) {
        let (raw, observed) = Self::window_for(est);
        (self.smooth(raw).min(Self::MAX_WINDOW), observed)
    }

    /// Folds `raw` into the floor and returns the larger of the two.
    fn smooth(&mut self, raw: Duration) -> Duration {
        let raw_ns = raw.as_secs_f64() * 1e9;
        self.floor_ns = if self.floor_ns == 0.0 {
            raw_ns
        } else {
            Self::SMOOTHING * raw_ns + (1.0 - Self::SMOOTHING) * self.floor_ns
        };
        if self.floor_ns > raw_ns {
            Duration::from_secs_f64(self.floor_ns / 1e9)
        } else {
            raw
        }
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
        let est = LatencyEstimator::new(AdaptiveWindow::CAPACITY);
        assert_eq!(
            AdaptiveWindow::window_for(&est),
            (AdaptiveWindow::INITIAL, None)
        );
    }

    #[test]
    fn adaptive_window_holds_initial_floor_through_warmup() {
        let est = LatencyEstimator::new(AdaptiveWindow::CAPACITY);
        let fast = Duration::from_micros(50);
        for _ in 0..AdaptiveWindow::WARMUP - 1 {
            est.record(fast);
        }
        let (w, p99) = AdaptiveWindow::window_for(&est);
        assert_eq!(w, AdaptiveWindow::INITIAL);
        assert_eq!(p99, Some(fast));
        // One more sample completes warmup; the window drops to the
        // clamped multiple of the observation.
        est.record(fast);
        assert_eq!(
            AdaptiveWindow::window_for(&est),
            (AdaptiveWindow::MIN_WINDOW, Some(fast))
        );
    }

    #[test]
    fn adaptive_window_scales_with_observed_quantile() {
        let est = LatencyEstimator::new(AdaptiveWindow::CAPACITY);
        let slow = Duration::from_millis(40);
        for _ in 0..16 {
            est.record(slow);
        }
        let (w, p99) = AdaptiveWindow::window_for(&est);
        assert_eq!(p99, Some(slow));
        assert_eq!(w, slow.mul_f64(AdaptiveWindow::MULTIPLIER));
        assert!(w <= AdaptiveWindow::MAX_WINDOW);
    }

    #[test]
    fn floor_rises_instantly_and_decays_gradually() {
        let mut window = AdaptiveWindow::default();
        let slow = Duration::from_millis(400);
        let fast = Duration::from_millis(25);
        assert_eq!(window.smooth(slow), slow);
        // The first fast raw window is not armed verbatim: the floor
        // from the slow regime still dominates...
        let first = window.smooth(fast);
        assert!(first > fast && first < slow);
        // ...but repeated fast windows converge down to it.
        let mut last = first;
        for _ in 0..64 {
            last = window.smooth(fast);
        }
        assert_eq!(last, fast);
    }
}
