//! The observability plane: the single subscriber seam through which
//! the engine publishes its lifecycle decisions, the transport's
//! latency samples and the chaos layer's fault records. Nothing is
//! retained for polling — not in the engine, not in the transport.
//!
//! An [`Observer`] is installed per instance
//! ([`Instance::set_observer`](crate::Instance::set_observer)) and
//! receives every [`TelemetryEvent`] *push-based*, at the moment the
//! engine makes the corresponding decision. The built-in subscribers
//! cover the common consumption patterns:
//!
//! * [`RingObserver`] — a bounded in-memory log the caller drains;
//!   overflow is *counted* ([`RingObserver::dropped`]) and surfaced as
//!   a [`TelemetryPayload::Lost`] marker instead of vanishing;
//! * [`MetricsObserver`] — folds the stream into an
//!   [`InstanceMetrics`] snapshot (counters plus log-scale latency
//!   histograms, per instance and per performance);
//! * [`MultiObserver`] — fans one stream out to several subscribers
//!   (the instance holds one observer; pass one of these for more).
//!
//! # Ordering guarantees
//!
//! Events of one performance carry a gapless, strictly increasing
//! `seq` starting at 0, and are delivered in `seq` order: the engine
//! holds the performance's telemetry lock across delivery, so no
//! observer ever sees performance-local events reordered — even when
//! part of the performance runs on a remote hub and its fault events
//! arrive over TCP. Instance-scoped events (those with
//! `performance == None`) form their own gapless sequence. Across
//! *different* performances the interleaving is the real arrival
//! order, which is all a causally consistent merged stream can
//! promise.
//!
//! # Observer discipline
//!
//! `on_event` runs synchronously on whichever thread produced the
//! event — a role body mid-rendezvous, the watchdog, a socket reader —
//! possibly with engine locks held. Observers must be fast, must not
//! block, and **must not call back into the [`Instance`](crate::Instance)
//! API** (doing so can deadlock the engine).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::{
    FaultRecord, LatencySample, PerformanceId, ProcessId, RendezvousRecord, RoleId, SessionEvent,
};

/// A subscriber on the instance's telemetry plane.
///
/// See the [module docs](self) for the delivery and ordering contract.
pub trait Observer: Send + Sync {
    /// Called once per [`TelemetryEvent`], on the producing thread.
    fn on_event(&self, event: TelemetryEvent);
}

/// One event on the observability plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Position in this event's sequence: gapless and strictly
    /// increasing from 0 within one performance (or within the
    /// instance-scoped stream when `performance` is `None`).
    pub seq: u64,
    /// The performance this event belongs to; `None` for
    /// instance-scoped events (enrollment queueing, instance close,
    /// and synthesized [`TelemetryPayload::Lost`] markers).
    pub performance: Option<PerformanceId>,
    /// Coarse timestamp: elapsed time since the instance was created.
    pub timestamp: Duration,
    /// What happened.
    pub payload: TelemetryPayload,
}

/// What a [`TelemetryEvent`] says happened: the plane's one event
/// vocabulary. The engine's lifecycle decisions, the transport's own
/// records (faults, rendezvous, session transitions, latency samples)
/// and the watchdog's arms share it, each variant said once; the
/// performance an event belongs to is [`TelemetryEvent::performance`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TelemetryPayload {
    /// An enrollment entered the pending queue (instance-scoped). For
    /// auto-indexed open family enrollments the role carries the family
    /// name without an index.
    EnrollmentQueued {
        /// The requested role.
        role: RoleId,
        /// The enrolling process.
        process: ProcessId,
    },
    /// A new performance was created.
    PerformanceStarted,
    /// A pending enrollment was admitted into the performance's cast.
    RoleAdmitted {
        /// The concrete role (auto-indexed members are resolved here).
        role: RoleId,
        /// The enrolled process.
        process: ProcessId,
    },
    /// The cast froze: unfilled roles became terminated.
    CastFrozen,
    /// A role's body returned.
    RoleFinished {
        /// The finished role.
        role: RoleId,
    },
    /// The performance aborted (panic, close, or watchdog).
    PerformanceAborted,
    /// The watchdog found the performance quiescent past its deadline
    /// (always followed by [`TelemetryPayload::PerformanceAborted`]).
    PerformanceStalled {
        /// The rendezvous-latency p99 the performance's estimator had
        /// observed when the watchdog fired (`None` before any
        /// rendezvous completed).
        observed_p99: Option<Duration>,
        /// The quiescence window the watchdog had armed — fixed or
        /// adaptively derived (see [`WatchdogPolicy`](crate::WatchdogPolicy)).
        window: Duration,
    },
    /// Every role of the performance terminated.
    PerformanceCompleted {
        /// Whether it completed by abort.
        aborted: bool,
    },
    /// The instance was closed (instance-scoped).
    InstanceClosed,
    /// The chaos layer injected a fault into the performance's network,
    /// pushed at injection time to whatever observer is installed then
    /// ([`Instance::set_fault_plan`](crate::Instance::set_fault_plan)).
    /// Faults of a plan the engine did not attach (a network factory's,
    /// or a hub's own) are followed only if an observer was installed
    /// when the performance opened.
    Fault(FaultRecord<RoleId>),
    /// A rendezvous completed on the performance's transport, observed
    /// at delivery: the stream of these *is* the performance's
    /// communication trace, the input a protocol conformance monitor
    /// (`script_proto::monitor`) checks. Its label is set by a labeler
    /// ([`Instance::set_message_labeler`](crate::Instance::set_message_labeler)).
    Rendezvous(RendezvousRecord<RoleId>),
    /// A session-aware transport reported a peer's link severed, resumed
    /// within its lease, or lapsed (after which the peer degrades like a
    /// crashed one). The in-process transport emits none.
    Session(SessionEvent<RoleId>),
    /// A successful blocking operation's measured rendezvous latency,
    /// routed up from the performance's transport.
    Latency(LatencySample),
    /// The quiescence watchdog (re-)armed its window for this
    /// performance. Emitted when the window first arms and whenever it
    /// moves by at least 1/8 relative to the last announced value, so
    /// adaptive policies do not flood the plane on every poll.
    WatchdogArmed {
        /// The armed quiescence window.
        window: Duration,
        /// The rendezvous-latency p99 the window was derived from
        /// (`None` before any rendezvous completed).
        observed_p99: Option<Duration>,
    },
    /// `count` events were dropped by a bounded subscriber since it
    /// was last drained. Synthesized by [`RingObserver::drain`]; sits
    /// outside per-performance numbering (`seq` 0, no performance,
    /// zero timestamp).
    Lost {
        /// How many events were dropped.
        count: u64,
    },
    /// A runtime conformance monitor (`script_proto::monitor`) found
    /// the performance's observed communication trace diverging from
    /// its protocol — the **first** divergence per performance is
    /// reported, then checking for that performance stops.
    /// Synthesized by the monitor and forwarded to its downstream
    /// subscriber; the engine itself never emits this.
    ProtocolViolation {
        /// The role whose local protocol was violated.
        role: RoleId,
        /// What the role's local type expected next
        /// (human-readable, e.g. `B!ack`).
        expected: String,
        /// The rendezvous actually observed (e.g. `C!ack`).
        observed: String,
        /// `seq` of the [`TelemetryPayload::Rendezvous`] telemetry
        /// event that diverged — identifies the exact point in the
        /// performance's gapless stream, comparable across
        /// transports.
        at_seq: u64,
    },
}

/// State shared by every [`RingObserver`] accessor.
struct RingState {
    buf: VecDeque<TelemetryEvent>,
    /// Overflow drops since the last [`RingObserver::drain`].
    dropped_since_drain: u64,
    /// Overflow drops over the ring's lifetime.
    dropped_total: u64,
}

/// The bounded in-memory event log, as a plane subscriber: retains the
/// most recent `capacity` events, *counting* what overflow discards.
///
/// Install one with
/// [`Instance::set_observer`](crate::Instance::set_observer), keeping
/// a clone of the `Arc` to drain. A drain that lost events is prefixed
/// with a synthesized [`TelemetryPayload::Lost`] marker, and the
/// lifetime total is [`RingObserver::dropped`].
pub struct RingObserver {
    capacity: usize,
    state: Mutex<RingState>,
}

impl RingObserver {
    /// A ring retaining the most recent `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                buf: VecDeque::with_capacity(capacity.clamp(1, 1024)),
                dropped_since_drain: 0,
                dropped_total: 0,
            }),
        }
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped to overflow over the ring's lifetime.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped_total
    }

    /// Drains the retained events, oldest first. If overflow dropped
    /// events since the previous drain, the result is prefixed with a
    /// [`TelemetryPayload::Lost`] marker carrying the count.
    pub fn drain(&self) -> Vec<TelemetryEvent> {
        let mut st = self.state.lock();
        let lost = st.dropped_since_drain;
        st.dropped_since_drain = 0;
        let mut out = Vec::with_capacity(st.buf.len() + usize::from(lost > 0));
        if lost > 0 {
            out.push(TelemetryEvent {
                seq: 0,
                performance: None,
                timestamp: Duration::ZERO,
                payload: TelemetryPayload::Lost { count: lost },
            });
        }
        out.extend(st.buf.drain(..));
        out
    }
}

impl Observer for RingObserver {
    fn on_event(&self, event: TelemetryEvent) {
        let mut st = self.state.lock();
        if st.buf.len() == self.capacity {
            st.buf.pop_front();
            st.dropped_since_drain += 1;
            st.dropped_total += 1;
        }
        st.buf.push_back(event);
    }
}

impl fmt::Debug for RingObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("RingObserver")
            .field("capacity", &self.capacity)
            .field("len", &st.buf.len())
            .field("dropped", &st.dropped_total)
            .finish()
    }
}

/// Fans one telemetry stream out to several subscribers, in
/// subscription order.
#[derive(Default)]
pub struct MultiObserver {
    subscribers: Vec<Arc<dyn Observer>>,
}

impl MultiObserver {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fan-out over `subscribers`.
    pub fn with(subscribers: Vec<Arc<dyn Observer>>) -> Self {
        Self { subscribers }
    }

    /// Adds a subscriber.
    pub fn subscribe(&mut self, observer: Arc<dyn Observer>) {
        self.subscribers.push(observer);
    }

    /// Number of subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// Whether the fan-out has no subscribers.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }
}

impl Observer for MultiObserver {
    fn on_event(&self, event: TelemetryEvent) {
        for sub in &self.subscribers {
            sub.on_event(event.clone());
        }
    }
}

impl fmt::Debug for MultiObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiObserver")
            .field("subscribers", &self.subscribers.len())
            .finish()
    }
}

/// A log-scale (powers of two, in nanoseconds) latency histogram.
///
/// Bucket *b* covers elapsed times in `[2^(b-1), 2^b)` ns (bucket 0 is
/// "zero"), so [`LatencyHistogram::quantile`] answers within a factor
/// of two at any scale — microsecond in-process rendezvous and
/// millisecond socket RPCs fit the same 64 buckets.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one elapsed time.
    pub fn record(&mut self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let idx = if nanos == 0 {
            0
        } else {
            ((64 - nanos.leading_zeros()) as usize).min(63)
        };
        self.buckets[idx] += 1;
        self.count += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0 < q <= 1`), as the upper bound of the
    /// bucket holding the rank — an estimate within a factor of two.
    /// `None` while empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = 1u64.checked_shl(idx as u32).unwrap_or(u64::MAX);
                return Some(Duration::from_nanos(upper));
            }
        }
        None
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Per-performance slice of an [`InstanceMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct PerformanceMetrics {
    /// Telemetry events attributed to this performance.
    pub events: u64,
    /// Rendezvous completed on its network
    /// ([`TelemetryPayload::Rendezvous`]).
    pub rendezvous: u64,
    /// Protocol divergences a conformance monitor reported against it
    /// ([`TelemetryPayload::ProtocolViolation`]).
    pub protocol_violations: u64,
    /// Faults the chaos layer injected into its network.
    pub faults_injected: u64,
    /// Its observed rendezvous latencies.
    pub latency: LatencyHistogram,
    /// Whether it has completed (normally or by abort).
    pub completed: bool,
    /// Whether it aborted.
    pub aborted: bool,
    /// Whether the watchdog declared it stalled.
    pub stalled: bool,
}

/// A point-in-time aggregate of everything a [`MetricsObserver`] has
/// seen: lifecycle counters plus latency histograms, per instance and
/// per performance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct InstanceMetrics {
    /// Total telemetry events observed.
    pub events: u64,
    /// Enrollments that entered the pending queue.
    pub enrollments_queued: u64,
    /// Performances created.
    pub performances_started: u64,
    /// Performances fully terminated.
    pub performances_completed: u64,
    /// Performances aborted (panic, close, or watchdog).
    pub performances_aborted: u64,
    /// Performances the watchdog declared stalled.
    pub performances_stalled: u64,
    /// Roles admitted into casts.
    pub roles_admitted: u64,
    /// Role bodies that returned.
    pub roles_finished: u64,
    /// Casts frozen.
    pub casts_frozen: u64,
    /// Faults the chaos layer injected.
    pub faults_injected: u64,
    /// Watchdog window (re-)arms announced on the plane.
    pub watchdog_arms: u64,
    /// Events a bounded subscriber reported lost
    /// ([`TelemetryPayload::Lost`]).
    pub events_lost: u64,
    /// Peer connections reported severed within a live session lease
    /// ([`SessionEvent::PeerDisconnected`]).
    pub peer_disconnects: u64,
    /// Severed peers that resumed their session within the lease
    /// ([`SessionEvent::PeerResumed`]).
    pub peer_resumes: u64,
    /// Severed peers whose lease expired without a resume
    /// ([`SessionEvent::LeaseExpired`]).
    pub lease_expiries: u64,
    /// Rendezvous completed ([`TelemetryPayload::Rendezvous`]).
    pub rendezvous: u64,
    /// Protocol divergences reported by a conformance monitor
    /// ([`TelemetryPayload::ProtocolViolation`]).
    pub protocol_violations: u64,
    /// All observed rendezvous latencies.
    pub latency: LatencyHistogram,
    /// Per-performance aggregates, in performance order.
    pub per_performance: Vec<(PerformanceId, PerformanceMetrics)>,
}

struct MetricsState {
    totals: InstanceMetrics,
    per_performance: BTreeMap<PerformanceId, PerformanceMetrics>,
}

/// A plane subscriber that folds the event stream into an
/// [`InstanceMetrics`] snapshot — counters and latency histograms
/// derived *entirely* from observed [`TelemetryEvent`]s, with no
/// second seam into the engine.
pub struct MetricsObserver {
    state: Mutex<MetricsState>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsObserver {
    /// A fresh, all-zero metrics aggregator.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(MetricsState {
                totals: InstanceMetrics::default(),
                per_performance: BTreeMap::new(),
            }),
        }
    }

    /// The current aggregate, as of the last event delivered.
    pub fn snapshot(&self) -> InstanceMetrics {
        let st = self.state.lock();
        let mut out = st.totals.clone();
        out.per_performance = st
            .per_performance
            .iter()
            .map(|(id, m)| (*id, m.clone()))
            .collect();
        out
    }
}

impl Observer for MetricsObserver {
    fn on_event(&self, event: TelemetryEvent) {
        use TelemetryPayload as P;
        let mut st = self.state.lock();
        st.totals.events += 1;
        let perf = event
            .performance
            .map(|id| st.per_performance.entry(id).or_default());
        if let Some(p) = perf {
            p.events += 1;
            match &event.payload {
                P::Rendezvous(_) => p.rendezvous += 1,
                P::ProtocolViolation { .. } => p.protocol_violations += 1,
                P::Fault(_) => p.faults_injected += 1,
                P::PerformanceCompleted { aborted } => {
                    p.completed = true;
                    p.aborted |= aborted;
                }
                P::PerformanceAborted => p.aborted = true,
                P::PerformanceStalled { .. } => p.stalled = true,
                P::Latency(sample) => p.latency.record(sample.elapsed),
                _ => {}
            }
        }
        let totals = &mut st.totals;
        match event.payload {
            P::EnrollmentQueued { .. } => totals.enrollments_queued += 1,
            P::PerformanceStarted => totals.performances_started += 1,
            P::RoleAdmitted { .. } => totals.roles_admitted += 1,
            P::CastFrozen => totals.casts_frozen += 1,
            P::RoleFinished { .. } => totals.roles_finished += 1,
            P::PerformanceAborted => totals.performances_aborted += 1,
            P::PerformanceStalled { .. } => totals.performances_stalled += 1,
            P::PerformanceCompleted { .. } => totals.performances_completed += 1,
            P::InstanceClosed => {}
            P::Fault(_) => totals.faults_injected += 1,
            P::Rendezvous(_) => totals.rendezvous += 1,
            P::Session(SessionEvent::PeerDisconnected(_)) => totals.peer_disconnects += 1,
            P::Session(SessionEvent::PeerResumed(_)) => totals.peer_resumes += 1,
            P::Session(SessionEvent::LeaseExpired(_)) => totals.lease_expiries += 1,
            P::Latency(sample) => totals.latency.record(sample.elapsed),
            P::WatchdogArmed { .. } => totals.watchdog_arms += 1,
            P::Lost { count } => totals.events_lost += count,
            P::ProtocolViolation { .. } => totals.protocol_violations += 1,
        }
    }
}

impl fmt::Debug for MetricsObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("MetricsObserver")
            .field("events", &st.totals.events)
            .field("performances", &st.per_performance.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, perf: u64, payload: TelemetryPayload) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            performance: Some(PerformanceId(perf)),
            timestamp: Duration::from_millis(seq),
            payload,
        }
    }

    fn started(seq: u64, perf: u64) -> TelemetryEvent {
        ev(seq, perf, TelemetryPayload::PerformanceStarted)
    }

    #[test]
    fn ring_counts_overflow_and_prefixes_lost_marker() {
        let ring = RingObserver::new(2);
        for i in 0..5 {
            ring.on_event(started(i, 0));
        }
        assert_eq!(ring.dropped(), 3);
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].payload, TelemetryPayload::Lost { count: 3 });
        assert_eq!(drained[1].seq, 3);
        assert_eq!(drained[2].seq, 4);
        // The since-drain counter reset; the lifetime total did not.
        assert!(ring.drain().is_empty());
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn multi_observer_fans_out_in_order() {
        let a = Arc::new(RingObserver::new(8));
        let b = Arc::new(RingObserver::new(8));
        let mut multi = MultiObserver::new();
        multi.subscribe(Arc::clone(&a) as Arc<dyn Observer>);
        multi.subscribe(Arc::clone(&b) as Arc<dyn Observer>);
        assert_eq!(multi.len(), 2);
        multi.on_event(started(0, 1));
        assert_eq!(a.drain(), b.drain());
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let mut h = LatencyHistogram::new();
        assert!(h.quantile(0.5).is_none());
        for micros in [10u64, 20, 40, 80, 5000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= Duration::from_micros(40) && p50 <= Duration::from_micros(80));
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= Duration::from_micros(5000));
        assert!(p100 <= Duration::from_micros(16384));
    }

    #[test]
    fn metrics_observer_folds_the_stream() {
        let m = MetricsObserver::new();
        m.on_event(TelemetryEvent {
            seq: 0,
            performance: None,
            timestamp: Duration::ZERO,
            payload: TelemetryPayload::EnrollmentQueued {
                role: RoleId::new("r"),
                process: ProcessId::new("p"),
            },
        });
        m.on_event(started(0, 3));
        m.on_event(ev(
            1,
            3,
            TelemetryPayload::Latency(LatencySample {
                op: crate::LatencyOp::Send,
                elapsed: Duration::from_micros(50),
            }),
        ));
        m.on_event(ev(
            2,
            3,
            TelemetryPayload::PerformanceCompleted { aborted: false },
        ));
        m.on_event(TelemetryEvent {
            seq: 0,
            performance: None,
            timestamp: Duration::ZERO,
            payload: TelemetryPayload::Lost { count: 7 },
        });
        let snap = m.snapshot();
        assert_eq!(snap.events, 5);
        assert_eq!(snap.enrollments_queued, 1);
        assert_eq!(snap.performances_started, 1);
        assert_eq!(snap.performances_completed, 1);
        assert_eq!(snap.events_lost, 7);
        assert_eq!(snap.latency.count(), 1);
        assert_eq!(snap.per_performance.len(), 1);
        let (id, perf) = &snap.per_performance[0];
        assert_eq!(*id, PerformanceId(3));
        assert_eq!(perf.events, 3);
        assert!(perf.completed && !perf.aborted);
        assert_eq!(perf.latency.count(), 1);
    }
}
