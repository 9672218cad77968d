//! Runtime protocol conformance monitoring on the observability plane.
//!
//! [`Session`](crate::Session) checks a role's *own* actions from the
//! inside; this module checks a whole performance from the *outside*.
//! A [`ConformanceMonitor`] is an [`Observer`]: subscribe it to an
//! instance ([`Instance::set_observer`](script_core::Instance::set_observer))
//! and it maps every [`TelemetryPayload::Rendezvous`] telemetry event —
//! the transport's own rendezvous record, attributed to the event's
//! performance — onto the [`Action`]s of the two roles involved,
//! advancing one projected [`LocalMonitor`] per role. The first
//! divergence per performance is captured as a [`Verdict`] — which
//! role broke the protocol, what its local type expected, what was
//! observed, and the telemetry `seq` of the divergent event — after
//! which checking for that performance stops (everything downstream
//! of a violation is noise).
//!
//! Because the engine's per-performance telemetry stream is gapless
//! and delivered in order on *both* the in-process and the socket
//! transport, a misbehaving role produces the **same verdict at the
//! same sequence number** regardless of where the performance runs —
//! the property the conformance suite pins.
//!
//! # Out-of-order tolerance
//!
//! Only per-*role* order is guaranteed by the stream (a role's
//! rendezvous events appear in its program order; events of disjoint
//! role pairs may interleave arbitrarily). The monitor therefore never
//! replays the global type sequentially: each event advances only the
//! sender's and the receiver's local monitors, so causally unrelated
//! rendezvous commute without false positives — the standard soundness
//! argument for distributed session monitoring.
//!
//! # Labels
//!
//! Matching needs message labels. Install a labeler on the instance
//! ([`Instance::set_message_labeler`](script_core::Instance::set_message_labeler);
//! hub-backed networks label hub-side via
//! `TransportServer::set_message_labeler`). An unlabeled rendezvous is
//! checked as the empty label, so any protocol expecting a real label
//! reports a violation — monitoring without a labeler fails loudly,
//! not silently.
//!
//! # Reaction
//!
//! The default policy records verdicts for later inspection
//! ([`ReactPolicy::Record`]). [`ReactPolicy::Abort`] additionally
//! invokes a caller-supplied hook with the offending performance id —
//! on a **freshly spawned thread**, never on the observer callback
//! itself: `on_event` runs on the producing thread with engine and
//! transport locks held, and an abort re-enters both (the observer
//! discipline of [`script_core::observer`] forbids calling back into
//! the instance API from a subscriber).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

use script_core::{Observer, PerformanceId, RoleId, TelemetryEvent, TelemetryPayload};

use crate::local::{Action, LocalMonitor, LocalType};
use crate::{GlobalType, ProtoError};

/// The structured outcome of the first protocol divergence observed in
/// one performance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The performance the divergence happened in.
    pub performance: PerformanceId,
    /// The role whose local protocol was violated.
    pub role: RoleId,
    /// What that role's local type expected next (human-readable).
    pub expected: String,
    /// The action actually observed.
    pub observed: String,
    /// `seq` of the diverging telemetry event in the performance's
    /// gapless stream — identical across transports for the same
    /// communication schedule.
    pub at_seq: u64,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "performance {:?} role {}: expected {}, observed {} (telemetry seq {})",
            self.performance.0, self.role, self.expected, self.observed, self.at_seq
        )
    }
}

/// Invoked (on a fresh thread) with the id of a performance the
/// monitor wants stopped. Typically closes over the
/// [`Instance`](script_core::Instance) and calls an abort entry point.
pub type AbortHook = Arc<dyn Fn(PerformanceId) + Send + Sync>;

/// What a [`ConformanceMonitor`] does beyond recording when it finds a
/// divergence.
#[derive(Clone, Default)]
pub enum ReactPolicy {
    /// Record the verdict; let the performance run on.
    #[default]
    Record,
    /// Record the verdict and invoke the hook with the offending
    /// performance id. The hook runs on a freshly spawned thread
    /// because `on_event` executes under engine and transport locks —
    /// aborting synchronously from there would deadlock (an abort
    /// broadcasts over every endpoint of the performance's network).
    Abort(AbortHook),
}

impl fmt::Debug for ReactPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReactPolicy::Record => write!(f, "Record"),
            ReactPolicy::Abort(_) => write!(f, "Abort(..)"),
        }
    }
}

/// Per-performance monitoring state: one [`LocalMonitor`] per protocol
/// role, plus the first (and only) verdict.
struct PerfState {
    monitors: BTreeMap<RoleId, LocalMonitor>,
    verdict: Option<Verdict>,
}

impl PerfState {
    fn fresh(projections: &BTreeMap<RoleId, LocalType>) -> Self {
        Self {
            monitors: projections
                .iter()
                .map(|(r, t)| (r.clone(), LocalMonitor::new(t.clone())))
                .collect(),
            verdict: None,
        }
    }
}

/// An [`Observer`] that checks every performance's communication trace
/// against a [`GlobalType`] at run time. See the [module docs](self).
pub struct ConformanceMonitor {
    projections: BTreeMap<RoleId, LocalType>,
    state: Mutex<BTreeMap<PerformanceId, PerfState>>,
    policy: ReactPolicy,
    /// Optional next observer: every incoming event is forwarded
    /// verbatim, and each verdict additionally surfaces as a
    /// synthesized [`TelemetryPayload::ProtocolViolation`] event (so a
    /// `MetricsObserver` downstream counts violations with no second
    /// seam).
    downstream: Option<Arc<dyn Observer>>,
}

impl ConformanceMonitor {
    /// Builds a monitor for `global`, projecting every role it
    /// mentions.
    ///
    /// # Errors
    ///
    /// Any validation or projection error of the global type
    /// ([`GlobalType::project`]); a type that does not project cannot
    /// be monitored.
    pub fn new(global: &GlobalType) -> Result<Self, ProtoError> {
        let mut projections = BTreeMap::new();
        for role in global.roles() {
            let local = global.project(&role)?;
            projections.insert(role, local);
        }
        Ok(Self {
            projections,
            state: Mutex::new(BTreeMap::new()),
            policy: ReactPolicy::Record,
            downstream: None,
        })
    }

    /// Sets the reaction policy (default: [`ReactPolicy::Record`]).
    #[must_use]
    pub fn with_policy(mut self, policy: ReactPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Chains another observer: all events are forwarded to it, and
    /// verdicts additionally surface as synthesized
    /// [`TelemetryPayload::ProtocolViolation`] events carrying the
    /// diverging event's `seq`, performance, and timestamp.
    #[must_use]
    pub fn with_downstream(mut self, downstream: Arc<dyn Observer>) -> Self {
        self.downstream = Some(downstream);
        self
    }

    /// The roles being monitored, in order.
    pub fn roles(&self) -> Vec<RoleId> {
        self.projections.keys().cloned().collect()
    }

    /// All verdicts so far, in performance order (at most one per
    /// performance — the first divergence).
    pub fn verdicts(&self) -> Vec<Verdict> {
        self.state
            .lock()
            .unwrap()
            .values()
            .filter_map(|p| p.verdict.clone())
            .collect()
    }

    /// The verdict for one performance, if it diverged.
    pub fn verdict(&self, performance: PerformanceId) -> Option<Verdict> {
        self.state
            .lock()
            .unwrap()
            .get(&performance)
            .and_then(|p| p.verdict.clone())
    }

    /// Whether every role's local monitor for `performance` has
    /// reached `End` — the trace observed so far is a *complete*
    /// protocol run, not just a conforming prefix. A performance the
    /// monitor never saw an event for is complete only if the protocol
    /// itself is empty.
    pub fn is_complete(&self, performance: PerformanceId) -> bool {
        let st = self.state.lock().unwrap();
        match st.get(&performance) {
            Some(p) => {
                p.verdict.is_none() && p.monitors.values().all(|m| m.is_done().unwrap_or(false))
            }
            None => self
                .projections
                .values()
                .all(|t| LocalMonitor::new(t.clone()).is_done().unwrap_or(false)),
        }
    }

    /// Advances one role's monitor, converting a failure into a
    /// verdict.
    fn advance_role(
        monitors: &mut BTreeMap<RoleId, LocalMonitor>,
        performance: PerformanceId,
        role: &RoleId,
        action: &Action,
        at_seq: u64,
    ) -> Option<Verdict> {
        let monitor = monitors.get_mut(role)?;
        match monitor.advance(action) {
            Ok(()) => None,
            Err(ProtoError::Violation { expected, got }) => Some(Verdict {
                performance,
                role: role.clone(),
                expected,
                observed: got,
                at_seq,
            }),
            Err(other) => Some(Verdict {
                performance,
                role: role.clone(),
                expected: other.to_string(),
                observed: action.to_string(),
                at_seq,
            }),
        }
    }

    /// Checks one observed rendezvous; returns the verdict if this is
    /// the performance's first divergence.
    fn check_rendezvous(
        &self,
        performance: PerformanceId,
        from: &RoleId,
        to: &RoleId,
        label: Option<&str>,
        at_seq: u64,
    ) -> Option<Verdict> {
        let mut st = self.state.lock().unwrap();
        let perf = st
            .entry(performance)
            .or_insert_with(|| PerfState::fresh(&self.projections));
        if perf.verdict.is_some() {
            return None; // only the first divergence is reported
        }
        // A rendezvous between two roles the protocol never mentions is
        // outside its scope; one monitored endpoint is enough to check.
        let label = label.unwrap_or_default().to_string();
        // Sender first: the send causally precedes the delivery, so a
        // divergence introduced by the sender is attributed to it even
        // when the receiver's monitor would also reject the event.
        let send = Action::Send {
            to: to.clone(),
            label: label.clone(),
        };
        let verdict = Self::advance_role(&mut perf.monitors, performance, from, &send, at_seq)
            .or_else(|| {
                let recv = Action::Recv {
                    from: from.clone(),
                    label,
                };
                Self::advance_role(&mut perf.monitors, performance, to, &recv, at_seq)
            });
        if let Some(v) = &verdict {
            perf.verdict = Some(v.clone());
        }
        verdict
    }

    /// Checks completion: a performance that finished normally with
    /// protocol remaining gets an incompleteness verdict.
    fn check_completed(&self, performance: PerformanceId, at_seq: u64) -> Option<Verdict> {
        let mut st = self.state.lock().unwrap();
        let perf = st
            .entry(performance)
            .or_insert_with(|| PerfState::fresh(&self.projections));
        if perf.verdict.is_some() {
            return None;
        }
        let unfinished = perf
            .monitors
            .iter()
            .find(|(_, m)| !m.is_done().unwrap_or(false))?;
        let verdict = Verdict {
            performance,
            role: unfinished.0.clone(),
            expected: unfinished.1.expected(),
            observed: "performance completed".to_string(),
            at_seq,
        };
        perf.verdict = Some(verdict.clone());
        Some(verdict)
    }

    /// Surfaces a fresh verdict: synthesized downstream event, then
    /// the reaction policy.
    fn react(&self, verdict: &Verdict, template: &TelemetryEvent) {
        if let Some(downstream) = &self.downstream {
            downstream.on_event(TelemetryEvent {
                seq: template.seq,
                performance: Some(verdict.performance),
                timestamp: template.timestamp,
                payload: TelemetryPayload::ProtocolViolation {
                    role: verdict.role.clone(),
                    expected: verdict.expected.clone(),
                    observed: verdict.observed.clone(),
                    at_seq: verdict.at_seq,
                },
            });
        }
        if let ReactPolicy::Abort(hook) = &self.policy {
            // Deferred: on_event runs under engine/transport locks, and
            // an abort re-enters both (see module docs).
            let hook = Arc::clone(hook);
            let performance = verdict.performance;
            std::thread::spawn(move || hook(performance));
        }
    }
}

impl Observer for ConformanceMonitor {
    fn on_event(&self, event: TelemetryEvent) {
        let verdict = match (event.performance, &event.payload) {
            (Some(perf), TelemetryPayload::Rendezvous(rec)) => {
                self.check_rendezvous(perf, &rec.from, &rec.to, rec.label.as_deref(), event.seq)
            }
            (Some(perf), TelemetryPayload::PerformanceCompleted { aborted: false }) => {
                self.check_completed(perf, event.seq)
            }
            _ => None,
        };
        if let Some(downstream) = &self.downstream {
            downstream.on_event(event.clone());
        }
        if let Some(v) = verdict {
            self.react(&v, &event);
        }
    }
}

impl fmt::Debug for ConformanceMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().unwrap();
        f.debug_struct("ConformanceMonitor")
            .field("roles", &self.projections.len())
            .field("performances", &st.len())
            .field(
                "verdicts",
                &st.values().filter(|p| p.verdict.is_some()).count(),
            )
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use script_core::RendezvousRecord;
    use std::time::Duration;

    fn r(name: &str) -> RoleId {
        RoleId::new(name)
    }

    /// a → b: ping; b → a: pong; end
    fn ping_pong() -> GlobalType {
        GlobalType::msg(
            "a",
            "b",
            "ping",
            GlobalType::msg("b", "a", "pong", GlobalType::End),
        )
    }

    fn rdv(seq: u64, perf: u64, from: &str, to: &str, label: &str) -> TelemetryEvent {
        TelemetryEvent {
            seq,
            performance: Some(PerformanceId(perf)),
            timestamp: Duration::from_millis(seq),
            payload: TelemetryPayload::Rendezvous(RendezvousRecord {
                from: r(from),
                to: r(to),
                label: Some(label.to_string()),
                seq: 0,
            }),
        }
    }

    #[test]
    fn conforming_trace_accepted_and_complete() {
        let m = ConformanceMonitor::new(&ping_pong()).unwrap();
        m.on_event(rdv(0, 7, "a", "b", "ping"));
        m.on_event(rdv(1, 7, "b", "a", "pong"));
        assert!(m.verdicts().is_empty());
        assert!(m.is_complete(PerformanceId(7)));
    }

    #[test]
    fn wrong_label_flagged_at_first_divergence() {
        let m = ConformanceMonitor::new(&ping_pong()).unwrap();
        m.on_event(rdv(0, 1, "a", "b", "ping"));
        m.on_event(rdv(3, 1, "b", "a", "pang"));
        m.on_event(rdv(4, 1, "b", "a", "pong")); // after divergence: ignored
        let v = m.verdict(PerformanceId(1)).unwrap();
        assert_eq!(v.role, r("b"));
        assert_eq!(v.at_seq, 3);
        assert_eq!(m.verdicts().len(), 1, "only the first divergence");
        assert!(!m.is_complete(PerformanceId(1)));
    }

    #[test]
    fn wrong_peer_attributed_to_sender() {
        let g = GlobalType::msg(
            "a",
            "b",
            "ping",
            GlobalType::msg("a", "c", "ping", GlobalType::End),
        );
        let m = ConformanceMonitor::new(&g).unwrap();
        // a sends to c where the protocol says b.
        m.on_event(rdv(0, 0, "a", "c", "ping"));
        let v = m.verdict(PerformanceId(0)).unwrap();
        assert_eq!(v.role, r("a"), "the misdirected send is the sender's fault");
        assert_eq!(v.at_seq, 0);
    }

    #[test]
    fn unlabeled_rendezvous_fails_loudly() {
        let m = ConformanceMonitor::new(&ping_pong()).unwrap();
        m.on_event(TelemetryEvent {
            seq: 0,
            performance: Some(PerformanceId(0)),
            timestamp: Duration::ZERO,
            payload: TelemetryPayload::Rendezvous(RendezvousRecord {
                from: r("a"),
                to: r("b"),
                label: None,
                seq: 0,
            }),
        });
        assert!(m.verdict(PerformanceId(0)).is_some());
    }

    #[test]
    fn normal_completion_with_protocol_remaining_is_a_verdict() {
        let m = ConformanceMonitor::new(&ping_pong()).unwrap();
        m.on_event(rdv(0, 2, "a", "b", "ping"));
        m.on_event(TelemetryEvent {
            seq: 1,
            performance: Some(PerformanceId(2)),
            timestamp: Duration::ZERO,
            payload: TelemetryPayload::PerformanceCompleted { aborted: false },
        });
        let v = m.verdict(PerformanceId(2)).unwrap();
        assert_eq!(v.observed, "performance completed");
    }

    #[test]
    fn downstream_sees_events_and_synthesized_violation() {
        use script_core::MetricsObserver;
        let metrics = Arc::new(MetricsObserver::new());
        let m = ConformanceMonitor::new(&ping_pong())
            .unwrap()
            .with_downstream(Arc::clone(&metrics) as Arc<dyn Observer>);
        m.on_event(rdv(0, 0, "a", "b", "ping"));
        m.on_event(rdv(1, 0, "b", "a", "oops"));
        let snap = metrics.snapshot();
        assert_eq!(snap.rendezvous, 2, "originals forwarded");
        assert_eq!(snap.protocol_violations, 1, "verdict synthesized");
        let (_, perf) = &snap.per_performance[0];
        assert_eq!(perf.rendezvous, 2);
        assert_eq!(perf.protocol_violations, 1);
    }

    #[test]
    fn abort_policy_invokes_hook_off_thread() {
        let hit = Arc::new(Mutex::new(None));
        let hook: AbortHook = {
            let hit = Arc::clone(&hit);
            Arc::new(move |pid| *hit.lock().unwrap() = Some(pid))
        };
        let m = ConformanceMonitor::new(&ping_pong())
            .unwrap()
            .with_policy(ReactPolicy::Abort(hook));
        m.on_event(rdv(0, 5, "b", "a", "pong")); // pong before ping
        let start = std::time::Instant::now();
        while hit.lock().unwrap().is_none() {
            assert!(start.elapsed() < Duration::from_secs(5), "hook never ran");
            std::thread::yield_now();
        }
        assert_eq!(*hit.lock().unwrap(), Some(PerformanceId(5)));
    }

    #[test]
    fn disjoint_pairs_commute() {
        // a → b: x; c → d: y — sequenced globally, but the pairs are
        // disjoint, so either observed order conforms.
        let g = GlobalType::msg(
            "a",
            "b",
            "x",
            GlobalType::msg("c", "d", "y", GlobalType::End),
        );
        let m = ConformanceMonitor::new(&g).unwrap();
        m.on_event(rdv(0, 0, "c", "d", "y"));
        m.on_event(rdv(1, 0, "a", "b", "x"));
        assert!(m.verdicts().is_empty());
        assert!(m.is_complete(PerformanceId(0)));
    }
}
