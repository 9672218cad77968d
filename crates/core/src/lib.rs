//! Scripts: a communication abstraction mechanism.
//!
//! This crate implements the *script* construct of Nissim Francez and
//! Brent Hailpern, "Script: A Communication Abstraction Mechanism"
//! (PODC 1983). A script localizes a *pattern of communication* between a
//! set of **roles** — formal process parameters — to which actual
//! processes **enroll** in order to participate. The body of each role
//! runs on the enrolling thread (the role is a logical continuation of
//! the enroller; the engine spawns no processes of its own), and the
//! roles communicate through synchronous rendezvous and guarded
//! selection.
//!
//! Supported, directly from the paper:
//!
//! * **partners-named, partners-unnamed, and partially named enrollment**
//!   ([`Enrollment`], [`Partners`], [`ProcessSel`]), with joint
//!   enrollment resolved by an exact backtracking matcher;
//! * **delayed and immediate initiation**, **delayed and immediate
//!   termination** ([`Initiation`], [`Termination`]);
//! * **critical role sets** ([`CriticalSet`]) with the paper's freeze
//!   semantics: once a critical set is filled, every unfilled role reads
//!   as terminated ([`RoleCtx::terminated`]) and communication with it
//!   fails with a distinguished error;
//! * **successive and overlapping activations** (§II): enrollments that
//!   cover a critical role set start a fresh performance immediately,
//!   even while earlier performances of the same instance are still in
//!   progress — each performance runs on its own engine shard and
//!   network, so casts never interact across performances;
//! * **indexed role families**, and — from the paper's future-work
//!   section — **open-ended families** whose size is fixed per
//!   performance, plus **nested enrollment** (role bodies may enroll into
//!   other scripts, since they run on the enrolling thread).
//!
//! # Example: synchronized star broadcast (paper Figure 3)
//!
//! ```
//! use script_core::{RoleId, Script, ScriptError};
//!
//! const N: usize = 5;
//! let mut b = Script::<u64>::builder("star_broadcast");
//! let sender = b.role("sender", move |ctx, data: u64| {
//!     for i in 0..N {
//!         ctx.send(&RoleId::indexed("recipient", i), data)?;
//!     }
//!     Ok(())
//! });
//! let recipient = b.family("recipient", N, |ctx, ()| {
//!     ctx.recv_from(&RoleId::new("sender"))
//! });
//! let script = b.build()?;
//! let instance = script.instance();
//!
//! std::thread::scope(|s| {
//!     let mut receivers = Vec::new();
//!     for i in 0..N {
//!         let instance = &instance;
//!         let recipient = &recipient;
//!         receivers.push(s.spawn(move || instance.enroll_member(recipient, i, ())));
//!     }
//!     instance.enroll(&sender, 42).unwrap();
//!     for r in receivers {
//!         assert_eq!(r.join().unwrap().unwrap(), 42);
//!     }
//! });
//! # Ok::<(), ScriptError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod ctx;
mod engine;
mod enroll;
mod error;
mod estimator;
mod handle;
mod ids;
mod matcher;
pub mod observer;
mod policy;
mod retry;
mod spec;

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

pub use ctx::{Event, Guard, RoleCtx};
pub use engine::{NetworkFactory, PerformanceNet};
pub use enroll::{Enrollment, Partners, ProcessSel};
pub use error::ScriptError;
pub use estimator::LatencyEstimator;
pub use retry::RetryPolicy;
// Fault injection is configured with the channel-layer plan type.
pub use handle::{FamilyHandle, RoleHandle};
pub use ids::{PerformanceId, ProcessId, RoleId};
pub use observer::{
    InstanceMetrics, LatencyHistogram, MetricsObserver, MultiObserver, Observer,
    PerformanceMetrics, RingObserver, TelemetryEvent, TelemetryPayload,
};
pub use policy::{
    AdaptiveWindow, CriticalEntry, CriticalSet, Initiation, Termination, WatchdogPolicy,
};
pub use script_chan::{FaultKind, FaultPlan, FaultRecord, LabelFn, LatencyOp, LatencySample};
pub use spec::{FamilySize, ScriptBuilder};

use engine::{Engine, RoleRef};
use spec::ScriptSpec;

/// One lifecycle event on the instance's telemetry plane, delivered as
/// [`TelemetryPayload::Script`] to the observer installed with
/// [`Instance::set_observer`]. Events record the engine's decisions in
/// order: queueing, performance starts, admissions, freezes, finishes,
/// completions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScriptEvent {
    /// An enrollment entered the pending queue. For auto-indexed open
    /// family enrollments the role carries the family name without an
    /// index.
    EnrollmentQueued {
        /// The requested role.
        role: RoleId,
        /// The enrolling process.
        process: ProcessId,
    },
    /// A new performance was created.
    PerformanceStarted {
        /// Its sequence number.
        performance: PerformanceId,
    },
    /// A pending enrollment was admitted into the performance's cast.
    RoleAdmitted {
        /// The performance joined.
        performance: PerformanceId,
        /// The concrete role (auto-indexed members are resolved here).
        role: RoleId,
        /// The enrolled process.
        process: ProcessId,
    },
    /// The cast froze: unfilled roles became terminated.
    CastFrozen {
        /// The affected performance.
        performance: PerformanceId,
    },
    /// A role's body returned.
    RoleFinished {
        /// The performance it ran in.
        performance: PerformanceId,
        /// The finished role.
        role: RoleId,
    },
    /// The performance aborted (panic, close, or watchdog).
    PerformanceAborted {
        /// The aborted performance.
        performance: PerformanceId,
    },
    /// The watchdog found the performance quiescent past its deadline
    /// (always followed by [`ScriptEvent::PerformanceAborted`]).
    PerformanceStalled {
        /// The stalled performance.
        performance: PerformanceId,
        /// The rendezvous-latency quantile the performance's estimator
        /// had observed when the watchdog fired (`None` before any
        /// rendezvous completed).
        observed_p99: Option<Duration>,
        /// The quiescence window the watchdog had armed — fixed or
        /// adaptively derived (see [`WatchdogPolicy`]).
        window: Duration,
    },
    /// The chaos layer injected a fault into the performance's network.
    /// Streamed at injection time when the performance opened with
    /// telemetry enabled; otherwise recorded when the performance
    /// completes, in schedule order.
    FaultInjected {
        /// The affected performance.
        performance: PerformanceId,
        /// Human-readable fault record (`kind from->to #seq`).
        fault: String,
    },
    /// A rendezvous completed: `from`'s message was picked up by `to`,
    /// or `to` was committed to picking it up and `from` claimed it.
    /// Observed at delivery on the performance's transport, so the
    /// stream of these events *is* the performance's communication
    /// trace — the input a protocol conformance monitor checks against
    /// a projected global type (`script_proto::monitor`). Only emitted
    /// while a subscriber is installed; the no-subscriber cost stays
    /// one relaxed atomic load on the transport's delivery path.
    Rendezvous {
        /// The performance the rendezvous belongs to.
        performance: PerformanceId,
        /// The sending role.
        from: RoleId,
        /// The receiving role.
        to: RoleId,
        /// The message label, when a labeler is installed
        /// ([`Instance::set_message_labeler`]); `None` otherwise.
        label: Option<String>,
        /// Zero-based delivery counter of the directed edge
        /// `from -> to` within this performance — deterministic across
        /// runs and transports, so duplicate or reordered observations
        /// are detectable.
        seq: u64,
    },
    /// Every role of the performance terminated.
    PerformanceCompleted {
        /// The completed performance.
        performance: PerformanceId,
        /// Whether it completed by abort.
        aborted: bool,
    },
    /// The instance was closed.
    InstanceClosed,
}

/// A diagnostic snapshot of one performance in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct PerformanceStatus {
    /// The performance's sequence number.
    pub id: PerformanceId,
    /// The cast so far: role-to-process bindings.
    pub cast: Vec<(RoleId, ProcessId)>,
    /// Whether the cast is frozen (no further roles may join).
    pub frozen: bool,
    /// Roles currently executing their bodies.
    pub running: usize,
    /// Roles that have finished.
    pub finished: usize,
    /// Whether the performance has been aborted.
    pub aborted: bool,
}

/// A diagnostic snapshot of a script instance (see
/// [`Instance::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct InstanceStatus {
    /// Performances that have fully terminated.
    pub completed_performances: u64,
    /// Enrollments queued but not yet admitted.
    pub pending_enrollments: usize,
    /// The oldest performance in progress, if any (kept for callers that
    /// predate overlapping activations; equals `performances.first()`).
    pub current: Option<PerformanceStatus>,
    /// Every performance in progress, oldest first. Overlapping
    /// activations mean there can be more than one.
    pub performances: Vec<PerformanceStatus>,
}

/// An immutable, validated script declaration.
///
/// Build one with [`Script::builder`], then create any number of
/// [`Instance`]s (the paper's multiple instances of a generic script).
/// `M` is the message type exchanged between the roles of this script.
pub struct Script<M> {
    spec: Arc<ScriptSpec<M>>,
}

impl<M> Clone for Script<M> {
    fn clone(&self) -> Self {
        Self {
            spec: Arc::clone(&self.spec),
        }
    }
}

impl<M> fmt::Debug for Script<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Script").field("spec", &self.spec).finish()
    }
}

impl<M: Send + Clone + 'static> Script<M> {
    /// Starts declaring a script named `name`.
    pub fn builder(name: impl Into<String>) -> ScriptBuilder<M> {
        ScriptBuilder::new(name)
    }

    pub(crate) fn from_spec(spec: ScriptSpec<M>) -> Self {
        Self {
            spec: Arc::new(spec),
        }
    }

    /// The script's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Creates a fresh instance of this script. Instances are
    /// independent: enrollments and performances of one never interact
    /// with another.
    pub fn instance(&self) -> Instance<M> {
        Instance {
            engine: Engine::new(Arc::clone(&self.spec)),
        }
    }

    #[cfg(test)]
    pub(crate) fn spec(&self) -> &ScriptSpec<M> {
        &self.spec
    }
}

/// A live instance of a [`Script`], accepting enrollments.
///
/// Cloning yields another handle to the same instance. All enrollment
/// methods block the calling thread for the duration of its role (that is
/// the point: the role body is a logical continuation of the caller), and
/// return the role's result parameters.
pub struct Instance<M> {
    engine: Arc<Engine<M>>,
}

impl<M> Clone for Instance<M> {
    fn clone(&self) -> Self {
        Self {
            engine: Arc::clone(&self.engine),
        }
    }
}

impl<M> fmt::Debug for Instance<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("engine", &self.engine)
            .finish()
    }
}

impl<M: Send + Clone + 'static> Instance<M> {
    /// The script's name.
    pub fn name(&self) -> &str {
        &self.engine.spec.name
    }

    /// Enrolls with the parameters and the result in slots on this
    /// stack: the role body takes the one and fills the other.
    fn run<P: Send + 'static, O: Send + 'static>(
        &self,
        role: RoleRef,
        params: P,
        options: Enrollment,
    ) -> Result<O, ScriptError> {
        let (mut params, mut result) = (Some(params), None::<O>);
        self.engine
            .enroll_erased(role, &mut params, &mut result, options)?;
        Ok(result.expect("a role body that returns Ok fills its result"))
    }

    /// Enrolls in a singleton role with default options (anonymous
    /// process, unnamed partners, no deadline). Blocks until the role has
    /// been admitted to a performance, run, and — under delayed
    /// termination — the whole cast has finished; returns the role's
    /// result.
    ///
    /// # Errors
    ///
    /// Any [`ScriptError`] produced by admission or by the role body;
    /// see [`Instance::enroll_with`].
    pub fn enroll<P, O>(&self, role: &RoleHandle<M, P, O>, params: P) -> Result<O, ScriptError>
    where
        P: Send + 'static,
        O: Send + 'static,
    {
        self.enroll_with(role, params, Enrollment::new())
    }

    /// Enrolls in a singleton role with explicit [`Enrollment`] options
    /// (process identity, partner constraints, deadline).
    ///
    /// # Errors
    ///
    /// * [`ScriptError::Timeout`] if the enrollment deadline expires,
    /// * [`ScriptError::PerformanceAborted`] if a partner role panicked,
    /// * [`ScriptError::RolePanicked`] if this role's own body panicked,
    /// * [`ScriptError::InstanceClosed`] after [`Instance::close`],
    /// * any error returned by the role body itself.
    pub fn enroll_with<P, O>(
        &self,
        role: &RoleHandle<M, P, O>,
        params: P,
        options: Enrollment,
    ) -> Result<O, ScriptError>
    where
        P: Send + 'static,
        O: Send + 'static,
    {
        self.run(RoleRef::Concrete(role.id.clone()), params, options)
    }

    /// Enrolls as member `index` of a role family.
    ///
    /// # Errors
    ///
    /// As [`Instance::enroll_with`], plus [`ScriptError::UnknownRole`]
    /// for an out-of-range index.
    pub fn enroll_member<P, O>(
        &self,
        family: &FamilyHandle<M, P, O>,
        index: usize,
        params: P,
    ) -> Result<O, ScriptError>
    where
        P: Send + 'static,
        O: Send + 'static,
    {
        self.enroll_member_with(family, index, params, Enrollment::new())
    }

    /// [`Instance::enroll_member`] with explicit options.
    ///
    /// # Errors
    ///
    /// As [`Instance::enroll_member`].
    pub fn enroll_member_with<P, O>(
        &self,
        family: &FamilyHandle<M, P, O>,
        index: usize,
        params: P,
        options: Enrollment,
    ) -> Result<O, ScriptError>
    where
        P: Send + 'static,
        O: Send + 'static,
    {
        self.run(RoleRef::Concrete(family.at(index)), params, options)
    }

    /// Enrolls as the next free member of an *open* family (the index is
    /// assigned at admission; the body can read it from
    /// [`RoleCtx::role`]).
    ///
    /// # Errors
    ///
    /// As [`Instance::enroll_with`], plus [`ScriptError::UnknownRole`] if
    /// the family is not open-ended.
    pub fn enroll_auto<P, O>(
        &self,
        family: &FamilyHandle<M, P, O>,
        params: P,
    ) -> Result<O, ScriptError>
    where
        P: Send + 'static,
        O: Send + 'static,
    {
        self.enroll_auto_with(family, params, Enrollment::new())
    }

    /// [`Instance::enroll_auto`] with explicit options.
    ///
    /// # Errors
    ///
    /// As [`Instance::enroll_auto`].
    pub fn enroll_auto_with<P, O>(
        &self,
        family: &FamilyHandle<M, P, O>,
        params: P,
        options: Enrollment,
    ) -> Result<O, ScriptError>
    where
        P: Send + 'static,
        O: Send + 'static,
    {
        self.run(RoleRef::NextOf(RoleId::new(&family.name)), params, options)
    }

    /// Freezes the cast of the current performance: unfilled roles become
    /// terminated, and no further enrollments join it. Intended for
    /// open-ended scripts without a critical role set.
    pub fn seal_cast(&self) {
        self.engine.seal_cast();
    }

    /// The number of performances that have fully terminated.
    pub fn completed_performances(&self) -> u64 {
        self.engine.completed_performances()
    }

    /// The number of enrollments currently queued but not yet admitted
    /// to a performance. Useful for staging enrollments when several
    /// alternative critical role sets could fire (see the lock-manager
    /// crate) and for diagnostics.
    pub fn pending_enrollments(&self) -> usize {
        self.engine.pending_enrollments()
    }

    /// A diagnostic snapshot: completed performances, queued
    /// enrollments, and the cast of the performance in progress.
    pub fn status(&self) -> InstanceStatus {
        self.engine.status()
    }

    /// Subscribes `observer` to the instance's telemetry plane,
    /// replacing any previous subscriber. Every engine decision,
    /// rendezvous latency sample, watchdog arm, and injected fault is
    /// pushed to it as a [`TelemetryEvent`] at the moment it happens —
    /// including hub-side faults of performances placed on a remote
    /// transport, which arrive on the same per-performance sequence.
    /// It is the only way telemetry leaves an instance: for a bounded
    /// in-memory log pass a [`RingObserver`] and keep the `Arc` to
    /// [`drain`](RingObserver::drain) it; for several subscribers pass
    /// a [`MultiObserver`].
    ///
    /// `on_event` runs synchronously on the producing thread, possibly
    /// with engine locks held: observers must not block and must not
    /// call back into this instance's API (see
    /// [`observer`] module docs). Events of one
    /// performance carry a gapless, strictly increasing `seq` and are
    /// delivered in that order. An observer installed while a
    /// performance runs sees that performance's lifecycle events and
    /// injected faults from then on; latency samples (without a
    /// watchdog), rendezvous records and session events start with the
    /// first performance opened *after* it is installed.
    pub fn set_observer(&self, observer: std::sync::Arc<dyn Observer>) {
        self.engine.set_observer(observer);
    }

    /// Unsubscribes the observer installed by
    /// [`Instance::set_observer`].
    pub fn clear_observer(&self) {
        self.engine.clear_observer();
    }

    /// Closes the instance: pending and future enrollments fail with
    /// [`ScriptError::InstanceClosed`], and a performance in progress is
    /// aborted.
    pub fn close(&self) {
        self.engine.close();
    }

    /// Arms the quiescence watchdog: any **future** performance whose
    /// network makes no communication progress for the policy's window
    /// is aborted, and its participants unblock with
    /// [`ScriptError::Stalled`].
    ///
    /// "Progress" means network activity — sends landing, receives
    /// completing, roles joining or finishing. Under
    /// [`WatchdogPolicy::Fixed`] a performance of roles that compute
    /// without communicating for longer than the window will be treated
    /// as hung; size it accordingly. Under [`WatchdogPolicy::Adaptive`]
    /// each performance's window is re-derived on every watchdog poll
    /// from that performance's *own* observed rendezvous latency, by
    /// constants that are not settable ([`AdaptiveWindow`]): 8 × its
    /// p99 over the last 256 samples, within 25 ms – 30 s, at least
    /// 500 ms for the first 8 samples, shrinking through an EWMA floor
    /// (α 0.3). In-process performances keep tight millisecond windows
    /// while socket-backed performances widen to RPC latency without
    /// per-transport tuning. The chosen window and the observed p99 are
    /// carried on any resulting [`ScriptEvent::PerformanceStalled`]
    /// event.
    ///
    /// # Panics
    ///
    /// Panics on a zero [`WatchdogPolicy::Fixed`] window.
    pub fn set_watchdog_policy(&self, policy: WatchdogPolicy) {
        self.engine.set_watchdog_policy(policy);
    }

    /// Disarms the watchdog for future performances.
    pub fn clear_watchdog(&self) {
        self.engine.clear_watchdog();
    }

    /// Seeds the nondeterministic choices (selection shuffling) of every
    /// future performance's network, derived per performance, so that
    /// chaos runs are reproducible.
    pub fn set_chaos_seed(&self, seed: u64) {
        self.engine.set_chaos_seed(seed);
    }

    /// Injects the deterministic fault schedule described by `plan` into
    /// every future performance (each performance draws an independent
    /// schedule derived from the plan's seed). Injected faults surface
    /// as [`ScriptEvent::FaultInjected`] telemetry: streamed live, at
    /// injection time, for performances opened while an observer or
    /// the event log was installed, and drained in schedule order at
    /// completion otherwise.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.engine.set_fault_plan(plan);
    }

    /// Stops injecting faults into future performances.
    pub fn clear_fault_plan(&self) {
        self.engine.clear_fault_plan();
    }

    /// Installs a message labeler for every **future** performance:
    /// [`ScriptEvent::Rendezvous`] telemetry of those performances
    /// carries `label_of(&message)` as its label, letting a protocol
    /// conformance monitor (`script_proto::monitor`) distinguish
    /// message kinds. A plain `fn` pointer (not a closure) so the
    /// labeler can cross the transport seam without adding bounds;
    /// it runs on the delivery path under transport locks and must be
    /// pure and fast. Without a labeler, rendezvous events carry
    /// `label: None`.
    ///
    /// On a hub-backed network the labels observed by spokes are
    /// extracted *hub-side* (the hub owns the rendezvous state); use
    /// `TransportServer::set_message_labeler` there — this instance
    /// labeler applies to networks whose delivery happens in-process.
    pub fn set_message_labeler(&self, label_of: script_chan::LabelFn<M>) {
        self.engine.set_message_labeler(label_of);
    }

    /// Routes every **future** performance's network through `factory`
    /// — the distribution seam. The factory receives a
    /// [`PerformanceNet`] describing the performance and returns the
    /// [`Network`](script_chan::Network) it should run on; returning
    /// one backed by a socket transport (`script-net`) lets a single
    /// performance span OS processes. Chaos seeds, fault plans, and the
    /// watchdog compose unchanged: the engine reseeds and attaches the
    /// plan to whatever network the factory returns.
    pub fn set_network_factory(&self, factory: std::sync::Arc<NetworkFactory<M>>) {
        self.engine.set_network_factory(factory);
    }

    /// Future performances build the default in-process network again.
    pub fn clear_network_factory(&self) {
        self.engine.clear_network_factory();
    }

    /// [`Instance::enroll_with`] under a [`RetryPolicy`]: transient
    /// failures ([`ScriptError::is_transient`]) are retried with
    /// exponential backoff until the policy's attempts are exhausted;
    /// the last error is returned. Requires cloneable parameters.
    ///
    /// An enrollment deadline in `options` applies per attempt.
    ///
    /// # Errors
    ///
    /// As [`Instance::enroll_with`]; permanent errors are returned
    /// immediately.
    pub fn enroll_with_retry<P, O>(
        &self,
        role: &RoleHandle<M, P, O>,
        params: P,
        options: Enrollment,
        policy: &RetryPolicy,
    ) -> Result<O, ScriptError>
    where
        P: Clone + Send + 'static,
        O: Send + 'static,
    {
        policy.run(|_attempt| self.enroll_with(role, params.clone(), options.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;
    use std::time::Duration;

    fn sender_id() -> RoleId {
        RoleId::new("sender")
    }

    /// Subscribes a fresh ring log of `capacity` events to `inst`.
    fn ring_on<M: Send + Clone + 'static>(
        inst: &Instance<M>,
        capacity: usize,
    ) -> StdArc<RingObserver> {
        let ring = StdArc::new(RingObserver::new(capacity));
        inst.set_observer(StdArc::clone(&ring) as StdArc<dyn Observer>);
        ring
    }

    /// Drains `ring`, keeping the lifecycle events.
    fn script_events(ring: &RingObserver) -> Vec<ScriptEvent> {
        ring.drain()
            .into_iter()
            .filter_map(|e| match e.payload {
                TelemetryPayload::Script(ev) => Some(ev),
                _ => None,
            })
            .collect()
    }

    type StarScript = (
        Script<u64>,
        RoleHandle<u64, u64, ()>,
        FamilyHandle<u64, (), u64>,
    );

    /// Figure 3: synchronized star broadcast, delayed/delayed.
    fn star_script(n: usize) -> StarScript {
        let mut b = Script::<u64>::builder("star_broadcast");
        let sender = b.role("sender", move |ctx, data: u64| {
            for i in 0..n {
                ctx.send(&RoleId::indexed("recipient", i), data)?;
            }
            Ok(())
        });
        let recipient = b.family("recipient", n, |ctx, ()| ctx.recv_from(&sender_id()));
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        (b.build().unwrap(), sender, recipient)
    }

    #[test]
    fn star_broadcast_delivers_to_all() {
        let (script, sender, recipient) = star_script(5);
        let inst = script.instance();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for i in 0..5 {
                let inst = &inst;
                let recipient = &recipient;
                handles.push(s.spawn(move || inst.enroll_member(recipient, i, ())));
            }
            inst.enroll(&sender, 7).unwrap();
            for h in handles {
                assert_eq!(h.join().unwrap().unwrap(), 7);
            }
        });
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn delayed_initiation_waits_for_full_cast() {
        let (script, sender, _recipient) = star_script(2);
        let inst = script.instance();
        // Only the sender enrolls: with delayed initiation nothing starts,
        // and the enrollment times out.
        let err = inst
            .enroll_with(
                &sender,
                1,
                Enrollment::new().timeout(Duration::from_millis(50)),
            )
            .unwrap_err();
        assert_eq!(err, ScriptError::Timeout);
        assert_eq!(inst.completed_performances(), 0);
    }

    /// Figure 4: pipeline broadcast with immediate initiation and
    /// termination.
    #[test]
    fn pipeline_broadcast_immediate() {
        const N: usize = 4;
        let mut b = Script::<u64>::builder("pipeline_broadcast");
        let sender = b.role("sender", |ctx, data: u64| {
            ctx.send(&RoleId::indexed("recipient", 0), data)?;
            Ok(())
        });
        let recipient = b.family("recipient", N, move |ctx, ()| {
            let me = ctx.role().index().unwrap();
            let value = if me == 0 {
                ctx.recv_from(&sender_id())?
            } else {
                ctx.recv_from(&RoleId::indexed("recipient", me - 1))?
            };
            if me + 1 < N {
                ctx.send(&RoleId::indexed("recipient", me + 1), value)?;
            }
            Ok(value)
        });
        b.initiation(Initiation::Immediate)
            .termination(Termination::Immediate);
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            // The sender can enroll, deliver to recipient 0, and leave
            // before later recipients even arrive.
            let inst_s = inst.clone();
            let sender_h = s.spawn(move || inst_s.enroll(&sender, 9));
            let mut handles = Vec::new();
            for i in 0..N {
                let inst = &inst;
                let recipient = &recipient;
                // Stagger arrivals to exercise the immediate regime.
                std::thread::sleep(Duration::from_millis(2));
                handles.push(s.spawn(move || inst.enroll_member(recipient, i, ())));
            }
            sender_h.join().unwrap().unwrap();
            for h in handles {
                assert_eq!(h.join().unwrap().unwrap(), 9);
            }
        });
        assert_eq!(inst.completed_performances(), 1);
    }

    /// Serially driven rounds each run as their own performance, in
    /// order. (The full Figure 1 semantics — an enrollment that cannot
    /// cover the critical set waits out the performance in progress —
    /// is pinned in `tests/successive_performances.rs`.)
    #[test]
    fn successive_performances_complete_in_order() {
        let mut b = Script::<u8>::builder("two_perf");
        let ping = b.role("ping", |ctx, ()| ctx.send(&RoleId::new("pong"), 1));
        let pong = b.role("pong", |ctx, ()| {
            ctx.recv_from(&RoleId::new("ping"))?;
            Ok(())
        });
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let i1 = inst.clone();
                let ping = ping.clone();
                let h = s.spawn(move || i1.enroll(&ping, ()));
                inst.enroll(&pong, ()).unwrap();
                h.join().unwrap().unwrap();
            }
        });
        assert_eq!(inst.completed_performances(), 3);
    }

    /// Figure 2 semantics: two broadcasts by the same processes never
    /// cross performances.
    #[test]
    fn repeated_enrollments_deliver_in_order() {
        let (script, sender, recipient) = star_script(2);
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let r1 = recipient.clone();
            let h0 = s.spawn(move || {
                (0..10)
                    .map(|_| i1.enroll_member(&r1, 0, ()).unwrap())
                    .collect::<Vec<u64>>()
            });
            let i2 = inst.clone();
            let r2 = recipient.clone();
            let h1 = s.spawn(move || {
                (0..10)
                    .map(|_| i2.enroll_member(&r2, 1, ()).unwrap())
                    .collect::<Vec<u64>>()
            });
            for x in 0..10 {
                inst.enroll(&sender, x).unwrap();
            }
            let expected: Vec<u64> = (0..10).collect();
            assert_eq!(h0.join().unwrap(), expected);
            assert_eq!(h1.join().unwrap(), expected);
        });
        assert_eq!(inst.completed_performances(), 10);
    }

    #[test]
    fn partner_named_enrollment_matches() {
        let mut b = Script::<u8>::builder("named");
        let left = b.role("left", |ctx, ()| ctx.send(&RoleId::new("right"), 1));
        let right = b.role("right", |ctx, ()| ctx.recv_from(&RoleId::new("left")));
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let left = left.clone();
            let h = s.spawn(move || {
                i1.enroll_with(
                    &left,
                    (),
                    Enrollment::as_process("L").partner("right", ProcessSel::is("R")),
                )
            });
            let got = inst
                .enroll_with(
                    &right,
                    (),
                    Enrollment::as_process("R").partner("left", ProcessSel::is("L")),
                )
                .unwrap();
            assert_eq!(got, 1);
            h.join().unwrap().unwrap();
        });
    }

    #[test]
    fn mismatched_partner_specs_never_start() {
        let mut b = Script::<u8>::builder("mismatch");
        let left = b.role("left", |ctx, ()| ctx.send(&RoleId::new("right"), 1));
        let right = b.role("right", |ctx, ()| ctx.recv_from(&RoleId::new("left")));
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let left = left.clone();
            let h = s.spawn(move || {
                i1.enroll_with(
                    &left,
                    (),
                    Enrollment::as_process("L")
                        .partner("right", ProcessSel::is("SOMEONE_ELSE"))
                        .timeout(Duration::from_millis(50)),
                )
            });
            let err = inst
                .enroll_with(
                    &right,
                    (),
                    Enrollment::as_process("R").timeout(Duration::from_millis(50)),
                )
                .unwrap_err();
            assert_eq!(err, ScriptError::Timeout);
            assert_eq!(h.join().unwrap().unwrap_err(), ScriptError::Timeout);
        });
        assert_eq!(inst.completed_performances(), 0);
    }

    /// Critical role sets: a reader-or-writer script can perform with
    /// only the reader; the writer role reads as terminated once the cast
    /// freezes.
    #[test]
    fn critical_set_allows_partial_cast() {
        let mut b = Script::<u8>::builder("partial");
        let server = b.role("server", |ctx, ()| {
            let mut served = 0;
            loop {
                let reader_done = ctx.terminated(&RoleId::new("reader"));
                let writer_done = ctx.terminated(&RoleId::new("writer"));
                if reader_done && writer_done {
                    return Ok(served);
                }
                match ctx.select(vec![
                    Guard::recv_from("reader").when(!reader_done),
                    Guard::recv_from("writer").when(!writer_done),
                    Guard::watch("reader").when(!reader_done),
                    Guard::watch("writer").when(!writer_done),
                ])? {
                    Event::Received { .. } => served += 1,
                    Event::Terminated { .. } => {}
                    Event::Sent { .. } => unreachable!(),
                }
            }
        });
        let reader = b.role("reader", |ctx, ()| ctx.send(&RoleId::new("server"), 1));
        let _writer: RoleHandle<u8, (), ()> =
            b.role("writer", |ctx, ()| ctx.send(&RoleId::new("server"), 2));
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        b.critical_set(CriticalSet::new().role("server").role("reader"));
        b.critical_set(CriticalSet::new().role("server").role("writer"));
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let server = server.clone();
            let h = s.spawn(move || i1.enroll(&server, ()));
            inst.enroll(&reader, ()).unwrap();
            assert_eq!(h.join().unwrap().unwrap(), 1);
        });
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn panicking_role_aborts_performance() {
        let mut b = Script::<u8>::builder("boom");
        let bomber = b.role("bomber", |_ctx, ()| -> Result<(), ScriptError> {
            panic!("deliberate test panic");
        });
        let victim = b.role("victim", |ctx, ()| ctx.recv_from(&RoleId::new("bomber")));
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let victim = victim.clone();
            let h = s.spawn(move || i1.enroll(&victim, ()));
            let err = inst.enroll(&bomber, ()).unwrap_err();
            assert_eq!(err, ScriptError::RolePanicked(RoleId::new("bomber")));
            let verr = h.join().unwrap().unwrap_err();
            assert_eq!(verr, ScriptError::PerformanceAborted);
        });
        // The instance recovers: the aborted performance still counts as
        // terminated, so the next can run.
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn instance_recovers_after_abort() {
        let mut b = Script::<u8>::builder("recover");
        let flaky = b.role("flaky", |_ctx, fail: bool| {
            if fail {
                panic!("first run fails");
            }
            Ok(11u8)
        });
        let script = b.build().unwrap();
        let inst = script.instance();
        let err = inst.enroll(&flaky, true).unwrap_err();
        assert_eq!(err, ScriptError::RolePanicked(RoleId::new("flaky")));
        assert_eq!(inst.enroll(&flaky, false).unwrap(), 11);
    }

    #[test]
    fn open_family_with_seal() {
        let mut b = Script::<u64>::builder("open_gather");
        let collector = b.role("collector", |ctx, expected: usize| {
            let mut sum = 0;
            let mut seen = 0;
            while seen < expected {
                let (_, v) = ctx.recv_any()?;
                sum += v;
                seen += 1;
            }
            Ok(sum)
        });
        let worker = b.open_family("worker", None, |ctx, v: u64| {
            ctx.send(&RoleId::new("collector"), v)?;
            Ok(())
        });
        b.initiation(Initiation::Immediate)
            .termination(Termination::Immediate);
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let collector = collector.clone();
            let h = s.spawn(move || i1.enroll(&collector, 3));
            let mut workers = Vec::new();
            for v in [10u64, 20, 30] {
                let inst = &inst;
                let worker = &worker;
                workers.push(s.spawn(move || inst.enroll_auto(worker, v)));
            }
            for w in workers {
                w.join().unwrap().unwrap();
            }
            assert_eq!(h.join().unwrap().unwrap(), 60);
            inst.seal_cast();
        });
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn open_family_auto_indices_are_distinct() {
        let seen = StdArc::new(AtomicUsize::new(0));
        let mut b = Script::<u8>::builder("indices");
        let seen2 = StdArc::clone(&seen);
        let member = b.open_family("member", Some(8), move |ctx, ()| {
            let idx = ctx.role().index().expect("family member has an index");
            seen2.fetch_or(1 << idx, Ordering::SeqCst);
            Ok(idx)
        });
        b.initiation(Initiation::Immediate)
            .termination(Termination::Immediate)
            .critical_set(CriticalSet::new().family_at_least("member", 3));
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let inst = &inst;
                    let member = &member;
                    s.spawn(move || inst.enroll_auto(member, ()))
                })
                .collect();
            let mut indices: Vec<usize> = handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect();
            indices.sort_unstable();
            assert_eq!(indices, vec![0, 1, 2]);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 0b111);
    }

    #[test]
    fn nested_enrollment_composes_scripts() {
        // Inner script: simple relay.
        let mut ib = Script::<u8>::builder("inner");
        let iping = ib.role("ping", |ctx, v: u8| ctx.send(&RoleId::new("pong"), v));
        let ipong = ib.role("pong", |ctx, ()| ctx.recv_from(&RoleId::new("ping")));
        let inner = ib.build().unwrap().instance();

        // Outer script: its role enrolls into the inner script.
        let mut ob = Script::<u8>::builder("outer");
        let inner2 = inner.clone();
        let iping2 = iping.clone();
        let outer_role = ob.role("driver", move |_ctx, v: u8| {
            inner2.enroll(&iping2, v)?;
            Ok(())
        });
        let outer = ob.build().unwrap().instance();

        std::thread::scope(|s| {
            let h = s.spawn(move || inner.enroll(&ipong, ()));
            outer.enroll(&outer_role, 42).unwrap();
            assert_eq!(h.join().unwrap().unwrap(), 42);
        });
    }

    #[test]
    fn close_rejects_pending_and_future() {
        let (script, sender, _rec) = star_script(2);
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let sender2 = sender.clone();
            let h = s.spawn(move || i1.enroll(&sender2, 1));
            std::thread::sleep(Duration::from_millis(20));
            inst.close();
            assert_eq!(h.join().unwrap().unwrap_err(), ScriptError::InstanceClosed);
        });
        assert_eq!(
            inst.enroll(&sender, 2).unwrap_err(),
            ScriptError::InstanceClosed
        );
    }

    #[test]
    fn out_of_range_member_rejected() {
        let (script, _sender, recipient) = star_script(2);
        let inst = script.instance();
        let err = inst.enroll_member(&recipient, 2, ()).unwrap_err();
        assert!(matches!(err, ScriptError::UnknownRole(_)));
    }

    #[test]
    fn enroll_auto_on_fixed_family_rejected() {
        let (script, _sender, recipient) = star_script(2);
        let inst = script.instance();
        let err = inst.enroll_auto(&recipient, ()).unwrap_err();
        assert!(matches!(err, ScriptError::UnknownRole(_)));
    }

    #[test]
    fn role_body_error_propagates_without_abort() {
        let mut b = Script::<u8>::builder("apperr");
        let failing = b.role("failing", |_ctx, ()| -> Result<(), ScriptError> {
            Err(ScriptError::app("business rule violated"))
        });
        let script = b.build().unwrap();
        let inst = script.instance();
        assert_eq!(
            inst.enroll(&failing, ()).unwrap_err(),
            ScriptError::App("business rule violated".into())
        );
        // Not an abort: the performance completed normally.
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn multiple_instances_are_independent() {
        let (script, sender, recipient) = star_script(1);
        let a = script.instance();
        let b_inst = script.instance();
        std::thread::scope(|s| {
            let a2 = a.clone();
            let b2 = b_inst.clone();
            let r1 = recipient.clone();
            let r2 = recipient.clone();
            let ha = s.spawn(move || a2.enroll_member(&r1, 0, ()));
            let hb = s.spawn(move || b2.enroll_member(&r2, 0, ()));
            a.enroll(&sender, 1).unwrap();
            b_inst.enroll(&sender, 2).unwrap();
            assert_eq!(ha.join().unwrap().unwrap(), 1);
            assert_eq!(hb.join().unwrap().unwrap(), 2);
        });
    }

    #[test]
    fn watchdog_aborts_deadlocked_performance() {
        let mut b = Script::<u8>::builder("deadlock");
        let left = b.role("left", |ctx, ()| {
            ctx.recv_from(&RoleId::new("right"))?;
            Ok(())
        });
        let right = b.role("right", |ctx, ()| {
            ctx.recv_from(&RoleId::new("left"))?;
            Ok(())
        });
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let script = b.build().unwrap();
        let inst = script.instance();
        inst.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_millis(60)));
        let ring = ring_on(&inst, 64);
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let left = left.clone();
            let h = s.spawn(move || i1.enroll(&left, ()));
            assert_eq!(inst.enroll(&right, ()).unwrap_err(), ScriptError::Stalled);
            assert_eq!(h.join().unwrap().unwrap_err(), ScriptError::Stalled);
        });
        let events = script_events(&ring);
        assert!(events
            .iter()
            .any(|e| matches!(e, ScriptEvent::PerformanceStalled { .. })));
        // The stalled performance still terminated; the instance is free.
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn watchdog_spares_slow_but_live_performance() {
        let mut b = Script::<u8>::builder("slow");
        let ping = b.role("ping", |ctx, ()| {
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(20));
                ctx.send(&RoleId::new("pong"), 1)?;
            }
            Ok(())
        });
        let pong = b.role("pong", |ctx, ()| {
            for _ in 0..3 {
                ctx.recv_from(&RoleId::new("ping"))?;
            }
            Ok(())
        });
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let script = b.build().unwrap();
        let inst = script.instance();
        // Adaptive windows instead of a hard-coded margin: the cold
        // performance is covered by the generous initial window, and
        // once samples arrive the window is derived from the observed
        // ~20 ms rendezvous latency — CI load stretches the samples and
        // the window together, so it cannot fake a stall.
        inst.set_watchdog_policy(WatchdogPolicy::Adaptive);
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let ping = ping.clone();
            let h = s.spawn(move || i1.enroll(&ping, ()));
            inst.enroll(&pong, ()).unwrap();
            h.join().unwrap().unwrap();
        });
        assert_eq!(inst.completed_performances(), 1);
    }

    #[test]
    fn injected_drop_stalls_and_surfaces_fault_events() {
        let mut b = Script::<u8>::builder("lossy");
        // Request/reply: if the request is lost both sides block — the
        // requester awaiting the reply, the replier awaiting the request.
        let src = b.role("src", |ctx, ()| {
            ctx.send(&RoleId::new("dst"), 7)?;
            ctx.recv_from(&RoleId::new("dst"))?;
            Ok(())
        });
        let dst = b.role("dst", |ctx, ()| {
            let v = ctx.recv_from(&RoleId::new("src"))?;
            ctx.send(&RoleId::new("src"), v)?;
            Ok(())
        });
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let script = b.build().unwrap();
        let inst = script.instance();
        inst.set_chaos_seed(1);
        inst.set_fault_plan(FaultPlan::new(1).with_drop(1.0));
        inst.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_millis(60)));
        let ring = ring_on(&inst, 64);
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let src = src.clone();
            let h = s.spawn(move || i1.enroll(&src, ()));
            // The receiver starves on the dropped message until the
            // watchdog calls the performance stalled.
            assert_eq!(inst.enroll(&dst, ()).unwrap_err(), ScriptError::Stalled);
            // The sender may have finished cleanly (its send "succeeded")
            // or observed the stall, depending on timing.
            let _ = h.join().unwrap();
        });
        let events = script_events(&ring);
        assert!(events.iter().any(
            |e| matches!(e, ScriptEvent::FaultInjected { fault, .. } if fault.contains("drop"))
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, ScriptEvent::PerformanceStalled { .. })));

        // Recovery: with the plan cleared, the same instance admits a
        // fresh cast and completes cleanly.
        inst.clear_fault_plan();
        inst.clear_watchdog();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let src = src.clone();
            let h = s.spawn(move || i1.enroll(&src, ()));
            inst.enroll(&dst, ()).unwrap();
            h.join().unwrap().unwrap();
        });
        assert_eq!(inst.completed_performances(), 2);
    }

    #[test]
    fn enroll_with_retry_recovers_from_timeout() {
        let mut b = Script::<u8>::builder("late_partner");
        let ping = b.role("ping", |ctx, ()| ctx.send(&RoleId::new("pong"), 1));
        let pong = b.role("pong", |ctx, ()| {
            ctx.recv_from(&RoleId::new("ping"))?;
            Ok(())
        });
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let script = b.build().unwrap();
        let inst = script.instance();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let pong = pong.clone();
            let h = s.spawn(move || {
                // Arrive after the first attempt has already timed out. In
                // the rare case that pong is matched with a ping attempt in
                // the last instants before that attempt's deadline (ping's
                // send then times out and pong sees `RoleUnavailable`),
                // re-enroll so a later ping attempt can still succeed.
                std::thread::sleep(Duration::from_millis(80));
                let retryable = |e: &ScriptError| {
                    e.is_transient() || matches!(e, ScriptError::RoleUnavailable(_))
                };
                let policy = RetryPolicy::new(4)
                    .with_base(Duration::from_millis(1))
                    .with_cap(Duration::from_millis(5))
                    .with_seed(9);
                policy.run_if(retryable, |_| i1.enroll(&pong, ()))
            });
            let policy = RetryPolicy::new(8)
                .with_base(Duration::from_millis(5))
                .with_cap(Duration::from_millis(20))
                .with_seed(4);
            inst.enroll_with_retry(
                &ping,
                (),
                Enrollment::new().timeout(Duration::from_millis(40)),
                &policy,
            )
            .unwrap();
            h.join().unwrap().unwrap();
        });
        // Exactly one performance in the common case; a burned near-deadline
        // round before the successful one is also acceptable.
        assert!(inst.completed_performances() >= 1);
    }

    /// Satellite regression: ring-log overflow must be counted and
    /// surfaced, not silent.
    #[test]
    fn ring_overflow_is_counted_and_surfaced() {
        let (script, sender, recipient) = star_script(2);
        let inst = script.instance();
        // One broadcast emits far more than 4 events (2 queued, start,
        // 3 admissions, freeze, 3 finishes, completion, latency...).
        let ring = ring_on(&inst, 4);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for i in 0..2 {
                let inst = &inst;
                let recipient = &recipient;
                handles.push(s.spawn(move || inst.enroll_member(recipient, i, ())));
            }
            inst.enroll(&sender, 1).unwrap();
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        let dropped = ring.dropped();
        assert!(dropped > 0, "a 4-slot ring must overflow");
        let telemetry = ring.drain();
        assert_eq!(
            telemetry.first().map(|e| &e.payload),
            Some(&TelemetryPayload::Lost { count: dropped }),
            "the drain is prefixed with the loss marker"
        );
        assert_eq!(telemetry.len(), 5, "marker plus the 4 retained events");
        // The marker is accounting, not history, and the lifetime
        // counter survives the drain.
        assert!(ring.drain().is_empty());
        assert_eq!(ring.dropped(), dropped);
    }

    #[test]
    fn metrics_observer_aggregates_a_performance() {
        let (script, sender, recipient) = star_script(2);
        let inst = script.instance();
        let metrics = StdArc::new(MetricsObserver::new());
        inst.set_observer(StdArc::clone(&metrics) as StdArc<dyn Observer>);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for i in 0..2 {
                let inst = &inst;
                let recipient = &recipient;
                handles.push(s.spawn(move || inst.enroll_member(recipient, i, ())));
            }
            inst.enroll(&sender, 5).unwrap();
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(snap.enrollments_queued, 3);
        assert_eq!(snap.performances_started, 1);
        assert_eq!(snap.performances_completed, 1);
        assert_eq!(snap.performances_aborted, 0);
        assert_eq!(snap.roles_admitted, 3);
        assert_eq!(snap.roles_finished, 3);
        assert!(
            snap.latency.count() >= 2,
            "both rendezvous sends must be sampled, got {}",
            snap.latency.count()
        );
        assert_eq!(snap.per_performance.len(), 1);
        let (_, perf) = &snap.per_performance[0];
        assert!(perf.completed && !perf.aborted && !perf.stalled);
        assert!(perf.latency.count() >= 2);
    }

    /// Two subscribers behind a `MultiObserver` see the same gapless
    /// stream; clearing the observer unsubscribes both.
    #[test]
    fn multi_observer_delivers_one_gapless_stream() {
        let (script, sender, recipient) = star_script(1);
        let inst = script.instance();
        let ring = StdArc::new(RingObserver::new(256));
        let mirror = StdArc::new(RingObserver::new(256));
        inst.set_observer(StdArc::new(MultiObserver::with(vec![
            StdArc::clone(&ring) as StdArc<dyn Observer>,
            StdArc::clone(&mirror) as StdArc<dyn Observer>,
        ])));
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let r = recipient.clone();
            let h = s.spawn(move || i1.enroll_member(&r, 0, ()));
            inst.enroll(&sender, 2).unwrap();
            h.join().unwrap().unwrap();
        });
        let built_in = ring.drain();
        assert!(!built_in.is_empty());
        assert_eq!(built_in, mirror.drain());
        // Per-performance sequence numbers are gapless from 0.
        let perf_seqs: Vec<u64> = built_in
            .iter()
            .filter(|e| e.performance.is_some())
            .map(|e| e.seq)
            .collect();
        assert_eq!(perf_seqs, (0..perf_seqs.len() as u64).collect::<Vec<_>>());
        let inst_seqs: Vec<u64> = built_in
            .iter()
            .filter(|e| e.performance.is_none())
            .map(|e| e.seq)
            .collect();
        assert_eq!(inst_seqs, (0..inst_seqs.len() as u64).collect::<Vec<_>>());
        inst.clear_observer();
        std::thread::scope(|s| {
            let i1 = inst.clone();
            let r = recipient.clone();
            let h = s.spawn(move || i1.enroll_member(&r, 0, ()));
            inst.enroll(&sender, 3).unwrap();
            h.join().unwrap().unwrap();
        });
        assert!(ring.drain().is_empty());
        assert!(mirror.drain().is_empty());
    }

    #[test]
    fn ctx_reports_cast_and_process() {
        let mut b = Script::<u8>::builder("meta");
        let looker = b.role("looker", |ctx, ()| {
            assert_eq!(ctx.role(), &RoleId::new("looker"));
            assert_eq!(ctx.process().as_str(), "L");
            assert!(ctx.cast_frozen());
            let cast = ctx.cast();
            assert_eq!(cast.len(), 1);
            assert_eq!(
                ctx.process_of(&RoleId::new("looker")).unwrap().as_str(),
                "L"
            );
            assert_eq!(ctx.performance(), PerformanceId(0));
            Ok(())
        });
        let script = b.build().unwrap();
        let inst = script.instance();
        inst.enroll_with(&looker, (), Enrollment::as_process("L"))
            .unwrap();
    }
}
