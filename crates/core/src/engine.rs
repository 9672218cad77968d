//! The performance engine: enrollment queues, cast assembly, freezing,
//! successive *and overlapping* activations, termination, and abort
//! containment.
//!
//! The engine is deliberately *passive* — a state machine advanced by the
//! enrolling threads themselves — in keeping with the paper's goal of
//! "not generating additional processes when executing a script". (The
//! CSP and Ada *translations* in their respective crates demonstrate the
//! paper's supervisor-process alternative.)
//!
//! # Sharding
//!
//! Hot state is split in two. A single *front end* (one mutex + the
//! engine condvar) owns only what enrollment matching needs: the pending
//! queue and the roster of live performances. Each matched performance
//! lives in its own [`PerfShard`] — cast table, network, and a private
//! condvar — so the roles of one performance finish and
//! signal on their own shard without touching the front-end lock or
//! waking threads of unrelated performances. Completion is the only
//! transition that crosses back: the thread that observes a shard ready
//! claims it (the `completing` flag), reacquires the front end, and
//! retires the shard there.
//!
//! Lock order: front end → shard state → telemetry sink (per-shard
//! sequence locks and observer internals are leaves); never two shards
//! at once.
//!
//! Who wakes whom: enrollers wait on the engine condvar for their slot
//! to leave `Waiting`; roles that finished under delayed termination
//! wait on their shard's condvar for `done`. Both predicates change
//! under the front lock only (`done` with the shard lock too), and
//! every section that can change them ends in [`Engine::release`],
//! which drops the front lock and *then* notifies — the finalized
//! shards, and the engine condvar if a slot's outcome awaits its owner.
//! No wake-up is issued into a lock the woken thread takes next, and a
//! finish that is not a performance's last wakes nobody.
//!
//! The lifecycle commands the engine gives a performance's network —
//! `cast`, `finish`, `abort`, `reseed`, the fault-plan setters — are
//! given with those locks held, so that the network sees them in the
//! order the engine decided them. That is cheap because a command is
//! not a conversation: the in-process transport applies it in place,
//! and a socket-backed one *posts* it — a nonblocking write, ordered
//! ahead of whatever that network is asked next — so no lock is held
//! across a network round trip, except a spoke's first dial.
//!
//! # Telemetry
//!
//! Every engine decision is published through one [`TelemetrySink`]:
//! an atomic `enabled` flag (loaded `Relaxed` on the hot path, exactly
//! like the chaos layer's `FaultPlan` short-circuit) guards the one
//! installed [`Observer`]; a caller that wants several passes a
//! [`MultiObserver`](crate::MultiObserver). Per-performance events are
//! numbered under the owning shard's sequence lock, which is held
//! *across* delivery so each performance's stream reaches observers
//! gapless, strictly increasing, and in order.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};
use script_chan::{splitmix64, Arm, CastStep, FaultPlan, Network, Observers, ShardedTransport};

use crate::ctx::RoleCtx;
use crate::estimator::LatencyEstimator;
use crate::matcher::{admissible, match_performance, Candidate};
use crate::observer::{Observer, TelemetryEvent, TelemetryPayload};
use crate::spec::{FamilySize, ScriptSpec};
use crate::{
    AdaptiveWindow, Enrollment, Initiation, Partners, PerformanceId, ProcessId, RoleId,
    ScriptError, Termination, WatchdogPolicy,
};

/// Kernels of retired performances an instance keeps; the oldest goes.
const RETIRED_KERNELS: usize = 2;

/// How an enrollment names its role: a concrete id, or "next free member"
/// of an open family.
#[derive(Debug, Clone)]
pub(crate) enum RoleRef {
    Concrete(RoleId),
    /// Auto-indexed member of the open family this unindexed id names
    /// (spelled from a known name, it shares that name's allocation).
    NextOf(RoleId),
}

enum Outcome<M> {
    Waiting,
    Admitted {
        shard: Arc<PerfShard<M>>,
        role: RoleId,
    },
    Rejected(ScriptError),
}

struct PendingSlot<M> {
    ticket: u64,
    role: RoleRef,
    process: ProcessId,
    partners: Partners,
    /// Enrollment deadline: an expired slot is never admitted (its owner
    /// is about to remove it and return `Timeout`), so near-deadline
    /// matches cannot strand the rest of a freshly cast performance.
    deadline: Option<Instant>,
    outcome: Outcome<M>,
}

impl<M> PendingSlot<M> {
    fn matchable(&self, now: Instant) -> bool {
        matches!(self.outcome, Outcome::Waiting) && self.deadline.is_none_or(|d| now < d)
    }
}

/// One live performance: its network plus everything its roles mutate
/// while running, behind a lock and condvar of its own so sibling
/// performances never contend.
pub(crate) struct PerfShard<M> {
    pub(crate) seq: u64,
    pub(crate) net: Network<RoleId, M>,
    /// `net`'s kernel when no factory built it, retired with the shard.
    kernel: Option<Arc<ShardedTransport<RoleId, M>>>,
    /// Streaming rendezvous-latency estimator, fed by the network's
    /// latency observer; built only for the watchdog, which derives
    /// adaptive quiescence windows (and stall diagnostics) from it.
    latency: Option<Arc<LatencyEstimator>>,
    /// Next telemetry sequence number for this performance. Held across
    /// observer delivery so the per-performance event stream is gapless
    /// and arrives in sequence order (see [`TelemetrySink`]).
    telemetry_seq: Mutex<u64>,
    state: Mutex<ShardState>,
    cond: Condvar,
}

struct ShardState {
    /// Admitted (role, process, recorded partner constraints).
    cast: Vec<(RoleId, ProcessId, Partners)>,
    /// Beside `cast`: finished or not. Running = admitted, not finished.
    finished: Vec<bool>,
    frozen: bool,
    aborted: bool,
    /// Aborted by the quiescence watchdog; participants see
    /// [`ScriptError::Stalled`] rather than the generic abort.
    stalled: bool,
    /// Fully terminated: phase-4 (delayed-termination) waiters release.
    done: bool,
    /// Completion claimed by exactly one thread, which drops the shard
    /// lock and reacquires front end → shard to retire it.
    completing: bool,
}

impl ShardState {
    fn cast_has(&self, role: &RoleId) -> bool {
        self.cast.iter().any(|(r, _, _)| r == role)
    }

    fn family_count(&self, family: &str) -> usize {
        self.cast
            .iter()
            .filter(|(r, _, _)| r.in_family(family))
            .count()
    }

    /// The lowest index of `family` not in the cast: the largest `c` with
    /// `c` of the (distinct) indices below it, found by bisection.
    fn next_free_index(&self, family: &str) -> usize {
        let below = |c: usize| {
            self.cast
                .iter()
                .filter(|(r, _, _)| r.in_family(family) && r.index().is_some_and(|i| i < c))
                .count()
        };
        let (mut lo, mut hi) = (0, self.family_count(family) + 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if below(mid) == mid {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Has this performance terminated (normally or by abort)?
    fn is_ready(&self) -> bool {
        self.finished.iter().all(|&f| f) && ((self.frozen && !self.cast.is_empty()) || self.aborted)
    }

    /// Claims the completion of a terminated performance for the
    /// caller: `true` once, to the one thread that must retire it.
    fn claim_completion(&mut self) -> bool {
        let claimed = self.is_ready() && !self.completing;
        self.completing |= claimed;
        claimed
    }
}

impl<M> PerfShard<M> {
    /// The cast so far, as `(role, process)` pairs.
    pub(crate) fn cast_pairs(&self) -> Vec<(RoleId, ProcessId)> {
        self.state
            .lock()
            .cast
            .iter()
            .map(|(r, p, _)| (r.clone(), p.clone()))
            .collect()
    }

    pub(crate) fn frozen(&self) -> bool {
        self.state.lock().frozen
    }
}

/// Enrollment/matching front end: everything that is *not* owned by one
/// performance.
struct FrontEnd<M> {
    next_ticket: u64,
    next_seq: u64,
    /// The one unfrozen performance still accepting roles (immediate
    /// initiation). Detached as soon as its cast freezes, so the next
    /// enrollment gathers into a fresh, overlapping performance.
    gathering: Option<Arc<PerfShard<M>>>,
    /// Every performance started and not yet completed, oldest first.
    live: Vec<Arc<PerfShard<M>>>,
    pending: Vec<PendingSlot<M>>,
    /// Kernels of retired performances, oldest first, for reuse.
    retired: Vec<Arc<ShardedTransport<RoleId, M>>>,
    /// The one cast run being built under the front lock — at open, in
    /// an admission pass, at a seal — emptied once the network has it.
    steps: Vec<CastStep<RoleId>>,
    /// Performances retired since the front lock was taken, whose
    /// phase-4 waiters [`Engine::release`] wakes once it is let go.
    finalized: Vec<Arc<PerfShard<M>>>,
    closed: bool,
    /// Quiescence policy: performances making no communication progress
    /// for the (fixed or adaptively derived) window are aborted by a
    /// monitor thread.
    watchdog: Option<WatchdogPolicy>,
    /// Root seed for per-performance network RNGs (fault determinism).
    chaos_seed: Option<u64>,
    /// Fault plan attached (reseeded per performance) to every new
    /// performance's network.
    fault_plan: Option<FaultPlan>,
    /// Custom network constructor for future performances (distribution
    /// seam); `None` builds the default in-process network.
    net_factory: Option<Arc<NetworkFactory<M>>>,
    /// Message labeler attached to every future performance's
    /// rendezvous observer; `None` leaves rendezvous events unlabeled.
    labeler: Option<script_chan::LabelFn<M>>,
}

/// What a [`NetworkFactory`] is told about the performance whose network
/// it is about to build.
#[derive(Debug, Clone)]
pub struct PerformanceNet {
    /// The performance the network will carry.
    pub performance: PerformanceId,
    /// Whether the script declares an open role family (the network
    /// must accept peers beyond the declared cast).
    pub open: bool,
    /// The per-performance chaos seed, if the instance has one. The
    /// engine reseeds the returned network with it either way; it is
    /// provided so factories building *remote* transports can forward
    /// it to the process that owns the rendezvous state.
    pub seed: Option<u64>,
}

/// Builds the network for each new performance — the seam through which
/// a performance is placed on a non-default transport (e.g. a socket
/// transport from `script-net`, making the performance span OS
/// processes). The factory is called once per performance, before any
/// role is admitted.
pub type NetworkFactory<M> = dyn Fn(&PerformanceNet) -> Network<RoleId, M> + Send + Sync;

/// Default message labeler: no label. A named `fn` (not a closure) so
/// it coerces to [`script_chan::LabelFn`].
fn unlabeled<M>(_: &M) -> Option<String> {
    None
}

/// Derives performance `seq`'s seed from a root seed: the `seq + 1`-th
/// SplitMix64 output from `root`, so distinct performances draw
/// independent, reproducible schedules.
fn mix_seed(root: u64, seq: u64) -> u64 {
    splitmix64(&mut root.wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The engine half of the observability plane (see
/// [`crate::observer`]): one subscriber behind an atomic short-circuit,
/// plus the instance-scoped sequence counter.
#[derive(Default)]
struct TelemetrySink {
    /// Whether any observer is installed. Stored `SeqCst` on change,
    /// loaded `Relaxed` on the emit path — the same short-circuit
    /// pattern the chaos layer uses for zero-probability fault plans,
    /// keeping disabled-telemetry cost to one atomic load.
    enabled: AtomicBool,
    /// The installed subscriber ([`Engine::set_observer`]).
    observer: Mutex<Option<Arc<dyn Observer>>>,
    /// Sequence counter for instance-scoped events (no performance).
    instance_seq: Mutex<u64>,
}

impl TelemetrySink {
    /// Installs or removes the subscriber, then publishes the
    /// short-circuit flag.
    fn subscribe(&self, observer: Option<Arc<dyn Observer>>) {
        let mut slot = self.observer.lock();
        *slot = observer;
        self.enabled.store(slot.is_some(), Ordering::SeqCst);
    }
}

pub(crate) struct Engine<M> {
    pub(crate) spec: Arc<ScriptSpec<M>>,
    front: Mutex<FrontEnd<M>>,
    /// Wakes enrollment waiters only; per-performance signalling happens
    /// on each shard's own condvar.
    cond: Condvar,
    /// The observability plane's engine end. Its locks are leaves (after
    /// the front end and any shard state) so both can emit.
    telemetry: TelemetrySink,
    /// Timestamp origin for [`TelemetryEvent::timestamp`].
    epoch: Instant,
    /// Count of fully terminated performances.
    completed: AtomicU64,
    /// Emptied arm lists of finished selections, which the next ones
    /// lend the kernel (`RoleCtx::select_inner`).
    pub(crate) spare_arms: Mutex<Vec<Vec<Arm<RoleId, M>>>>,
    /// Self-reference for watchdog threads (they must not keep the
    /// engine alive).
    weak: Weak<Engine<M>>,
}

impl<M: Send + Clone + 'static> Engine<M> {
    pub(crate) fn new(spec: Arc<ScriptSpec<M>>) -> Arc<Self> {
        Arc::new_cyclic(|weak| Self {
            spec,
            front: Mutex::new(FrontEnd::<M> {
                next_ticket: 0,
                next_seq: 0,
                gathering: None,
                live: Vec::new(),
                pending: Vec::new(),
                retired: Vec::new(),
                steps: Vec::new(),
                finalized: Vec::new(),
                closed: false,
                watchdog: None,
                chaos_seed: None,
                fault_plan: None,
                net_factory: None,
                labeler: None,
            }),
            cond: Condvar::new(),
            telemetry: TelemetrySink::default(),
            epoch: Instant::now(),
            completed: AtomicU64::new(0),
            spare_arms: Mutex::new(Vec::new()),
            weak: weak.clone(),
        })
    }

    /// Whether any telemetry observer is installed (one relaxed atomic
    /// load — the whole cost of the plane while disabled).
    pub(crate) fn telemetry_on(&self) -> bool {
        self.telemetry.enabled.load(Ordering::Relaxed)
    }

    /// Builds the payload, numbers it under `seq_lock` and delivers it
    /// to the observer — or, with nobody subscribed, returns on the
    /// relaxed load without running `payload` at all, so an event's
    /// clones and formatting are paid only when someone will read them.
    /// The sequence lock is held across delivery so events of one scope
    /// reach observers gapless and in order.
    fn deliver(
        &self,
        performance: Option<PerformanceId>,
        seq_lock: &Mutex<u64>,
        payload: impl FnOnce() -> TelemetryPayload,
    ) {
        if !self.telemetry_on() {
            return;
        }
        let Some(observer) = self.telemetry.observer.lock().clone() else {
            return;
        };
        let payload = payload();
        let mut seq = seq_lock.lock();
        let event = TelemetryEvent {
            seq: *seq,
            performance,
            timestamp: self.epoch.elapsed(),
            payload,
        };
        *seq += 1;
        observer.on_event(event);
    }

    /// Emits an instance-scoped event (no owning performance).
    fn emit_instance(&self, payload: impl FnOnce() -> TelemetryPayload) {
        self.deliver(None, &self.telemetry.instance_seq, payload);
    }

    /// Emits an event attributed to `shard`'s performance.
    fn emit_shard(&self, shard: &PerfShard<M>, payload: impl FnOnce() -> TelemetryPayload) {
        self.deliver(
            Some(PerformanceId(shard.seq)),
            &shard.telemetry_seq,
            payload,
        );
    }

    /// A transport observer that puts each record it is handed on
    /// `shard`'s stream as `wrap` of a clone. It holds engine and shard
    /// weakly: the network outlives neither, and strong captures would
    /// cycle through `shard.net`.
    fn forward<R: Clone + 'static>(
        &self,
        shard: &Arc<PerfShard<M>>,
        wrap: fn(R) -> TelemetryPayload,
    ) -> impl Fn(&R) + Send + Sync + 'static {
        let (engine, shard) = (self.weak.clone(), Arc::downgrade(shard));
        move |record| {
            if let (Some(engine), Some(shard)) = (engine.upgrade(), shard.upgrade()) {
                engine.emit_shard(&shard, || wrap(record.clone()));
            }
        }
    }

    /// Arms (or re-arms) the quiescence watchdog for future
    /// performances: a performance whose network makes no progress for
    /// the policy's window is aborted with [`ScriptError::Stalled`].
    pub(crate) fn set_watchdog_policy(&self, policy: WatchdogPolicy) {
        if let WatchdogPolicy::Fixed(window) = policy {
            assert!(window > Duration::ZERO, "watchdog window must be positive");
        }
        self.front.lock().watchdog = Some(policy);
    }

    /// Disarms the watchdog for future performances.
    pub(crate) fn clear_watchdog(&self) {
        self.front.lock().watchdog = None;
    }

    /// Seeds the per-performance network RNGs (selection shuffling)
    /// deterministically. Affects future performances.
    pub(crate) fn set_chaos_seed(&self, seed: u64) {
        self.front.lock().chaos_seed = Some(seed);
    }

    /// Attaches `plan` (reseeded per performance from its own seed) to
    /// every future performance's network.
    pub(crate) fn set_fault_plan(&self, plan: FaultPlan) {
        self.front.lock().fault_plan = Some(plan);
    }

    /// Stops injecting faults into future performances.
    pub(crate) fn clear_fault_plan(&self) {
        self.front.lock().fault_plan = None;
    }

    pub(crate) fn set_message_labeler(&self, label_of: script_chan::LabelFn<M>) {
        self.front.lock().labeler = Some(label_of);
    }

    /// Routes every future performance's network through `factory`.
    pub(crate) fn set_network_factory(&self, factory: Arc<NetworkFactory<M>>) {
        self.front.lock().net_factory = Some(factory);
    }

    /// Future performances build the default in-process network again.
    pub(crate) fn clear_network_factory(&self) {
        self.front.lock().net_factory = None;
    }

    /// Number of performances that have fully terminated.
    pub(crate) fn completed_performances(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }

    /// Installs (replacing any previous) the telemetry observer.
    pub(crate) fn set_observer(&self, observer: Arc<dyn Observer>) {
        self.telemetry.subscribe(Some(observer));
    }

    /// Removes the telemetry observer.
    pub(crate) fn clear_observer(&self) {
        self.telemetry.subscribe(None);
    }

    /// A diagnostic snapshot of the instance.
    pub(crate) fn status(&self) -> crate::InstanceStatus {
        let fe = self.front.lock();
        let performances: Vec<crate::PerformanceStatus> = fe
            .live
            .iter()
            .map(|shard| {
                let ss = shard.state.lock();
                crate::PerformanceStatus {
                    id: PerformanceId(shard.seq),
                    cast: ss
                        .cast
                        .iter()
                        .map(|(r, p, _)| (r.clone(), p.clone()))
                        .collect(),
                    frozen: ss.frozen,
                    running: ss.finished.iter().filter(|&&f| !f).count(),
                    finished: ss.finished.iter().filter(|&&f| f).count(),
                    aborted: ss.aborted,
                }
            })
            .collect();
        crate::InstanceStatus {
            completed_performances: self.completed.load(Ordering::SeqCst),
            pending_enrollments: fe
                .pending
                .iter()
                .filter(|s| matches!(s.outcome, Outcome::Waiting))
                .count(),
            performances,
        }
    }

    /// Number of enrollments queued but not yet admitted.
    pub(crate) fn pending_enrollments(&self) -> usize {
        self.front
            .lock()
            .pending
            .iter()
            .filter(|s| matches!(s.outcome, Outcome::Waiting))
            .count()
    }

    /// Closes the instance: pending and future enrollments fail with
    /// [`ScriptError::InstanceClosed`]; live performances are aborted.
    pub(crate) fn close(&self) {
        let mut fe = self.front.lock();
        fe.closed = true;
        fe.retired.clear();
        self.emit_instance(|| TelemetryPayload::InstanceClosed);
        for slot in &mut fe.pending {
            if matches!(slot.outcome, Outcome::Waiting) {
                slot.outcome = Outcome::Rejected(ScriptError::InstanceClosed);
            }
        }
        for shard in fe.live.clone() {
            let mut ss = shard.state.lock();
            if ss.done {
                continue;
            }
            if !ss.aborted {
                self.abort_shard(&shard, &mut ss);
            }
            self.retire_if_claimed(&mut fe, &shard, ss);
        }
        self.release(fe);
    }

    /// Manually freezes the gathering performance's cast (open-ended
    /// scripts). No-op if no performance is gathering.
    pub(crate) fn seal_cast(&self) {
        let mut fe = self.front.lock();
        let Some(shard) = fe.gathering.clone() else {
            return;
        };
        self.seal_shard_inner(&mut fe, &shard);
        self.try_advance(&mut fe);
        self.release(fe);
    }

    /// Freezes one specific performance's cast (used by
    /// [`RoleCtx::seal_cast`], which knows which performance it is in).
    pub(crate) fn seal_shard(&self, shard: &Arc<PerfShard<M>>) {
        let mut fe = self.front.lock();
        self.seal_shard_inner(&mut fe, shard);
        self.try_advance(&mut fe);
        self.release(fe);
    }

    fn seal_shard_inner(&self, fe: &mut FrontEnd<M>, shard: &Arc<PerfShard<M>>) {
        let mut ss = shard.state.lock();
        if ss.frozen || ss.done {
            return;
        }
        Self::freeze(&self.spec, &mut ss, &mut fe.steps);
        self.run_cast(fe, shard, &ss, ss.cast.len());
        self.retire_if_claimed(fe, shard, ss);
    }

    /// The full enrollment path: queue, get admitted, run the role body
    /// on this thread, finish, and (for delayed termination) wait for the
    /// whole cast. `params` and `result` are the enroller's own
    /// `Option<P>` and `Option<O>` (see `ErasedBody`).
    pub(crate) fn enroll_erased(
        self: &Arc<Self>,
        role: RoleRef,
        params: &mut dyn Any,
        result: &mut dyn Any,
        options: Enrollment,
    ) -> Result<(), ScriptError> {
        let deadline = options.deadline.map(|d| d.resolve());
        let process = options.process.unwrap_or_else(ProcessId::anonymous);
        self.validate_role_ref(&role)?;

        // Phase 1: queue and wait for admission (the only phase that
        // touches the front-end lock and condvar).
        let ticket;
        {
            let mut fe = self.front.lock();
            if fe.closed {
                return Err(ScriptError::InstanceClosed);
            }
            ticket = fe.next_ticket;
            fe.next_ticket += 1;
            self.emit_instance(|| TelemetryPayload::EnrollmentQueued {
                role: match &role {
                    RoleRef::Concrete(id) => id.clone(),
                    RoleRef::NextOf(family) => family.clone(),
                },
                process: process.clone(),
            });
            fe.pending.push(PendingSlot {
                ticket,
                role,
                process: process.clone(),
                partners: options.partners,
                deadline,
                outcome: Outcome::Waiting,
            });
            self.try_advance(&mut fe);
            if options.non_blocking {
                let idx = fe
                    .pending
                    .iter()
                    .position(|s| s.ticket == ticket)
                    .expect("just pushed");
                if matches!(fe.pending[idx].outcome, Outcome::Waiting) {
                    fe.pending.remove(idx);
                    self.release(fe);
                    return Err(ScriptError::WouldBlock);
                }
            }
            self.release(fe);
        }
        let (shard, role_id) = {
            let mut fe = self.front.lock();
            loop {
                let idx = fe
                    .pending
                    .iter()
                    .position(|s| s.ticket == ticket)
                    .expect("pending slot present until resolved");
                match &fe.pending[idx].outcome {
                    Outcome::Admitted { shard, role } => {
                        let shard = Arc::clone(shard);
                        let role = role.clone();
                        fe.pending.remove(idx);
                        break (shard, role);
                    }
                    Outcome::Rejected(e) => {
                        let e = e.clone();
                        fe.pending.remove(idx);
                        return Err(e);
                    }
                    Outcome::Waiting => {
                        let timed_out = match deadline {
                            Some(d) => self.cond.wait_until(&mut fe, d).timed_out(),
                            None => {
                                self.cond.wait(&mut fe);
                                false
                            }
                        };
                        if timed_out {
                            // Re-find the slot: sibling removals during
                            // the wait may have shifted its position.
                            let idx = fe
                                .pending
                                .iter()
                                .position(|s| s.ticket == ticket)
                                .expect("pending slot present until resolved");
                            if matches!(fe.pending[idx].outcome, Outcome::Waiting) {
                                fe.pending.remove(idx);
                                self.try_advance(&mut fe);
                                self.release(fe);
                                return Err(ScriptError::Timeout);
                            }
                        }
                    }
                }
            }
        };
        let seq = shard.seq;

        // Phase 2: run the role body on this thread (the role is a
        // logical continuation of the enrolling process).
        let def = self
            .spec
            .role_def(role_id.name())
            .expect("admitted role exists in spec");
        let body = Arc::clone(&def.body);
        let port = shard
            .net
            .port(role_id.clone())
            .expect("cast role is declared in the performance network");
        let mut ctx = RoleCtx {
            engine: Arc::clone(self),
            shard: Arc::clone(&shard),
            port,
            role: role_id.clone(),
            performance: PerformanceId(seq),
            process,
            deadline,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut ctx, params, result)));
        drop(ctx);

        // Phase 3: finish the role on the shard alone; only the thread
        // that completes the performance crosses back to the front end.
        let panicked = outcome.is_err();
        let finalize = {
            let mut ss = shard.state.lock();
            let at = ss.cast.iter().position(|(r, _, _)| *r == role_id);
            ss.finished[at.expect("an admitted role is in the cast")] = true;
            // Under the shard lock: a write, not a wait (module docs).
            shard.net.finish(role_id.clone());
            self.emit_shard(&shard, || TelemetryPayload::RoleFinished {
                role: role_id.clone(),
            });
            if panicked {
                self.abort_shard(&shard, &mut ss);
            }
            ss.claim_completion()
        };
        // A finish that is not the last wakes nobody: phase 4 below
        // waits for `done`, which only `finalize_shard` sets.
        if finalize {
            let mut fe = self.front.lock();
            self.finalize_shard(&mut fe, &shard);
            self.try_advance(&mut fe);
            self.release(fe);
        }

        if panicked {
            return Err(ScriptError::RolePanicked(role_id));
        }

        // Phase 4: delayed termination barrier, on the shard's own
        // condvar — unrelated performances are never woken.
        if self.spec.termination == Termination::Delayed {
            let mut ss = shard.state.lock();
            while !ss.done {
                let timed_out = match deadline {
                    Some(d) => shard.cond.wait_until(&mut ss, d).timed_out(),
                    None => {
                        shard.cond.wait(&mut ss);
                        false
                    }
                };
                if timed_out && !ss.done {
                    return Err(ScriptError::Timeout);
                }
            }
            if ss.aborted {
                return Err(if ss.stalled {
                    ScriptError::Stalled
                } else {
                    ScriptError::PerformanceAborted
                });
            }
        }
        let stalled = shard.state.lock().stalled;

        match outcome.expect("panic case returned above") {
            // A role unblocked by a watchdog abort sees the generic
            // abort from the channel layer; name the real cause.
            Err(ScriptError::PerformanceAborted) if stalled => Err(ScriptError::Stalled),
            other => other,
        }
    }

    fn validate_role_ref(&self, role: &RoleRef) -> Result<(), ScriptError> {
        match role {
            RoleRef::Concrete(id) => self.spec.validate_role_id(id),
            RoleRef::NextOf(family) => match self.spec.role_def(family.name()).map(|d| d.family) {
                Some(Some(FamilySize::Open { .. })) => Ok(()),
                _ => Err(ScriptError::UnknownRole(family.clone())),
            },
        }
    }

    /// Aborts a performance: its network once, then the event (said
    /// again for a role panicking in a performance aborted already).
    /// Under the shard lock: a write, not a wait (module docs).
    fn abort_shard(&self, shard: &PerfShard<M>, ss: &mut ShardState) {
        if !ss.aborted {
            ss.aborted = true;
            shard.net.abort();
        }
        self.emit_shard(shard, || TelemetryPayload::PerformanceAborted);
    }

    /// Lets the shard lock go and, if that claims its performance's
    /// completion, retires it and says so. The caller holds the
    /// front-end lock.
    fn retire_if_claimed(
        &self,
        fe: &mut FrontEnd<M>,
        shard: &Arc<PerfShard<M>>,
        mut ss: MutexGuard<'_, ShardState>,
    ) -> bool {
        let claimed = ss.claim_completion();
        drop(ss);
        if claimed {
            self.finalize_shard(fe, shard);
        }
        claimed
    }

    /// Retires a completed shard. The caller has claimed completion
    /// ([`ShardState::claim_completion`], then let the shard lock go) and
    /// holds the front-end lock; [`Engine::release`] wakes the phase-4
    /// waiters.
    fn finalize_shard(&self, fe: &mut FrontEnd<M>, shard: &Arc<PerfShard<M>>) {
        let aborted = {
            let mut ss = shard.state.lock();
            debug_assert!(ss.completing && !ss.done);
            ss.done = true;
            ss.aborted
        };
        self.emit_shard(shard, || TelemetryPayload::PerformanceCompleted { aborted });
        fe.live.retain(|s| !Arc::ptr_eq(s, shard));
        Self::detach(fe, shard);
        self.completed.fetch_add(1, Ordering::SeqCst);
        fe.retired.extend(shard.kernel.clone());
        if fe.retired.len() > RETIRED_KERNELS {
            fe.retired.remove(0);
        }
        fe.finalized.push(Arc::clone(shard));
    }

    /// Lets the front lock go and wakes whom the section that held it
    /// made due; nothing else in this file notifies. After the unlock,
    /// because a role released from phase 4 re-enrolls through the front
    /// lock and an admitted enroller takes it to read its slot: woken
    /// under it, either would run straight into it. Enrollers are woken
    /// only if some slot has an outcome its owner has not collected.
    fn release(&self, mut fe: MutexGuard<'_, FrontEnd<M>>) {
        // One at most, outside `close`: popped, the list keeps its buffer.
        let last = fe.finalized.pop();
        let rest: Vec<_> = fe.finalized.drain(..).collect();
        let resolved = fe
            .pending
            .iter()
            .any(|s| !matches!(s.outcome, Outcome::Waiting));
        drop(fe);
        self.front.assert_not_held();
        for shard in rest.into_iter().chain(last) {
            shard.cond.notify_all();
        }
        if resolved {
            self.cond.notify_all();
        }
    }

    /// Advances the front end: starts performances and admits pending
    /// enrollments. Must be called with the front-end lock held whenever
    /// the pending set changes or a gathering slot frees up.
    fn try_advance(&self, fe: &mut FrontEnd<M>) {
        if fe.closed {
            return;
        }
        match self.spec.initiation {
            Initiation::Delayed => {
                // Overlapping activations: keep opening performances
                // while the pending set can cover a critical role set.
                while self.start_delayed(fe) {}
            }
            Initiation::Immediate => loop {
                if fe.gathering.is_none() {
                    if !fe
                        .pending
                        .iter()
                        .any(|s| matches!(s.outcome, Outcome::Waiting))
                    {
                        return;
                    }
                    self.open_performance(fe, Vec::new());
                }
                let shard = Arc::clone(fe.gathering.as_ref().expect("just ensured"));
                let mut ss = shard.state.lock();
                // Whatever this pass admits and, if that completes a
                // critical set, the freeze: one run.
                let first_new = ss.cast.len();
                Self::admit_pending(&self.spec, &shard, &mut ss, &mut fe.pending, &mut fe.steps);
                if Self::covers_critical(&self.spec, &ss) {
                    Self::freeze(&self.spec, &mut ss, &mut fe.steps);
                }
                self.run_cast(fe, &shard, &ss, first_new);
                if !ss.frozen {
                    return;
                }
                self.retire_if_claimed(fe, &shard, ss);
            },
        }
    }

    /// Tries to start a delayed-initiation performance from the pending
    /// set. Returns `true` if one was started. Nothing is allocated
    /// unless every role of some critical set has a matchable slot.
    fn start_delayed(&self, fe: &mut FrontEnd<M>) -> bool {
        let now = Instant::now();
        let pending = &fe.pending;
        // Open families cannot occur with delayed initiation.
        let candidates = || {
            pending
                .iter()
                .enumerate()
                .filter_map(|(idx, s)| match &s.role {
                    RoleRef::Concrete(role) if s.matchable(now) => Some(Candidate {
                        idx,
                        role,
                        process: &s.process,
                        partners: &s.partners,
                    }),
                    _ => None,
                })
        };
        let critical = self.spec.expanded_critical();
        let filled = |r: &RoleId| candidates().any(|c| c.role == r);
        if !critical.iter().any(|(exact, _)| exact.iter().all(filled)) {
            return false;
        }
        let candidates: Vec<Candidate<'_>> = candidates().collect();
        let matched = match_performance(&candidates, critical.iter().map(|(exact, _)| exact));
        let Some(mut admitted) = matched else {
            return false;
        };
        for chosen in &mut admitted {
            *chosen = candidates[*chosen].idx;
        }
        drop(candidates);
        self.open_performance(fe, admitted);
        true
    }

    /// Creates the next performance and admits the pending slots at the
    /// given indices into it, in order. Delayed performances (non-empty
    /// admission list) are frozen at creation and run detached; an empty
    /// admission list makes the new shard the gathering one.
    fn open_performance(&self, fe: &mut FrontEnd<M>, admitted: Vec<usize>) {
        let seq = fe.next_seq;
        fe.next_seq += 1;
        let seed = fe.chaos_seed.map(|root| mix_seed(root, seq));
        let open = self.spec.has_open_family();
        // The oldest retired kernel nobody holds, recycled, or a new one.
        let kernel = fe.net_factory.is_none().then(|| {
            let free = fe
                .retired
                .iter_mut()
                .position(|k| Arc::get_mut(k).is_some_and(|k| k.recycle(open, seed)));
            free.map_or_else(
                || Arc::new(ShardedTransport::new(open, seed)),
                |i| fe.retired.remove(i),
            )
        });
        let net: Network<RoleId, M> = match &fe.net_factory {
            Some(factory) => {
                let net = factory(&PerformanceNet {
                    performance: PerformanceId(seq),
                    open,
                    seed,
                });
                // Reseed so factory-built networks draw the same
                // per-performance schedule as default ones.
                if let Some(s) = seed {
                    net.reseed(s);
                }
                net
            }
            None => Network::with_transport(kernel.clone().expect("built above")),
        };
        if let Some(plan) = &fe.fault_plan {
            net.set_fault_plan(plan.reseeded(mix_seed(plan.seed(), seq)));
        }
        // Built for any watchdog: a Fixed one's stall events carry the
        // observed p99 too.
        let latency = fe
            .watchdog
            .map(|_| Arc::new(LatencyEstimator::new(AdaptiveWindow::CAPACITY)));
        let telemetry_live = self.telemetry_on();
        let roles = self.spec.cast_room();
        let shard = Arc::new(PerfShard {
            seq,
            net,
            kernel,
            latency,
            telemetry_seq: Mutex::new(0),
            state: Mutex::new(ShardState {
                cast: Vec::with_capacity(roles),
                finished: Vec::with_capacity(roles),
                frozen: false,
                aborted: false,
                stalled: false,
                done: false,
                completing: false,
            }),
            cond: Condvar::new(),
        });
        // The transport's records reach the plane as they are made. The
        // latency observer also feeds the watchdog's estimator. Faults
        // stream while a plan the engine attached is in force, so an
        // observer installed mid-performance sees the rest of them; a
        // plan the engine did not attach (a factory's, a hub's own) is
        // followed only if telemetry was on when the performance
        // opened: finding out otherwise would cost a socket-backed
        // network a round trip per performance. Rendezvous are emitted
        // under the receiving endpoint's lock, so their order here
        // cannot invert against delivery order.
        let mut observers = Observers::<RoleId, M>::default();
        if shard.latency.is_some() || telemetry_live {
            let (est, forward) = (
                shard.latency.clone(),
                self.forward(&shard, TelemetryPayload::Latency),
            );
            observers.latency = Some(Arc::new(move |sample| {
                if let Some(est) = &est {
                    est.record(sample.elapsed);
                }
                forward(sample);
            }));
        }
        if fe.fault_plan.is_some() || telemetry_live {
            observers.fault = Some(Arc::new(self.forward(&shard, TelemetryPayload::Fault)));
        }
        if telemetry_live {
            observers.rendezvous = Some((
                Arc::new(self.forward(&shard, TelemetryPayload::Rendezvous)),
                fe.labeler.unwrap_or(unlabeled::<M>),
            ));
            observers.session = Some(Arc::new(self.forward(&shard, TelemetryPayload::Session)));
        }
        shard.net.observe(observers);
        self.emit_shard(&shard, || TelemetryPayload::PerformanceStarted);
        let delayed = !admitted.is_empty();
        {
            let mut ss = shard.state.lock();
            // The whole cast is bound in one run: declare the script's
            // roles, activate the admitted ones, and — delayed
            // initiation admits its cast complete — freeze.
            let steps = &mut fe.steps;
            steps.extend(
                self.spec
                    .fixed_role_ids()
                    .iter()
                    .cloned()
                    .map(CastStep::Declare),
            );
            for i in admitted {
                let slot = &mut fe.pending[i];
                let RoleRef::Concrete(role) = &slot.role else {
                    unreachable!("delayed initiation admits concrete roles");
                };
                let role = role.clone();
                steps.push(CastStep::Activate(role.clone()));
                ss.cast
                    .push((role.clone(), slot.process.clone(), slot.partners.clone()));
                ss.finished.push(false);
                slot.outcome = Outcome::Admitted {
                    shard: Arc::clone(&shard),
                    role,
                };
            }
            if delayed {
                Self::freeze(&self.spec, &mut ss, steps);
            }
            // Like the reseed, the fault plan and the observers'
            // subscription above: writes, not waits — beyond a
            // socket-backed network's first dial (module docs).
            self.run_cast(fe, &shard, &ss, 0);
        }
        if let Some(policy) = fe.watchdog {
            self.spawn_watchdog(Arc::clone(&shard), policy);
        }
        fe.live.push(Arc::clone(&shard));
        if !delayed {
            fe.gathering = Some(shard);
        }
    }

    /// Spawns the quiescence monitor for one performance.
    ///
    /// The engine itself stays passive (role bodies run on enrolling
    /// threads); the watchdog is the one deliberate exception — an
    /// observer that cannot run on any participant thread, since every
    /// participant may be the one that is stuck. It holds the shard and
    /// only a weak engine reference, and exits as soon as the
    /// performance terminates or aborts.
    fn spawn_watchdog(&self, shard: Arc<PerfShard<M>>, policy: WatchdogPolicy) {
        let weak = self.weak.clone();
        let latency = shard
            .latency
            .clone()
            .expect("a watched performance measures");
        std::thread::spawn(move || {
            let mut last_activity = shard.net.activity();
            let mut last_progress = Instant::now();
            let mut adaptive = AdaptiveWindow::default();
            // Last window announced on the telemetry plane; re-announced
            // only on a ≥ 1/8 relative move so adaptive policies do not
            // flood the plane on every poll.
            let mut announced: Option<Duration> = None;
            loop {
                // Re-derive the deadline every iteration: the estimator
                // gains samples while the performance runs, so adaptive
                // windows track the observed rendezvous-latency quantile.
                let (window, observed_p99) = match policy {
                    WatchdogPolicy::Fixed(w) => (w, latency.quantile(0.99)),
                    WatchdogPolicy::Adaptive => adaptive.arm(&latency),
                };
                if let Some(engine) = weak.upgrade() {
                    if engine.telemetry_on() {
                        let moved = announced.is_none_or(|prev| window.abs_diff(prev) * 8 >= prev);
                        if moved {
                            announced = Some(window);
                            engine.emit_shard(&shard, || TelemetryPayload::WatchdogArmed {
                                window,
                                observed_p99,
                            });
                        }
                    }
                }
                let poll = (window / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
                std::thread::sleep(poll);
                let Some(engine) = weak.upgrade() else { return };
                {
                    let ss = shard.state.lock();
                    if ss.done || ss.aborted {
                        return;
                    }
                }
                let now_activity = shard.net.activity();
                if now_activity != last_activity {
                    last_activity = now_activity;
                    last_progress = Instant::now();
                    continue;
                }
                if last_progress.elapsed() < window {
                    continue;
                }
                // Quiescent past the deadline: declare a stall and abort.
                // Front end first (lock order), then the shard.
                let mut fe = engine.front.lock();
                let mut ss = shard.state.lock();
                if ss.done || ss.aborted {
                    return;
                }
                ss.stalled = true;
                engine.emit_shard(&shard, || TelemetryPayload::PerformanceStalled {
                    observed_p99,
                    window,
                });
                engine.abort_shard(&shard, &mut ss);
                if engine.retire_if_claimed(&mut fe, &shard, ss) {
                    engine.try_advance(&mut fe);
                }
                engine.release(fe);
                return;
            }
        });
    }

    /// Gives `shard`'s network the cast run built under the front lock,
    /// then says what it did: `RoleAdmitted` for each cast entry from
    /// `first_new` on and, if the cast is now frozen, `CastFrozen` —
    /// detaching a frozen gathering shard, so the next enrollment
    /// gathers into a fresh, overlapping performance. Under both locks:
    /// a write, not a wait (module docs).
    fn run_cast(
        &self,
        fe: &mut FrontEnd<M>,
        shard: &Arc<PerfShard<M>>,
        ss: &ShardState,
        first_new: usize,
    ) {
        shard.net.cast(&fe.steps);
        fe.steps.clear();
        for (role, process, _) in &ss.cast[first_new..] {
            self.emit_shard(shard, || TelemetryPayload::RoleAdmitted {
                role: role.clone(),
                process: process.clone(),
            });
        }
        if ss.frozen {
            self.emit_shard(shard, || TelemetryPayload::CastFrozen);
            Self::detach(fe, shard);
        }
    }

    /// Stops `shard` gathering enrollments, if it was.
    fn detach(fe: &mut FrontEnd<M>, shard: &Arc<PerfShard<M>>) {
        if fe.gathering.as_ref().is_some_and(|g| Arc::ptr_eq(g, shard)) {
            fe.gathering = None;
        }
    }

    /// Admits every currently-admissible pending enrollment, in ticket
    /// order, repeating until a fixed point (an admission may enable
    /// another). The admitted join the end of `ss.cast`; their
    /// activations are pushed onto `steps` for the caller to apply.
    fn admit_pending(
        spec: &ScriptSpec<M>,
        shard: &Arc<PerfShard<M>>,
        ss: &mut ShardState,
        pending: &mut [PendingSlot<M>],
        steps: &mut Vec<CastStep<RoleId>>,
    ) {
        let now = Instant::now();
        let mut progress = true;
        while progress {
            progress = false;
            for slot in pending.iter_mut() {
                if !slot.matchable(now) {
                    continue;
                }
                let role = match &slot.role {
                    RoleRef::Concrete(id) => {
                        if ss.cast_has(id) {
                            continue;
                        }
                        if let Some(Some(FamilySize::Open { max: Some(m) })) =
                            spec.role_def(id.name()).map(|d| d.family)
                        {
                            if ss.family_count(id.name()) >= m {
                                continue;
                            }
                        }
                        id.clone()
                    }
                    RoleRef::NextOf(family) => {
                        let family = family.name();
                        let max = match spec.role_def(family).map(|d| d.family) {
                            Some(Some(FamilySize::Open { max })) => max,
                            _ => continue,
                        };
                        if let Some(m) = max {
                            if ss.family_count(family) >= m {
                                continue;
                            }
                        }
                        RoleId::indexed(family, ss.next_free_index(family))
                    }
                };
                let cand = Candidate {
                    idx: 0,
                    role: &role,
                    process: &slot.process,
                    partners: &slot.partners,
                };
                if admissible(&cand, &ss.cast) {
                    steps.push(CastStep::Activate(role.clone()));
                    ss.cast
                        .push((role.clone(), slot.process.clone(), slot.partners.clone()));
                    ss.finished.push(false);
                    slot.outcome = Outcome::Admitted {
                        shard: Arc::clone(shard),
                        role,
                    };
                    progress = true;
                }
            }
        }
    }

    /// Does the cast cover any critical role set?
    fn covers_critical(spec: &ScriptSpec<M>, ss: &ShardState) -> bool {
        let expanded = spec.expanded_critical();
        if expanded.is_empty() {
            // Open-ended script without critical sets: only manual seal.
            return false;
        }
        expanded.iter().any(|(exact, at_least)| {
            exact.iter().all(|r| ss.cast_has(r))
                && at_least
                    .iter()
                    .all(|(family, k)| ss.family_count(family) >= *k)
        })
    }

    /// Freezes the cast: unfilled roles become permanently terminated.
    /// Pushes the transitions onto `steps` for the caller to apply.
    fn freeze(spec: &ScriptSpec<M>, ss: &mut ShardState, steps: &mut Vec<CastStep<RoleId>>) {
        ss.frozen = true;
        for role in spec.fixed_role_ids() {
            if !ss.cast_has(role) {
                steps.push(CastStep::Finish(role.clone()));
            }
        }
        // Bars implicitly-declared (open family) stragglers.
        steps.push(CastStep::Seal);
    }
}

impl<M> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fe = self.front.lock();
        f.debug_struct("Engine")
            .field("script", &self.spec.name)
            .field("pending", &fe.pending.len())
            .field("live", &fe.live.len())
            .field("completed", &self.completed.load(Ordering::SeqCst))
            .field("closed", &fe.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::{RingObserver, Script};

    /// The nobody-subscribed path is the relaxed load and nothing else:
    /// an event's payload is a closure the gate never runs.
    #[test]
    fn unsubscribed_instance_builds_no_event() {
        let mut b = Script::<u8>::builder("quiet");
        b.role("only", |_ctx, ()| Ok(()));
        let instance = b.build().unwrap().instance();
        let engine = &instance.engine;
        engine.emit_instance(|| panic!("built an event nobody subscribed to"));

        let ring = Arc::new(RingObserver::new(64));
        engine.set_observer(ring.clone());
        let built = Cell::new(false);
        engine.emit_instance(|| {
            built.set(true);
            TelemetryPayload::InstanceClosed
        });
        assert!(built.get(), "a subscribed instance builds the event");
        assert_eq!(ring.drain().len(), 1);
    }
}
