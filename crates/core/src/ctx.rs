//! The communication context handed to role bodies.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use script_chan::{Arm, ChanError, Outcome, PeerState, Port};

use crate::engine::{Engine, PerfShard};
use crate::{PerformanceId, ProcessId, RoleId, ScriptError};

/// One guarded alternative for [`RoleCtx::select`].
///
/// Guards carry a boolean condition (CSP-style): disabled guards are
/// ignored by the selection.
///
/// # Example
///
/// ```no_run
/// # use script_core::{Guard, RoleId};
/// let busy = false;
/// let g: Guard<u32> = Guard::recv_from(RoleId::new("reader")).when(!busy);
/// ```
#[derive(Debug)]
pub struct Guard<M> {
    kind: GuardKind<M>,
    enabled: bool,
}

#[derive(Debug)]
enum GuardKind<M> {
    Recv(Option<RoleId>),
    Send(RoleId, M),
    Watch(RoleId),
}

impl<M> Guard<M> {
    /// Fires when a message from `role` can be received.
    pub fn recv_from(role: impl Into<RoleId>) -> Self {
        Self {
            kind: GuardKind::Recv(Some(role.into())),
            enabled: true,
        }
    }

    /// Fires when a message from any role can be received.
    pub fn recv_any() -> Self {
        Self {
            kind: GuardKind::Recv(None),
            enabled: true,
        }
    }

    /// Fires when `msg` can be synchronously delivered to `role`
    /// (CSP output guard).
    pub fn send(role: impl Into<RoleId>, msg: M) -> Self {
        Self {
            kind: GuardKind::Send(role.into(), msg),
            enabled: true,
        }
    }

    /// Fires when `role` has terminated (or will never be filled) and no
    /// message from it remains pending.
    pub fn watch(role: impl Into<RoleId>) -> Self {
        Self {
            kind: GuardKind::Watch(role.into()),
            enabled: true,
        }
    }

    /// Attaches a boolean condition; a `false` guard never fires.
    pub fn when(mut self, condition: bool) -> Self {
        self.enabled = self.enabled && condition;
        self
    }
}

/// A fired selection alternative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A receive guard fired.
    Received {
        /// Index of the guard (in the order passed to `select`).
        guard: usize,
        /// The role the message came from.
        from: RoleId,
        /// The message.
        msg: M,
    },
    /// A send guard fired; the message was delivered.
    Sent {
        /// Index of the guard.
        guard: usize,
        /// The role the message went to.
        to: RoleId,
    },
    /// A watch guard fired: the role terminated with nothing pending.
    Terminated {
        /// Index of the guard.
        guard: usize,
        /// The terminated role.
        role: RoleId,
    },
}

pub(crate) fn map_chan_err(e: ChanError<RoleId>) -> ScriptError {
    match e {
        ChanError::Terminated(r) => ScriptError::RoleUnavailable(r),
        ChanError::AllTerminated => ScriptError::AllPartnersTerminated,
        ChanError::Aborted => ScriptError::PerformanceAborted,
        ChanError::Timeout => ScriptError::Timeout,
        ChanError::Unknown(r) => ScriptError::UnknownRole(r),
        ChanError::Myself => ScriptError::SelfCommunication,
        ChanError::EmptySelect => ScriptError::NoEnabledGuards,
    }
}

/// The context a role body communicates through.
///
/// Provides the inter-role communication primitives of the paper's host
/// languages — synchronous send/receive, guarded selection — plus the
/// script-specific queries: who is in the cast, which roles have
/// terminated, and the performance number.
///
/// All blocking operations respect the enrollment's deadline, if any.
pub struct RoleCtx<M> {
    engine: Arc<Engine<M>>,
    /// The performance this role runs in: cast queries and sealing go
    /// straight to its shard, bypassing the engine front end.
    shard: Arc<PerfShard<M>>,
    port: Port<RoleId, M>,
    role: RoleId,
    performance: PerformanceId,
    process: ProcessId,
    deadline: Option<Instant>,
}

impl<M> fmt::Debug for RoleCtx<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoleCtx")
            .field("role", &self.role)
            .field("performance", &self.performance)
            .field("process", &self.process)
            .finish()
    }
}

impl<M> RoleCtx<M> {
    /// The role this body is playing (family members learn their index
    /// here).
    pub fn role(&self) -> &RoleId {
        &self.role
    }

    /// The current performance number.
    pub fn performance(&self) -> PerformanceId {
        self.performance
    }

    /// The identity of the process enrolled in this role.
    pub fn process(&self) -> &ProcessId {
        &self.process
    }
}

impl<M: Send + Clone + 'static> RoleCtx<M> {
    pub(crate) fn new(
        engine: Arc<Engine<M>>,
        shard: Arc<PerfShard<M>>,
        port: Port<RoleId, M>,
        role: RoleId,
        performance: PerformanceId,
        process: ProcessId,
        deadline: Option<Instant>,
    ) -> Self {
        Self {
            engine,
            shard,
            port,
            role,
            performance,
            process,
            deadline,
        }
    }

    fn deadline_for(&self, timeout: Option<Duration>) -> Option<Instant> {
        let op = timeout.map(|t| Instant::now() + t);
        match (self.deadline, op) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn check_role(&self, role: &RoleId) -> Result<(), ScriptError> {
        self.engine.spec.validate_role_id(role)
    }

    /// Synchronously sends `msg` to `to` (rendezvous: blocks until the
    /// partner receives it). If `to` is an unfilled role the send blocks
    /// until a process enrolls in it — or fails once the cast freezes
    /// without it.
    ///
    /// # Errors
    ///
    /// * [`ScriptError::RoleUnavailable`] if `to` terminated or will
    ///   never be filled,
    /// * [`ScriptError::PerformanceAborted`] if the performance aborted,
    /// * [`ScriptError::Timeout`] if the enrollment deadline expires,
    /// * [`ScriptError::UnknownRole`] / [`ScriptError::SelfCommunication`]
    ///   on bad addressing.
    pub fn send(&self, to: &RoleId, msg: M) -> Result<(), ScriptError> {
        self.check_role(to)?;
        self.port
            .send_deadline(to, msg, self.deadline)
            .map_err(map_chan_err)
    }

    /// [`RoleCtx::send`] with an additional per-operation timeout
    /// (the earlier of it and the enrollment deadline applies).
    ///
    /// # Errors
    ///
    /// As [`RoleCtx::send`].
    pub fn send_timeout(&self, to: &RoleId, msg: M, timeout: Duration) -> Result<(), ScriptError> {
        self.check_role(to)?;
        self.port
            .send_deadline(to, msg, self.deadline_for(Some(timeout)))
            .map_err(map_chan_err)
    }

    /// Receives the next message from `from`, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// As [`RoleCtx::send`].
    pub fn recv_from(&self, from: &RoleId) -> Result<M, ScriptError> {
        self.check_role(from)?;
        self.port
            .recv_from_deadline(from, self.deadline)
            .map_err(map_chan_err)
    }

    /// [`RoleCtx::recv_from`] with a per-operation timeout.
    ///
    /// # Errors
    ///
    /// As [`RoleCtx::send`].
    pub fn recv_from_timeout(&self, from: &RoleId, timeout: Duration) -> Result<M, ScriptError> {
        self.check_role(from)?;
        self.port
            .recv_from_deadline(from, self.deadline_for(Some(timeout)))
            .map_err(map_chan_err)
    }

    /// Non-blocking receive: takes a pending message from `from` if one
    /// is already deposited; returns `Ok(None)` when nothing is pending
    /// but the role could still send.
    ///
    /// # Errors
    ///
    /// As [`RoleCtx::recv_from`] (a terminated/unfilled `from` is an
    /// error even when polling).
    pub fn try_recv_from(&self, from: &RoleId) -> Result<Option<M>, ScriptError> {
        self.check_role(from)?;
        self.port.try_recv_from(from).map_err(map_chan_err)
    }

    /// Receives a message from any role (partners-unnamed reception, like
    /// an Ada `accept`).
    ///
    /// # Errors
    ///
    /// [`ScriptError::AllPartnersTerminated`] once no partner can ever
    /// send again, plus the errors of [`RoleCtx::send`].
    pub fn recv_any(&self) -> Result<(RoleId, M), ScriptError> {
        self.port
            .recv_any_deadline(self.deadline)
            .map_err(map_chan_err)
    }

    /// Guarded selection (CSP alternative command) over the enabled
    /// guards: blocks until one can fire, fires exactly one (chosen
    /// fairly among the ready alternatives), and reports it. `guards`
    /// is anything that yields them — a `Vec`, an array, an iterator —
    /// and a reported `guard` index counts every guard it yielded,
    /// disabled ones included.
    ///
    /// # Errors
    ///
    /// * [`ScriptError::NoEnabledGuards`] if every guard is disabled,
    /// * [`ScriptError::AllPartnersTerminated`] /
    ///   [`ScriptError::RoleUnavailable`] when no enabled guard can ever
    ///   fire,
    /// * abort/timeout/addressing errors as for [`RoleCtx::send`].
    pub fn select(
        &self,
        guards: impl IntoIterator<Item = Guard<M>>,
    ) -> Result<Event<M>, ScriptError> {
        self.select_inner(guards.into_iter(), self.deadline)
    }

    /// [`RoleCtx::select`] with a per-operation timeout.
    ///
    /// # Errors
    ///
    /// As [`RoleCtx::select`].
    pub fn select_timeout(
        &self,
        guards: impl IntoIterator<Item = Guard<M>>,
        timeout: Duration,
    ) -> Result<Event<M>, ScriptError> {
        self.select_inner(guards.into_iter(), self.deadline_for(Some(timeout)))
    }

    fn select_inner(
        &self,
        guards: impl Iterator<Item = Guard<M>>,
        deadline: Option<Instant>,
    ) -> Result<Event<M>, ScriptError> {
        // Arm `k` is guard `k` until a guard is disabled; only from then
        // on is the map from arms back to guards written down.
        let mut arms = Vec::with_capacity(guards.size_hint().0);
        let mut index_map: Option<Vec<usize>> = None;
        for (i, g) in guards.enumerate() {
            if !g.enabled {
                index_map.get_or_insert_with(|| (0..i).collect());
                continue;
            }
            if let Some(map) = &mut index_map {
                map.push(i);
            }
            arms.push(match g.kind {
                GuardKind::Recv(Some(role)) => {
                    self.check_role(&role)?;
                    Arm::recv_from(role)
                }
                GuardKind::Recv(None) => Arm::recv_any(),
                GuardKind::Send(role, msg) => {
                    self.check_role(&role)?;
                    Arm::send(role, msg)
                }
                GuardKind::Watch(role) => {
                    self.check_role(&role)?;
                    Arm::watch(role)
                }
            });
        }
        if arms.is_empty() {
            return Err(ScriptError::NoEnabledGuards);
        }
        let guard = |arm: usize| index_map.as_ref().map_or(arm, |map| map[arm]);
        match self.port.select_deadline(arms, deadline) {
            Ok(Outcome::Received { arm, from, msg }) => Ok(Event::Received {
                guard: guard(arm),
                from,
                msg,
            }),
            Ok(Outcome::Sent { arm, to }) => Ok(Event::Sent {
                guard: guard(arm),
                to,
            }),
            Ok(Outcome::Terminated { arm, peer }) => Ok(Event::Terminated {
                guard: guard(arm),
                role: peer,
            }),
            Err(e) => Err(map_chan_err(e)),
        }
    }

    /// Returns `true` if `role` has terminated in this performance, or
    /// the cast froze without it ever being filled — the paper's
    /// `r.terminated` query from the lock-manager example.
    ///
    /// Before the critical role set is filled this is `false` for
    /// unfilled roles; once the cast freezes, every unfilled role reads
    /// as terminated.
    pub fn terminated(&self, role: &RoleId) -> bool {
        self.port.network().peer_state(role) == Some(PeerState::Done)
    }

    /// The cast of this performance so far: `(role, process)` bindings.
    pub fn cast(&self) -> Vec<(RoleId, ProcessId)> {
        self.shard.cast_pairs()
    }

    /// The process enrolled in `role`, if it is currently in the cast.
    pub fn process_of(&self, role: &RoleId) -> Option<ProcessId> {
        self.cast()
            .into_iter()
            .find(|(r, _)| r == role)
            .map(|(_, p)| p)
    }

    /// Returns `true` once this performance's cast is frozen (no further
    /// roles can join).
    pub fn cast_frozen(&self) -> bool {
        self.shard.frozen()
    }

    /// Freezes the cast of *this* performance (for open-ended scripts
    /// without a critical role set).
    pub fn seal_cast(&self) {
        self.engine.seal_shard(&self.shard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Script;

    /// One performance of a two-role script: `peer` sends 7 to `sel`,
    /// and `sel` returns what `choose` makes of its context.
    fn with_peer<O: Send + 'static>(
        choose: impl Fn(&mut RoleCtx<u8>) -> Result<O, ScriptError> + Send + Sync + 'static,
    ) -> Result<O, ScriptError> {
        let mut b = Script::<u8>::builder("select");
        let sel = b.role("sel", move |ctx, ()| choose(ctx));
        let peer = b.role("peer", |ctx, ()| ctx.send(&RoleId::new("sel"), 7));
        let inst = b.build().expect("a well-formed script").instance();
        std::thread::scope(|s| {
            // The peer's send fails once `sel` leaves without taking it.
            s.spawn(|| inst.enroll(&peer, ()));
            inst.enroll(&sel, ())
        })
    }

    fn received(guard: usize) -> Event<u8> {
        Event::Received {
            guard,
            from: RoleId::new("peer"),
            msg: 7,
        }
    }

    #[test]
    fn a_disabled_guard_anywhere_keeps_the_reported_index() {
        // Only the receive can fire: the peer terminates only once its
        // message is taken, so the watch waits behind it.
        for disabled in 0..3 {
            for recv_first in [true, false] {
                let got = with_peer(move |ctx| {
                    let mut live = if recv_first {
                        [Guard::recv_from("peer"), Guard::watch("peer")]
                    } else {
                        [Guard::watch("peer"), Guard::recv_from("peer")]
                    }
                    .into_iter();
                    ctx.select((0..3).map(|i| {
                        if i == disabled {
                            Guard::recv_any().when(false)
                        } else {
                            live.next().expect("two live guards")
                        }
                    }))
                });
                let recv_at = match (recv_first, disabled) {
                    (true, 0) => 1,
                    (true, _) => 0,
                    (false, 2) => 1,
                    (false, _) => 2,
                };
                assert_eq!(got, Ok(received(recv_at)), "disabled {disabled}");
            }
        }
    }

    #[test]
    fn every_guard_disabled_is_no_enabled_guards() {
        let got = with_peer(|ctx| {
            ctx.select([
                Guard::recv_from("peer").when(false),
                Guard::recv_any().when(false),
                Guard::watch("peer").when(false),
            ])
        });
        assert_eq!(got, Err(ScriptError::NoEnabledGuards));
        let got = with_peer(|ctx| ctx.select(std::iter::empty()));
        assert_eq!(got, Err(ScriptError::NoEnabledGuards));
    }

    #[test]
    fn a_vec_an_array_and_an_iterator_all_select() {
        let got = with_peer(|ctx| ctx.select(vec![Guard::watch("peer"), Guard::recv_any()]));
        assert_eq!(got, Ok(received(1)));
        let got = with_peer(|ctx| ctx.select([Guard::recv_from("peer")]));
        assert_eq!(got, Ok(received(0)));
        // A size hint that is not exact, disabled guards filtered out
        // before the selection sees them.
        let got = with_peer(|ctx| {
            let guards = [Guard::recv_any().when(false), Guard::recv_from("peer")];
            ctx.select(guards.into_iter().filter(|g| g.enabled))
        });
        assert_eq!(got, Ok(received(0)));
        let got = with_peer(|ctx| {
            ctx.select_timeout(
                (0..2).map(|_| Guard::recv_from("peer")),
                Duration::from_secs(10),
            )
        });
        assert!(
            matches!(got, Ok(Event::Received { guard: 0 | 1, .. })),
            "{got:?}"
        );
    }

    #[test]
    fn guard_conditions_disable() {
        let g: Guard<u8> = Guard::recv_any().when(false);
        assert!(!g.enabled);
        let g: Guard<u8> = Guard::recv_any().when(true).when(true);
        assert!(g.enabled);
        let g: Guard<u8> = Guard::send(RoleId::new("r"), 1).when(true).when(false);
        assert!(!g.enabled);
    }

    #[test]
    fn guard_constructors() {
        let g: Guard<u8> = Guard::recv_from("a");
        assert!(matches!(g.kind, GuardKind::Recv(Some(_))));
        let g: Guard<u8> = Guard::watch("a");
        assert!(matches!(g.kind, GuardKind::Watch(_)));
    }

    #[test]
    fn event_equality() {
        let a: Event<u8> = Event::Sent {
            guard: 0,
            to: RoleId::new("x"),
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
