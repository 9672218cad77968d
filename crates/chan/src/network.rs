//! The rendezvous network facade.
//!
//! A [`Network`] is a thin handle over a [`Transport`] — the blocking
//! rendezvous substrate. The default transport is the in-process
//! [`ShardedTransport`](crate::ShardedTransport): one lock + condvar
//! *per endpoint*, so unrelated participants never contend and wakeups
//! are targeted instead of herd broadcasts (see the
//! [`transport`](crate::transport) module docs for the sharding and
//! wakeup protocol). Alternative substrates plug in through
//! [`Network::with_transport`] without touching the layers above.
//!
//! Send arms in a selection fire only by *claiming* a peer that is
//! already committed to a matching receive (the standard two-phase
//! trick for CSP output guards), which makes a fired send arm a proof
//! of delivery. A plain send that finds its peer so committed claims it
//! the same way and returns at once.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use crate::fault::FaultPlan;
use crate::select::{Arm, Outcome};
use crate::transport::{CastStep, Observers, ShardedTransport, Transport};
use crate::ChanError;

/// Lifecycle state of a network participant.
///
/// The three states mirror the paper's role lifecycle: a role in the
/// script text but not yet enrolled (`Expected`), an enrolled role
/// executing its body (`Active`), and a role that finished or will never
/// be filled in this performance (`Done`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerState {
    /// Declared but not yet active; communication with it blocks.
    Expected,
    /// Actively participating.
    Active,
    /// Finished, or barred from ever joining; communication with it fails
    /// with [`ChanError::Terminated`] once pending messages are drained.
    Done,
}

/// A network of named participants communicating by rendezvous.
///
/// Cloning a `Network` yields another handle to the same network. See the
/// [crate docs](crate) for an overview and example.
pub struct Network<I, M> {
    transport: Arc<dyn Transport<I, M>>,
}

impl<I, M> Clone for Network<I, M> {
    fn clone(&self) -> Self {
        Self {
            transport: Arc::clone(&self.transport),
        }
    }
}

/// Prints no state: every question a transport answers may be a blocking
/// round trip (a socket spoke), which formatting must never make.
impl<I, M> fmt::Debug for Network<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network").finish_non_exhaustive()
    }
}

impl<I, M> Default for Network<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<I, M> Network<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Creates an empty network on the default sharded in-process
    /// transport. Peers must be declared (or activated) before they can
    /// be referenced.
    pub fn new() -> Self {
        Self::with_transport(Arc::new(ShardedTransport::new(false, None)))
    }

    /// Creates a network in which referencing an undeclared peer
    /// implicitly declares it as [`PeerState::Expected`] instead of
    /// failing with [`ChanError::Unknown`].
    ///
    /// Used for open-ended role families whose membership is not known up
    /// front.
    pub fn new_open() -> Self {
        Self::with_transport(Arc::new(ShardedTransport::new(true, None)))
    }

    /// Creates a network with a deterministic RNG seed for the fair
    /// nondeterministic choice among ready alternatives. Intended for
    /// reproducible tests.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_transport(Arc::new(ShardedTransport::new(false, Some(seed))))
    }

    /// Wraps an existing transport in a network handle.
    ///
    /// This is the seam for alternative substrates (a remote transport,
    /// an instrumented wrapper): everything above the [`Transport`]
    /// trait — ports, selections, the engine — works unchanged.
    pub fn with_transport(transport: Arc<dyn Transport<I, M>>) -> Self {
        Self { transport }
    }

    /// Re-seeds the selection RNGs in place. Lets an instance impose a
    /// reproducible selection order on an already-built network (e.g.
    /// one per performance, derived from a chaos seed).
    pub fn reseed(&self, seed: u64) {
        self.transport.reseed(seed);
    }

    /// Declares `id` as an expected participant (idempotent; never
    /// downgrades an existing state).
    pub fn declare(&self, id: I) {
        self.transport.declare(id);
    }

    /// Marks `id` as active, declaring it if necessary.
    pub fn activate(&self, id: I) {
        self.transport.activate(id);
    }

    /// Marks `id` as done (finished or permanently barred). Blocked
    /// operations naming `id` observe the transition: receives drain any
    /// pending message first, then fail with
    /// [`ChanError::Terminated`]; senders waiting on `id` fail
    /// immediately.
    pub fn finish(&self, id: I) {
        self.transport.finish(id);
    }

    /// Seals the network: every peer still [`PeerState::Expected`] becomes
    /// [`PeerState::Done`] (it will never be filled), and — on
    /// implicitly-declaring networks — future references to unknown peers
    /// are declared `Done` rather than `Expected`.
    ///
    /// This implements the freeze of a performance's cast: after the
    /// critical role set is filled (or after an explicit
    /// `seal_cast`), unfilled roles read as terminated.
    pub fn seal(&self) {
        self.transport.cast(&[CastStep::Seal]);
    }

    /// Applies a run of lifecycle transitions in order, as one act: the
    /// steps take effect exactly as [`Network::declare`],
    /// [`Network::activate`], [`Network::finish`] and [`Network::seal`]
    /// would apply them one by one, but blocked participants are woken
    /// once and a remote transport sends the run as one frame, without
    /// waiting for the answer (see the ordering rule on
    /// [`Transport::cast`]). This is how an engine binds a
    /// performance's cast.
    pub fn cast(&self, steps: &[CastStep<I>]) {
        self.transport.cast(steps);
    }

    /// Aborts the whole network: every blocked and future operation fails
    /// with [`ChanError::Aborted`].
    pub fn abort(&self) {
        self.transport.abort();
    }

    /// Returns `true` if the network has been aborted.
    pub fn is_aborted(&self) -> bool {
        self.transport.is_aborted()
    }

    /// Current lifecycle state of `id` (`None` if never declared).
    pub fn peer_state(&self, id: &I) -> Option<PeerState> {
        self.transport.peer_state(id)
    }

    /// Monotone progress counter: moves on every deposit, pickup, peer
    /// lifecycle transition and, on a connection-oriented transport,
    /// reconnection. A watchdog sampling it across a quiescence window
    /// tells a slow performance (counter moving) from a wedged one.
    pub fn activity(&self) -> u64 {
        self.transport.activity()
    }

    /// Attaches a deterministic [`FaultPlan`]. Subsequent sends consult
    /// the plan for drop/delay/duplicate decisions and every operation
    /// counts toward crash-at-step-*k*. Replaces any previous plan and
    /// resets all fault counters.
    ///
    /// A plan with no enabled fault class short-circuits at attach time:
    /// the transport hoists the decision out of the per-message path, so
    /// a no-op plan costs the same as no plan at all.
    ///
    /// Requires `M: Clone` so dropped-in duplicates can be
    /// materialized; networks that never attach a plan need no `Clone`.
    pub fn set_fault_plan(&self, plan: FaultPlan)
    where
        M: Clone,
    {
        fn clone_of<M: Clone>(m: &M) -> M {
            m.clone()
        }
        self.transport.set_fault_plan(plan, clone_of::<M>);
    }

    /// Detaches the fault plan, restoring the no-op fast path.
    pub fn clear_fault_plan(&self) {
        self.transport.clear_fault_plan();
    }

    /// The currently attached plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.transport.fault_plan()
    }

    /// Installs [`Observers`] on the transport, merging: a `Some` slot
    /// replaces that callback, a `None` slot leaves it alone (see
    /// [`Transport::observe`]). The engine surfaces all four slots as
    /// telemetry.
    pub fn observe(&self, observers: Observers<I, M>) {
        self.transport.observe(observers);
    }

    /// Obtains the communication capability for participant `me`.
    ///
    /// # Errors
    ///
    /// Returns [`ChanError::Unknown`] if `me` was never declared and the
    /// network does not implicitly declare.
    pub fn port(&self, me: I) -> Result<Port<I, M>, ChanError<I>> {
        self.transport.ensure_peer(&me)?;
        Ok(Port {
            net: self.clone(),
            me,
        })
    }
}

/// The communication capability of one participant.
///
/// A `Port` is bound to one participant id; all operations are performed
/// "as" that participant. Obtained from [`Network::port`].
pub struct Port<I, M> {
    net: Network<I, M>,
    me: I,
}

impl<I: fmt::Debug, M> fmt::Debug for Port<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Port").field("me", &self.me).finish()
    }
}

impl<I, M> Port<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// The participant this port speaks for.
    pub fn id(&self) -> &I {
        &self.me
    }

    /// The underlying network.
    pub fn network(&self) -> &Network<I, M> {
        &self.net
    }

    /// Synchronously sends `msg` to `to`: blocks until the receiver has
    /// picked the message up or is committed to picking it up
    /// (rendezvous), waiting for `to` to become active first if it is
    /// still expected.
    ///
    /// # Errors
    ///
    /// * [`ChanError::Terminated`] if `to` is (or becomes) done before
    ///   pickup,
    /// * [`ChanError::Aborted`] if the network aborts,
    /// * [`ChanError::Unknown`] / [`ChanError::Myself`] on bad addressing.
    pub fn send(&self, to: &I, msg: M) -> Result<(), ChanError<I>> {
        self.send_deadline(to, msg, None)
    }

    /// [`Port::send`] with an optional deadline.
    ///
    /// # Errors
    ///
    /// As [`Port::send`], plus [`ChanError::Timeout`] if the deadline
    /// expires before the rendezvous completes.
    pub fn send_deadline(
        &self,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<I>> {
        self.net.transport.send(&self.me, to, msg, deadline)
    }

    /// Receives the pending message from `from`, blocking until one
    /// arrives.
    ///
    /// # Errors
    ///
    /// [`ChanError::Terminated`] if `from` is done with no pending
    /// message, plus the addressing/abort errors of [`Port::send`].
    pub fn recv_from(&self, from: &I) -> Result<M, ChanError<I>> {
        self.recv_from_deadline(from, None)
    }

    /// [`Port::recv_from`] with an optional deadline.
    ///
    /// # Errors
    ///
    /// As [`Port::recv_from`], plus [`ChanError::Timeout`].
    pub fn recv_from_deadline(
        &self,
        from: &I,
        deadline: Option<Instant>,
    ) -> Result<M, ChanError<I>> {
        match self.select_in(&mut [Arm::recv_from(from.clone())], deadline)? {
            Outcome::Received { msg, .. } => Ok(msg),
            _ => unreachable!("single recv arm yielded a non-receive outcome"),
        }
    }

    /// Receives a message from any peer, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// [`ChanError::AllTerminated`] once every other peer is done and no
    /// message is pending, plus abort/timeout errors.
    pub fn recv_any(&self) -> Result<(I, M), ChanError<I>> {
        self.recv_any_deadline(None)
    }

    /// [`Port::recv_any`] with an optional deadline.
    ///
    /// # Errors
    ///
    /// As [`Port::recv_any`], plus [`ChanError::Timeout`].
    pub fn recv_any_deadline(&self, deadline: Option<Instant>) -> Result<(I, M), ChanError<I>> {
        match self.select_in(&mut [Arm::recv_any()], deadline)? {
            Outcome::Received { from, msg, .. } => Ok((from, msg)),
            _ => unreachable!("single recv arm yielded a non-receive outcome"),
        }
    }

    /// Non-blocking receive: takes the pending message from `from` if
    /// one is already deposited, without waiting.
    ///
    /// # Errors
    ///
    /// [`ChanError::Terminated`] if `from` is done with nothing pending;
    /// addressing and abort errors as for [`Port::send`]. Returns
    /// `Ok(None)` when no message is pending but one may still arrive.
    pub fn try_recv_from(&self, from: &I) -> Result<Option<M>, ChanError<I>> {
        self.net.transport.try_recv(&self.me, from)
    }

    /// Guarded selection over the given arms (CSP alternative command).
    ///
    /// Blocks until one arm can fire, then fires exactly one, chosen
    /// uniformly at random among the ready alternatives (bounded
    /// nondeterminism). Unfired arms — including any messages held by
    /// unfired send arms — are discarded.
    ///
    /// # Errors
    ///
    /// * [`ChanError::EmptySelect`] if `arms` is empty,
    /// * [`ChanError::Terminated`] / [`ChanError::AllTerminated`] when
    ///   every arm has become permanently unfireable,
    /// * [`ChanError::Aborted`] on network abort,
    /// * addressing errors as for [`Port::send`].
    pub fn select(&self, arms: Vec<Arm<I, M>>) -> Result<Outcome<I, M>, ChanError<I>> {
        self.select_deadline(arms, None)
    }

    /// [`Port::select`] with an optional deadline.
    ///
    /// # Errors
    ///
    /// As [`Port::select`], plus [`ChanError::Timeout`].
    pub fn select_deadline(
        &self,
        mut arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        self.select_in(&mut arms, deadline)
    }

    /// [`Port::select_deadline`] over arms the caller lends: a fired send
    /// arm's slot is overwritten, the rest stay the caller's (see
    /// [`Transport::select_in`]). Errors as [`Port::select_deadline`]'s.
    pub fn select_in(
        &self,
        arms: &mut [Arm<I, M>],
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        self.net.transport.select_in(&self.me, arms, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use std::time::Duration;

    type TwoParty = (
        Network<&'static str, u32>,
        Port<&'static str, u32>,
        Port<&'static str, u32>,
    );

    fn two_party() -> TwoParty {
        let net: Network<&'static str, u32> = Network::with_seed(42);
        net.activate("a");
        net.activate("b");
        let a = net.port("a").unwrap();
        let b = net.port("b").unwrap();
        (net, a, b)
    }

    fn soon() -> Option<Instant> {
        Some(Instant::now() + Duration::from_millis(50))
    }

    #[test]
    fn simple_rendezvous() {
        let (_net, a, b) = two_party();
        let t = std::thread::spawn(move || b.recv_from(&"a"));
        a.send(&"b", 5).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 5);
    }

    #[test]
    fn send_blocks_until_pickup() {
        let (_net, a, b) = two_party();
        let started = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let done = StdArc::new(std::sync::atomic::AtomicBool::new(false));
        let d2 = StdArc::clone(&done);
        let s2 = StdArc::clone(&started);
        let t = std::thread::spawn(move || {
            s2.store(true, std::sync::atomic::Ordering::SeqCst);
            a.send(&"b", 1).unwrap();
            d2.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        while !started.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !done.load(std::sync::atomic::Ordering::SeqCst),
            "send returned before pickup"
        );
        assert_eq!(b.recv_from(&"a").unwrap(), 1);
        t.join().unwrap();
        assert!(done.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn send_to_expected_peer_blocks_then_completes() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        net.declare("late");
        let a = net.port("a").unwrap();
        let net2 = net.clone();
        let t = std::thread::spawn(move || a.send(&"late", 9));
        std::thread::sleep(Duration::from_millis(10));
        net2.activate("late");
        let late = net2.port("late").unwrap();
        assert_eq!(late.recv_from(&"a").unwrap(), 9);
        t.join().unwrap().unwrap();
    }

    #[test]
    fn send_to_done_peer_fails() {
        let (net, a, _b) = two_party();
        net.finish("b");
        assert_eq!(a.send(&"b", 1), Err(ChanError::Terminated("b")));
    }

    #[test]
    fn send_fails_when_peer_dies_mid_wait() {
        let (net, a, _b) = two_party();
        let t = std::thread::spawn(move || a.send(&"b", 1));
        std::thread::sleep(Duration::from_millis(10));
        net.finish("b");
        assert_eq!(t.join().unwrap(), Err(ChanError::Terminated("b")));
    }

    #[test]
    fn recv_from_done_peer_drains_pending_message_first() {
        let (net, a, b) = two_party();
        let before = net.activity();
        let t = std::thread::spawn(move || a.send(&"b", 3));
        // Wait for the deposit to land.
        while net.activity() == before {
            std::thread::yield_now();
        }
        net.finish("a");
        // The pending message is still delivered...
        assert_eq!(b.recv_from(&"a").unwrap(), 3);
        t.join().unwrap().unwrap();
        // ...and only then does termination surface.
        assert_eq!(b.recv_from(&"a"), Err(ChanError::Terminated("a")));
    }

    #[test]
    fn recv_any_errors_when_everyone_done() {
        let (net, _a, b) = two_party();
        net.finish("a");
        assert_eq!(b.recv_any(), Err(ChanError::AllTerminated));
    }

    #[test]
    fn self_send_rejected() {
        let (_net, a, _b) = two_party();
        assert_eq!(a.send(&"a", 1), Err(ChanError::Myself));
        assert_eq!(a.recv_from(&"a"), Err(ChanError::Myself));
    }

    #[test]
    fn unknown_peer_rejected() {
        let (_net, a, _b) = two_party();
        assert_eq!(a.send(&"zed", 1), Err(ChanError::Unknown("zed")));
    }

    #[test]
    fn open_network_implicitly_declares() {
        let net: Network<&'static str, u32> = Network::new_open();
        net.activate("a");
        let a = net.port("a").unwrap();
        // "b" is auto-declared Expected; the send blocks, then times out.
        assert_eq!(a.send_deadline(&"b", 1, soon()), Err(ChanError::Timeout));
        assert_eq!(net.peer_state(&"b"), Some(PeerState::Expected));
    }

    #[test]
    fn abort_wakes_blocked_operations() {
        let (net, a, b) = two_party();
        let t1 = std::thread::spawn(move || a.send(&"b", 1));
        let t2 = std::thread::spawn(move || b.recv_from(&"a").map(|_| ()));
        std::thread::sleep(Duration::from_millis(10));
        net.abort();
        // One of the two may have completed the rendezvous before the
        // abort; but at least the pair cannot both succeed with a second
        // exchange pending. Here no receive happened before abort in the
        // send's phase-2, so outcomes may be Ok/Ok (rendezvous won the
        // race) or Aborted.
        let r1 = t1.join().unwrap();
        let r2 = t2.join().unwrap();
        match (&r1, &r2) {
            (Ok(()), Ok(())) => {}
            _ => {
                assert!(
                    r1 == Err(ChanError::Aborted) || r2 == Err(ChanError::Aborted),
                    "unexpected outcomes: {r1:?} {r2:?}"
                );
            }
        }
        assert!(net.is_aborted());
    }

    #[test]
    fn timeout_on_recv() {
        let (_net, _a, b) = two_party();
        assert_eq!(b.recv_from_deadline(&"a", soon()), Err(ChanError::Timeout));
    }

    #[test]
    fn timeout_on_send_reclaims_deposit() {
        let (net, a, b) = two_party();
        assert_eq!(a.send_deadline(&"b", 7, soon()), Err(ChanError::Timeout));
        // The deposit must have been reclaimed: nothing to receive.
        assert_eq!(b.recv_from_deadline(&"a", soon()), Err(ChanError::Timeout));
        drop(net);
    }

    #[test]
    fn select_recv_prefers_ready_message() {
        let (_net, a, b) = two_party();
        let t = std::thread::spawn(move || a.send(&"b", 11));
        let out = b
            .select(vec![Arm::recv_from("a"), Arm::watch("a")])
            .unwrap();
        assert_eq!(
            out,
            Outcome::Received {
                arm: 0,
                from: "a",
                msg: 11
            }
        );
        t.join().unwrap().unwrap();
    }

    #[test]
    fn select_send_claims_committed_receiver() {
        let (_net, a, b) = two_party();
        let t = std::thread::spawn(move || b.recv_any());
        std::thread::sleep(Duration::from_millis(10));
        let out = a.select(vec![Arm::send("b", 21)]).unwrap();
        assert_eq!(out, Outcome::Sent { arm: 0, to: "b" });
        assert_eq!(t.join().unwrap().unwrap(), ("a", 21));
    }

    #[test]
    fn select_send_does_not_fire_without_committed_receiver() {
        let (_net, a, _b) = two_party();
        assert_eq!(
            a.select_deadline(vec![Arm::send("b", 1)], soon()),
            Err(ChanError::Timeout)
        );
    }

    #[test]
    fn crossing_selects_do_not_deadlock() {
        // Both offer {send, recv}; CSP semantics allow a match.
        let (_net, a, b) = two_party();
        let t = std::thread::spawn(move || a.select(vec![Arm::send("b", 1), Arm::recv_from("b")]));
        let r_b = b
            .select(vec![Arm::send("a", 2), Arm::recv_from("a")])
            .unwrap();
        let r_a = t.join().unwrap().unwrap();
        // Exactly one direction fired, consistently on both sides.
        match (&r_a, &r_b) {
            (Outcome::Sent { to: "b", .. }, Outcome::Received { from: "a", msg, .. }) => {
                assert_eq!(*msg, 1)
            }
            (Outcome::Received { from: "b", msg, .. }, Outcome::Sent { to: "a", .. }) => {
                assert_eq!(*msg, 2)
            }
            other => panic!("inconsistent match: {other:?}"),
        }
    }

    #[test]
    fn watch_fires_on_termination() {
        let (net, _a, b) = two_party();
        let t = std::thread::spawn(move || b.select(vec![Arm::recv_from("a"), Arm::watch("a")]));
        std::thread::sleep(Duration::from_millis(10));
        net.finish("a");
        assert_eq!(
            t.join().unwrap().unwrap(),
            Outcome::Terminated { arm: 1, peer: "a" }
        );
    }

    #[test]
    fn watch_waits_for_drain() {
        let (net, a, b) = two_party();
        let before = net.activity();
        let t = std::thread::spawn(move || a.send(&"b", 5));
        while net.activity() == before {
            std::thread::yield_now();
        }
        net.finish("a");
        // Watch must not fire while the message is pending.
        let out = b
            .select(vec![Arm::recv_from("a"), Arm::watch("a")])
            .unwrap();
        assert_eq!(
            out,
            Outcome::Received {
                arm: 0,
                from: "a",
                msg: 5
            }
        );
        t.join().unwrap().unwrap();
        let out = b
            .select(vec![Arm::recv_from("a"), Arm::watch("a")])
            .unwrap();
        assert_eq!(out, Outcome::Terminated { arm: 1, peer: "a" });
    }

    #[test]
    fn empty_select_rejected() {
        let (_net, a, _b) = two_party();
        assert_eq!(a.select(vec![]), Err(ChanError::EmptySelect));
    }

    #[test]
    fn single_dead_arm_names_the_peer() {
        let (net, a, _b) = two_party();
        net.finish("b");
        assert_eq!(
            a.select(vec![Arm::recv_from("b")]),
            Err(ChanError::Terminated("b"))
        );
    }

    #[test]
    fn multiple_dead_arms_report_all_terminated() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        net.activate("b");
        net.activate("c");
        let a = net.port("a").unwrap();
        net.finish("b");
        net.finish("c");
        assert_eq!(
            a.select(vec![Arm::recv_from("b"), Arm::recv_from("c")]),
            Err(ChanError::AllTerminated)
        );
    }

    #[test]
    fn two_senders_one_receiver_fairness() {
        let net: Network<&'static str, u32> = Network::with_seed(7);
        net.activate("s1");
        net.activate("s2");
        net.activate("r");
        let s1 = net.port("s1").unwrap();
        let s2 = net.port("s2").unwrap();
        let r = net.port("r").unwrap();
        const N: usize = 50;
        let t1 = std::thread::spawn(move || {
            for _ in 0..N {
                s1.send(&"r", 1).unwrap();
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..N {
                s2.send(&"r", 2).unwrap();
            }
        });
        let mut ones = 0;
        let mut twos = 0;
        for _ in 0..2 * N {
            match r.recv_any().unwrap() {
                ("s1", _) => ones += 1,
                ("s2", _) => twos += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(ones, N);
        assert_eq!(twos, N);
    }

    #[test]
    fn pipeline_of_ten() {
        let net: Network<usize, u64> = Network::new();
        for i in 0..10 {
            net.activate(i);
        }
        let mut handles = Vec::new();
        for i in 1..10 {
            let p = net.port(i).unwrap();
            handles.push(std::thread::spawn(move || {
                let v = p.recv_from(&(i - 1)).unwrap();
                if i < 9 {
                    p.send(&(i + 1), v + 1).unwrap();
                    0
                } else {
                    v + 1
                }
            }));
        }
        let p0 = net.port(0).unwrap();
        p0.send(&1, 0).unwrap();
        let mut last = 0;
        for h in handles {
            last = last.max(h.join().unwrap());
        }
        assert_eq!(last, 9);
    }

    #[test]
    fn peer_states_reported() {
        let net: Network<&'static str, ()> = Network::new();
        net.declare("x");
        assert_eq!(net.peer_state(&"x"), Some(PeerState::Expected));
        net.activate("x");
        assert_eq!(net.peer_state(&"x"), Some(PeerState::Active));
        net.finish("x");
        assert_eq!(net.peer_state(&"x"), Some(PeerState::Done));
        assert_eq!(net.peer_state(&"y"), None);
    }

    #[test]
    fn declare_never_downgrades() {
        let net: Network<&'static str, ()> = Network::new();
        net.activate("x");
        net.declare("x");
        assert_eq!(net.peer_state(&"x"), Some(PeerState::Active));
    }
}

#[cfg(test)]
mod seal_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn seal_bars_expected_peers() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        net.declare("ghost");
        let a = net.port("a").unwrap();
        let t = std::thread::spawn(move || a.send(&"ghost", 1));
        std::thread::sleep(Duration::from_millis(10));
        net.seal();
        assert_eq!(t.join().unwrap(), Err(ChanError::Terminated("ghost")));
    }

    #[test]
    fn sealed_open_network_rejects_new_peers() {
        let net: Network<&'static str, u32> = Network::new_open();
        net.activate("a");
        net.seal();
        let a = net.port("a").unwrap();
        assert_eq!(a.send(&"never", 1), Err(ChanError::Terminated("never")));
    }

    #[test]
    fn seal_does_not_touch_active_peers() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        net.seal();
        assert_eq!(net.peer_state(&"a"), Some(PeerState::Active));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;

    /// Random many-sender workloads: every message sent is received
    /// exactly once, attributed to the right sender.
    fn conservation(case: Vec<(u8, u8)>) {
        // Map to 3 senders, payloads tagged (sender, seq).
        let net: Network<String, (usize, u64)> = Network::new();
        let senders = 3usize;
        net.activate("rx".to_string());
        for i in 0..senders {
            net.activate(format!("tx{i}"));
        }
        let mut per_sender: Vec<Vec<u64>> = vec![Vec::new(); senders];
        for (s, v) in &case {
            per_sender[*s as usize % senders].push(u64::from(*v));
        }
        let total: usize = per_sender.iter().map(|v| v.len()).sum();
        let rx = net.port("rx".to_string()).unwrap();
        std::thread::scope(|scope| {
            for (i, msgs) in per_sender.clone().into_iter().enumerate() {
                let port = net.port(format!("tx{i}")).unwrap();
                scope.spawn(move || {
                    for (seq, _v) in msgs.iter().enumerate() {
                        port.send(&"rx".to_string(), (i, seq as u64)).unwrap();
                    }
                });
            }
            let mut seen: Vec<Vec<u64>> = vec![Vec::new(); senders];
            for _ in 0..total {
                let (from, (i, seq)) = rx
                    .recv_any_deadline(Some(Instant::now() + Duration::from_secs(10)))
                    .unwrap();
                assert_eq!(from, format!("tx{i}"));
                seen[i].push(seq);
            }
            // Per-sender FIFO: each sender's sequence numbers arrive in
            // order (rendezvous means at most one in flight per pair).
            for (i, seqs) in seen.iter().enumerate() {
                let expected: Vec<u64> = (0..per_sender[i].len() as u64).collect();
                assert_eq!(seqs, &expected, "sender {i} order");
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn messages_conserved_and_fifo(case in proptest::collection::vec((0u8..3, any::<u8>()), 0..30)) {
            conservation(case);
        }

        /// Select over random subsets of ready peers always fires an arm
        /// that was actually ready, and drains everything eventually.
        #[test]
        fn select_never_invents_messages(seed in any::<u64>(), k in 1usize..4) {
            let net: Network<usize, usize> = Network::with_seed(seed);
            net.activate(99); // receiver
            for i in 0..k {
                net.activate(i);
            }
            let rx = net.port(99).unwrap();
            std::thread::scope(|scope| {
                for i in 0..k {
                    let port = net.port(i).unwrap();
                    scope.spawn(move || port.send(&99, i).unwrap());
                }
                let mut got = Vec::new();
                for _ in 0..k {
                    let arms: Vec<Arm<usize, usize>> =
                        (0..k).map(Arm::recv_from).collect();
                    match rx
                        .select_deadline(arms, Some(Instant::now() + Duration::from_secs(10)))
                        .unwrap()
                    {
                        Outcome::Received { from, msg, .. } => {
                            prop_assert_eq!(from, msg);
                            got.push(msg);
                        }
                        other => prop_assert!(false, "unexpected outcome {:?}", other),
                    }
                }
                got.sort_unstable();
                let expected: Vec<usize> = (0..k).collect();
                prop_assert_eq!(got, expected);
                Ok(())
            })?;
        }
    }
}

#[cfg(test)]
mod try_recv_tests {
    use super::*;

    #[test]
    fn try_recv_returns_none_when_empty() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        net.activate("b");
        let b = net.port("b").unwrap();
        assert_eq!(b.try_recv_from(&"a").unwrap(), None);
    }

    #[test]
    fn try_recv_takes_deposited_message() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        net.activate("b");
        let a = net.port("a").unwrap();
        let b = net.port("b").unwrap();
        let t = std::thread::spawn(move || a.send(&"b", 5));
        // Poll until the deposit lands.
        loop {
            match b.try_recv_from(&"a").unwrap() {
                Some(v) => {
                    assert_eq!(v, 5);
                    break;
                }
                None => std::thread::yield_now(),
            }
        }
        t.join().unwrap().unwrap();
    }

    #[test]
    fn try_recv_reports_termination() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        net.activate("b");
        let b = net.port("b").unwrap();
        net.finish("a");
        assert_eq!(b.try_recv_from(&"a"), Err(ChanError::Terminated("a")));
    }

    #[test]
    fn try_recv_rejects_self() {
        let net: Network<&'static str, u32> = Network::new();
        net.activate("a");
        let a = net.port("a").unwrap();
        assert_eq!(a.try_recv_from(&"a"), Err(ChanError::Myself));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::conformance::collect_faults;
    use crate::fault::{FaultKind, FaultPlan};
    use std::time::Duration;

    type ChaosPair = (
        Network<&'static str, u32>,
        Port<&'static str, u32>,
        Port<&'static str, u32>,
    );

    fn chaos_pair(plan: FaultPlan) -> ChaosPair {
        let net: Network<&'static str, u32> = Network::with_seed(7);
        net.set_fault_plan(plan);
        net.activate("a");
        net.activate("b");
        let a = net.port("a").unwrap();
        let b = net.port("b").unwrap();
        (net, a, b)
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let net: Network<&'static str, u32> = Network::new();
        let faults = collect_faults(&net);
        net.activate("a");
        net.activate("b");
        let a = net.port("a").unwrap();
        let b = net.port("b").unwrap();
        let t = std::thread::spawn(move || b.recv_from(&"a"));
        a.send(&"b", 5).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 5);
        assert!(faults.lock().unwrap().is_empty());
    }

    #[test]
    fn certain_drop_starves_receiver() {
        let (net, a, b) = chaos_pair(FaultPlan::new(1).with_drop(1.0));
        let faults = collect_faults(&net);
        // The sender believes the message went out...
        a.send(&"b", 5).unwrap();
        // ...but the receiver never sees it.
        assert_eq!(
            b.recv_from_deadline(&"a", Some(Instant::now() + Duration::from_millis(50))),
            Err(ChanError::Timeout)
        );
        let log = faults.lock().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, FaultKind::Drop);
        assert_eq!(log[0].from, "a");
        assert_eq!(log[0].to, "b");
    }

    #[test]
    fn certain_duplicate_delivers_twice() {
        let (net, a, b) = chaos_pair(FaultPlan::new(2).with_duplicate(1.0));
        let faults = collect_faults(&net);
        let t = std::thread::spawn(move || b.recv_from(&"a"));
        a.send(&"b", 9).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 9);
        // The duplicate copy is redelivered to b's inbox after the
        // original rendezvous completes.
        let b2 = net.port("b").unwrap();
        let dup = b2.recv_from_deadline(&"a", Some(Instant::now() + Duration::from_secs(2)));
        assert_eq!(dup.unwrap(), 9);
        let log = faults.lock().unwrap();
        assert!(log.iter().any(|r| r.kind == FaultKind::Duplicate));
    }

    #[test]
    fn crash_marks_peer_done() {
        // Crash every peer on its second operation.
        let (net, a, b) = chaos_pair(FaultPlan::new(3).with_crash(1.0, 2));
        let faults = collect_faults(&net);
        let t = std::thread::spawn(move || b.recv_from(&"a"));
        a.send(&"b", 1).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 1);
        // Second op for "a" crashes it.
        let err = a.send(&"b", 2);
        assert_eq!(err, Err(ChanError::Terminated("a")));
        assert_eq!(net.peer_state(&"a"), Some(PeerState::Done));
        let log = faults.lock().unwrap();
        assert!(log
            .iter()
            .any(|r| r.kind == FaultKind::Crash && r.from == "a"));
    }

    #[test]
    fn delay_still_delivers() {
        let (net, a, b) = chaos_pair(FaultPlan::new(4).with_delay(1.0, Duration::from_millis(20)));
        let faults = collect_faults(&net);
        let t = std::thread::spawn(move || b.recv_from(&"a"));
        let before = Instant::now();
        a.send(&"b", 6).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 6);
        assert!(before.elapsed() >= Duration::from_millis(20));
        let log = faults.lock().unwrap();
        assert!(log.iter().any(|r| r.kind == FaultKind::Delay));
    }

    #[test]
    fn fault_records_are_deterministic_across_runs() {
        let run = || {
            let (net, a, b) = chaos_pair(FaultPlan::new(11).with_drop(0.3).with_duplicate(0.3));
            let faults = collect_faults(&net);
            for i in 0..20u32 {
                let t = std::thread::spawn({
                    let b = net.port("b").unwrap();
                    move || {
                        let _ = b.recv_from_deadline(
                            &"a",
                            Some(Instant::now() + Duration::from_millis(200)),
                        );
                    }
                });
                let _ = a.send(&"b", i);
                t.join().unwrap();
                // Drain any duplicate redeliveries so runs line up.
                while b.try_recv_from(&"a").ok().flatten().is_some() {}
            }
            let mut log = faults.lock().unwrap().clone();
            log.sort();
            log.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_fault_plan_restores_clean_network() {
        let (net, a, b) = chaos_pair(FaultPlan::new(5).with_drop(1.0));
        a.send(&"b", 1).unwrap(); // dropped
        net.clear_fault_plan();
        let t = std::thread::spawn(move || b.recv_from(&"a"));
        a.send(&"b", 2).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), 2);
    }

    #[test]
    fn fault_observer_sees_records() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let (net, a, b) = chaos_pair(FaultPlan::new(6).with_drop(1.0));
        let seen2 = Arc::clone(&seen);
        net.observe(Observers {
            fault: Some(Arc::new(move |_| {
                seen2.fetch_add(1, Ordering::SeqCst);
            })),
            ..Observers::default()
        });
        a.send(&"b", 1).unwrap();
        assert_eq!(
            b.recv_from_deadline(&"a", Some(Instant::now() + Duration::from_millis(30))),
            Err(ChanError::Timeout)
        );
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn activity_counter_advances_on_progress() {
        let (net, a, b) = chaos_pair(FaultPlan::new(0));
        let start = net.activity();
        let t = std::thread::spawn(move || b.recv_from(&"a"));
        a.send(&"b", 1).unwrap();
        t.join().unwrap().unwrap();
        assert!(net.activity() > start);
    }
}
