//! The transport seam and the sharded in-process implementation.
//!
//! [`Transport`] abstracts the blocking rendezvous substrate a
//! [`Network`](crate::Network) runs on, so a future remote backend can
//! slot in without touching the engine or the translations.
//!
//! [`ShardedTransport`] is the in-process implementation: **one lock +
//! condvar per endpoint** instead of one per network. Hot-path
//! operations touch only the endpoints they name:
//!
//! * `send(a → b)` deposits into *b*'s endpoint and is over there and
//!   then if *b* has published an offer that takes it (a *claim*: the
//!   commitment is the event, so a rendezvous parks one thread, *b*'s);
//!   otherwise it awaits the pickup on *b*'s condvar;
//! * a selection by *s* sleeps on *s*'s own condvar; deposits to *s* and
//!   claims of *s*'s published offers land under *s*'s lock;
//! * a send arm `s → t` registers *s* as a *send watcher* on *t*, so
//!   *t*'s offer publications and slot releases wake exactly the
//!   selectors that care.
//!
//! A lifecycle run (a [`Transport::cast`], a chaos crash, abort) makes
//! one wake pass that notifies only the sleepers it concerns; an
//! eventcount per endpoint keeps wake-ups from being lost; locks never
//! nest endpoint to endpoint, and a sleeper is notified after the lock
//! it takes next is let go; fault decisions are pure functions of
//! (seed, edge, seq), made at the sending edge behind one relaxed load
//! when the plan cannot inject. DESIGN.md §4 is the account of each.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fault::{FaultKind, FaultPlan, FaultRecord};
use crate::network::PeerState;
use crate::select::{Arm, Outcome, Source};
use crate::ChanError;

/// Callback invoked on every injected fault (see [`Observers::fault`]).
pub type FaultObserver<I> = Arc<dyn Fn(&FaultRecord<I>) + Send + Sync>;

/// One completed rendezvous, observed at delivery — the claim, or else
/// the pickup — under the receiving endpoint's lock (see
/// [`Observers::rendezvous`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RendezvousRecord<I> {
    /// The sending participant.
    pub from: I,
    /// The receiving participant.
    pub to: I,
    /// The message's protocol label, if the installed labeler produced
    /// one.
    pub label: Option<String>,
    /// Zero-based delivery counter for the directed edge `from → to`:
    /// a pure function of the communication schedule, so it is
    /// identical across runs — and across transports.
    pub seq: u64,
}

impl<I: fmt::Debug> fmt::Display for RendezvousRecord<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rendezvous {:?} -> {:?} ", self.from, self.to)?;
        if let Some(l) = &self.label {
            write!(f, "[{l}] ")?;
        }
        write!(f, "#{}", self.seq)
    }
}

/// Callback invoked on every completed rendezvous (see
/// [`Observers::rendezvous`]).
pub type RendezvousObserver<I> = Arc<dyn Fn(&RendezvousRecord<I>) + Send + Sync>;

/// Extracts a protocol label from a message. Kept a plain `fn` pointer
/// — like `set_fault_plan`'s `clone_fn` — so [`Transport`] itself needs
/// no extra bounds on `M`.
pub type LabelFn<M> = fn(&M) -> Option<String>;

/// Callback invoked on every recorded latency sample (see
/// [`Observers::latency`]).
pub type LatencyObserver = Arc<dyn Fn(&LatencySample) + Send + Sync>;

/// A connection-lifecycle transition observed by a session-aware
/// transport (see [`Observers::session`]).
///
/// The in-process transport has no connections and never emits these;
/// a connection-oriented transport with a session layer emits them when
/// a peer's link drops, when it resumes within its lease, and when its
/// lease expires and the peer degrades to a crashed one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent<I> {
    /// `I`'s connection was severed; its session (and the performances
    /// it is bound to) stay alive until the lease expires.
    PeerDisconnected(I),
    /// A severed peer presented its session id again within the lease
    /// and resumed where it left off.
    PeerResumed(I),
    /// A severed peer's lease expired without a resume; it now degrades
    /// exactly like a crashed peer (`Terminated`, watchdog `Stalled`).
    LeaseExpired(I),
}

/// Callback invoked on every session-lifecycle transition.
pub type SessionObserver<I> = Arc<dyn Fn(&SessionEvent<I>) + Send + Sync>;

/// Where submitted operations answer: one receiver — a hub's session —
/// stands for every operation it submits, each told apart by its tag.
pub trait Complete<I, M>: Send + Sync {
    /// A submitted send's result, as the blocking [`Transport::send`]'s.
    fn sent(&self, tag: u64, result: Result<(), ChanError<I>>);
    /// A submitted selection's result, as the blocking
    /// [`Transport::select_in`]'s, and the arm list lent to it, back as
    /// `select_in` leaves it: a fired send arm's slot receives from anyone.
    fn selected(&self, tag: u64, result: Result<Outcome<I, M>, ChanError<I>>, arms: Vec<Arm<I, M>>);
}

/// A submitted operation's answer: its receiver and its tag. Consumed
/// by the one answer it carries.
pub struct Completion<I, M> {
    /// Who is answered.
    pub to: Arc<dyn Complete<I, M>>,
    /// What the answer is to, in `to`'s own numbering.
    pub tag: u64,
}

impl<I, M> Completion<I, M> {
    /// Answers a submitted send.
    pub fn sent(self, result: Result<(), ChanError<I>>) {
        self.to.sent(self.tag, result);
    }

    /// Answers a submitted selection, handing its arms back.
    pub fn selected(self, result: Result<Outcome<I, M>, ChanError<I>>, arms: Vec<Arm<I, M>>) {
        self.to.selected(self.tag, result, arms);
    }
}

impl<I, M> fmt::Debug for Completion<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Completion(tag {})", self.tag)
    }
}

/// A boxed callback for one submitted send (see
/// [`ShardedTransport::submit_send`]).
pub type SendDone<I> = Box<dyn FnOnce(Result<(), ChanError<I>>) + Send>;

/// Which blocking operation a [`LatencySample`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LatencyOp {
    /// A synchronous send that completed its rendezvous.
    Send,
    /// A selection that fired a receive or send arm.
    Select,
    /// A non-blocking receive that took a deposited message.
    TryRecv,
}

/// One *successful* operation's wall-clock latency, as observed by the
/// participant that issued it.
///
/// Failed operations, empty polls, and lifecycle calls are not sampled:
/// they measure control flow, not rendezvous cost, and tiny poll
/// samples would drag the quantiles under what an actual rendezvous
/// needs. For a remote transport the elapsed time includes the RPC
/// round trip, so hub-side rendezvous time is attributed to the
/// performance that paid for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LatencySample {
    /// The operation measured.
    pub op: LatencyOp,
    /// Wall-clock time from issue to completion.
    pub elapsed: Duration,
}

/// One lifecycle transition in a [`Transport::cast`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CastStep<I> {
    /// Declares the id as expected (idempotent, never downgrades).
    Declare(I),
    /// Marks the id active, declaring it if necessary.
    Activate(I),
    /// Marks the id done (finished or permanently barred).
    Finish(I),
    /// Seals: expected peers become done; on implicitly-declaring
    /// transports, future unknown peers are declared done.
    Seal,
}

/// The callbacks a transport pushes what it observes to, one optional
/// slot each, installed by [`Transport::observe`]. Fill the slots you
/// mean over [`Observers::default`]: a `None` slot leaves whatever the
/// transport already has in that slot alone. Every callback runs on
/// the thread that made the event and must not block.
pub struct Observers<I, M> {
    /// Every injected fault, pushed at decision time: the only way
    /// fault records leave a transport.
    pub fault: Option<FaultObserver<I>>,
    /// Every *completed* rendezvous — at the claim, on the sender's
    /// thread, or else at the pickup, on the receiver's; before the
    /// sender's operation returns either way — with the `LabelFn`
    /// extracting each message's protocol label. It runs inside the
    /// delivery path and must not call back into the transport.
    pub rendezvous: Option<(RendezvousObserver<I>, LabelFn<M>)>,
    /// Every successful blocking operation, with its measured latency.
    pub latency: Option<LatencyObserver>,
    /// Every session-lifecycle transition (disconnect, resume, lease
    /// expiry); a backend without a session layer emits none.
    pub session: Option<SessionObserver<I>>,
}

impl<I, M> Default for Observers<I, M> {
    fn default() -> Self {
        Self {
            fault: None,
            rendezvous: None,
            latency: None,
            session: None,
        }
    }
}

impl<I, M> fmt::Debug for Observers<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observers")
            .field("fault", &self.fault.is_some())
            .field("rendezvous", &self.rendezvous.is_some())
            .field("latency", &self.latency.is_some())
            .field("session", &self.session.is_some())
            .finish()
    }
}

/// The blocking rendezvous substrate a [`Network`](crate::Network) runs
/// on.
///
/// All methods are object-safe: a `Network` holds an
/// `Arc<dyn Transport>`, so alternative backends (a remote transport, an
/// instrumented wrapper) plug in via
/// [`Network::with_transport`](crate::Network::with_transport) without
/// another engine rewrite. Message duplication support passes a
/// `clone_fn` alongside the plan so the trait itself needs no
/// `M: Clone` bound.
///
/// # Required and provided methods
///
/// A backend must implement 14 methods; 7 more are provided. The
/// whole peer lifecycle is one required method, [`Transport::cast`]:
/// [`Transport::declare`], [`Transport::activate`] and
/// [`Transport::finish`] are provided one-step runs over it (a seal is
/// `cast(&[CastStep::Seal])`), as [`Transport::select`] is over the
/// required [`Transport::select_in`]; none is meant to be overridden.
/// Observation is one required method too, [`Transport::observe`], so
/// a wrapper cannot drop an observer by forgetting to forward it. The
/// other provided methods are [`Transport::note_session_event`], whose
/// default ignores, and the two submitted operations, whose defaults
/// decline.
///
/// # Contract
///
/// Every implementation must satisfy the observable behavior below; the
/// [`conformance`](crate::conformance) module checks it mechanically and
/// must pass for any new backend.
///
/// * **Rendezvous.** [`Transport::send`] completes only when the
///   receiver has picked the message up or is *committed* to picking it
///   up — it had published a receive that takes the message and the
///   sender claimed it — or fails; a committed receiver gets the
///   message whatever happens next. At most one message per directed
///   edge is in flight, so messages from one sender arrive in send
///   order (per-edge FIFO).
/// * **Lifecycle.** Peers move `Expected → Active → Done`;
///   [`Transport::declare`] never downgrades a state. A
///   [`Transport::cast`] run is applied in order and as a whole,
///   exactly as if each step had been issued alone, and ordered before
///   every later operation *on this transport*: whatever is asked of
///   this handle after `cast` returns sees every step in effect and
///   [`Transport::activity`] advanced by one per step. The same holds
///   for the other commands — [`Transport::abort`],
///   [`Transport::reseed`], [`Transport::set_fault_plan`],
///   [`Transport::clear_fault_plan`]. A remote transport may return
///   from a command before the far side has applied it; an observer
///   elsewhere (another handle onto the same far side) needs a query on
///   *this* handle first, whose answer is behind the command.
///   Operations naming
///   an `Expected` peer block (the role may yet enroll); operations
///   naming a `Done` peer fail with [`ChanError::Terminated`] *after*
///   any already-deposited message from it has been drained. A
///   selection whose arms are all permanently unfireable fails with
///   [`ChanError::all_arms_dead`]'s error.
/// * **Selection.** [`Transport::select_in`] fires exactly one arm, chosen
///   fairly among ready alternatives (seeded by
///   [`Transport::reseed`] for reproducibility); a send arm fires only
///   by claiming a peer already committed to a matching receive, so a
///   fired send arm — like a returned `send` — proves delivery. Watch
///   arms fire only once nothing from the watched peer remains
///   undelivered.
/// * **Deadlines.** An expired deadline surfaces
///   [`ChanError::Timeout`] and leaves no partial effect: a send that
///   timed out awaiting pickup reclaims its deposit.
/// * **Abort.** [`Transport::abort`] fails every blocked and future
///   operation with [`ChanError::Aborted`]; an already-claimed
///   rendezvous still completes (the sender has already seen success).
/// * **Faults.** With a [`FaultPlan`] attached, injection decisions are
///   pure functions of (seed, edge, per-edge sequence) made at the
///   *sending* edge and pushed to the fault observer as they are made
///   — nothing is retained — so the record stream for a fixed
///   communication schedule is identical across runs — and across
///   transports. Remote peer loss (a disconnected process) surfaces as
///   the same [`ChanError::Terminated`] a crashed peer produces.
/// * **Latency.** While a latency observer is installed, measuring
///   backends push it a [`LatencySample`] for every successful `send`,
///   fired `select`, and non-empty `try_recv` — and only those — so the
///   per-operation sample counts for a fixed communication schedule
///   match across transports even though the elapsed times differ.
///   With no observer the clock is not read.
pub trait Transport<I, M>: Send + Sync {
    /// Applies a run of lifecycle transitions in order, as the one-step
    /// forms would one by one, ahead of every later operation on this
    /// transport (a remote transport may return before the far side has
    /// applied the run; an observer elsewhere needs a query on this
    /// handle first — see the trait docs). Binding a performance's cast
    /// is one run — one wake-up pass in process, one frame over a
    /// socket — instead of a call per role.
    fn cast(&self, steps: &[CastStep<I>]);
    /// Declares `id` as expected (idempotent, never downgrades).
    fn declare(&self, id: I) {
        self.cast(&[CastStep::Declare(id)]);
    }
    /// Marks `id` active, declaring it if necessary.
    fn activate(&self, id: I) {
        self.cast(&[CastStep::Activate(id)]);
    }
    /// Marks `id` done (finished or permanently barred): receives from it
    /// drain any pending message, then fail with
    /// [`ChanError::Terminated`]; senders to it fail at once.
    fn finish(&self, id: I) {
        self.cast(&[CastStep::Finish(id)]);
    }
    /// Fails every blocked and future operation with [`ChanError::Aborted`].
    /// Ordered as [`Transport::cast`] is: ahead of every later operation
    /// on this transport, possibly not yet applied on a remote one's far
    /// side.
    fn abort(&self);
    /// Whether the transport has been aborted.
    fn is_aborted(&self) -> bool;
    /// Lifecycle state of `id`, `None` if never declared.
    fn peer_state(&self, id: &I) -> Option<PeerState>;
    /// Monotone progress counter: moves on every deposit, pickup, peer
    /// lifecycle transition and, on a connection-oriented transport,
    /// reconnection. A watchdog sampling it across a quiescence window
    /// tells a slow performance (counter moving) from a wedged one.
    fn activity(&self) -> u64;
    /// Re-seeds the per-endpoint selection RNGs from `seed`, in place (an
    /// instance's per-performance chaos seed). Ordered as
    /// [`Transport::cast`] is.
    fn reseed(&self, seed: u64);
    /// Ensures `id` exists (implicit declaration if supported).
    fn ensure_peer(&self, id: &I) -> Result<(), ChanError<I>>;
    /// Attaches a fault plan; `clone_fn` materializes duplicates.
    /// Ordered as [`Transport::cast`] is.
    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&M) -> M);
    /// Detaches the fault plan, restoring the no-op fast path. Ordered as
    /// [`Transport::cast`] is.
    fn clear_fault_plan(&self);
    /// The currently attached plan, if any.
    fn fault_plan(&self) -> Option<FaultPlan>;
    /// Installs observers, merging: each `Some` slot of `observers`
    /// replaces that slot's callback, and each `None` slot leaves the
    /// installed one alone — so a hub that observes its inner
    /// transport keeps its streams when hub-local code adds a slot of
    /// its own. There is no uninstall. While the rendezvous or latency
    /// slot is empty, a delivery or an operation pays one relaxed load
    /// for it, and reads no clock. The engine surfaces all four slots as
    /// telemetry.
    fn observe(&self, observers: Observers<I, M>);
    /// Feeds one session-lifecycle event to the registered observer.
    /// A hub serving this transport over a network calls this so
    /// participants local to the hub observe remote peers' lifecycle;
    /// backends that store no observer ignore it (the default does).
    fn note_session_event(&self, event: &SessionEvent<I>) {
        let _ = event;
    }
    /// Synchronous send `from → to`: returns once `to` has taken the
    /// message or is committed to taking it (see the contract's
    /// *Rendezvous* clause): the message may still be in `to`'s inbox
    /// for a moment afterwards.
    fn send(&self, from: &I, to: &I, msg: M, deadline: Option<Instant>)
        -> Result<(), ChanError<I>>;
    /// Non-blocking receive of a deposited message.
    fn try_recv(&self, me: &I, from: &I) -> Result<Option<M>, ChanError<I>>;
    /// Guarded selection over the arms the caller lends, on behalf of
    /// `me`. A fired send arm's message leaves the list — its slot is
    /// overwritten with a receive from anyone — and the caller keeps the
    /// rest, unfired send arms' messages included, whatever the result.
    fn select_in(
        &self,
        me: &I,
        arms: &mut [Arm<I, M>],
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>>;
    /// [`Transport::select_in`] over arms given away, unfired ones dropped.
    fn select(
        &self,
        me: &I,
        mut arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        self.select_in(me, &mut arms, deadline)
    }
    /// Submits a send for *asynchronous* completion: the implementation
    /// answers `done` exactly once — possibly before returning, on the
    /// calling thread — with the result the blocking
    /// [`Transport::send`] would have produced, always *after* the
    /// pickup (a submitted send claims nobody: no thread is parked for
    /// it), and the calling thread never blocks on the rendezvous. An
    /// event-driven hub multiplexes thousands of in-flight sends onto
    /// its one thread this way, each answered under its own tag.
    /// `done`'s receiver may itself submit further operations; it must
    /// not block. Backends without a native nonblocking core decline by
    /// handing the message and `done`, unanswered, straight back (the
    /// default); what the caller then does with the operation is its
    /// own policy.
    fn submit_send(
        self: Arc<Self>,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
        done: Completion<I, M>,
    ) -> Result<(), (M, Completion<I, M>)> {
        let _ = (from, to, deadline);
        Err((msg, done))
    }
    /// Submits a selection for *asynchronous* completion, with the same
    /// contract as [`Transport::submit_send`]: `done` is answered
    /// exactly once with the blocking [`Transport::select_in`]'s result
    /// and, whatever the result, the arm list back, left as `select_in`
    /// leaves it. The declining default hands the arms and `done` back.
    #[allow(clippy::type_complexity)]
    fn submit_select(
        self: Arc<Self>,
        me: &I,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
        done: Completion<I, M>,
    ) -> Result<(), (Vec<Arm<I, M>>, Completion<I, M>)> {
        let _ = (me, deadline);
        Err((arms, done))
    }
}

/// Slots a [`StackList`] keeps on the stack; a longer one takes a `Vec`.
const SCAN_ON_STACK: usize = 16;

/// Spare endpoints a recycled transport keeps, and its registry's room.
const RECYCLED: usize = 64;

const LIFE_EXPECTED: u8 = 0;
const LIFE_ACTIVE: u8 = 1;
const LIFE_DONE: u8 = 2;

fn life_of(v: u8) -> PeerState {
    match v {
        LIFE_ACTIVE => PeerState::Active,
        LIFE_DONE => PeerState::Done,
        _ => PeerState::Expected,
    }
}

/// What one arm of a parked selection waits for.
#[derive(Debug)]
enum Want<I> {
    /// A receive: an offer a claiming sender reads, and — named — a
    /// peer whose termination may end the arm.
    Recv(Source<I>),
    /// A send or watch arm's peer, which fires it or ends it by being
    /// activated or finished.
    Peer(I),
}

#[derive(Debug)]
struct WaitEntry<I> {
    /// What the parked selection's arms wait for, in arm order.
    wants: Vec<Want<I>>,
    /// Set by a claiming sender: the peer whose message must be taken.
    resolved: Option<I>,
}

impl<I: PartialEq> WaitEntry<I> {
    /// Whether the selection, not yet claimed, takes `sender`'s message.
    fn takes(&self, sender: &I) -> bool {
        self.resolved.is_none()
            && self.wants.iter().any(|w| match w {
                Want::Recv(Source::Any) => true,
                Want::Recv(Source::Of(p)) => p == sender,
                Want::Peer(_) => false,
            })
    }
}

/// One participant's shard: its own lock, condvar, and lifecycle word.
struct Endpoint<I, M> {
    /// Lifecycle (`LIFE_*`), readable without the lock.
    life: AtomicU8,
    /// The lifecycle run (see [`ShardedTransport::runs`]) that last
    /// changed `life`: the wake pass of that run tells the waits naming
    /// this endpoint.
    moved: AtomicU64,
    state: Mutex<EpState<I, M>>,
    cond: Condvar,
}

/// One edge `sender → me`, made on its first use and kept for the
/// performance.
struct Edge<M> {
    /// The message on the edge: at most one in flight.
    deposit: Option<M>,
    /// Pickups, awaited by the sender's phase 2.
    acks: u64,
    /// `(issued, served)` tickets for *submitted* sends. A submitted
    /// send takes a ticket at submission and deposits only on its turn,
    /// so sends pipelined on the edge land in submission order however
    /// the drivers interleave their steps. Blocking senders are ordered
    /// by their own program order and take none.
    turns: (u64, u64),
    /// Sends, counted for chaos decisions.
    chaos_seq: u64,
    /// Deliveries, counted only while a rendezvous observer is
    /// installed.
    rdv_seq: u64,
}

impl<M> Default for Edge<M> {
    fn default() -> Self {
        Self {
            deposit: None,
            acks: 0,
            turns: (0, 0),
            chaos_seq: 0,
            rdv_seq: 0,
        }
    }
}

impl<M> Edge<M> {
    /// Marks the served ticket finished. Returns whether a later send
    /// on the edge is waiting for the turn and must be woken.
    fn pass_turn(&mut self) -> bool {
        next(&mut self.turns.1) + 1 < self.turns.0
    }
}

/// A counter's value, advancing it: an edge's tickets and sequences.
fn next(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter - 1
}

struct EpState<I, M> {
    /// The edges into me, keyed by sender.
    edges: HashMap<I, Edge<M>>,
    /// How many `edges` hold a deposit: a receive from anyone knows at
    /// once whether anything waits.
    deposits: usize,
    /// My parked selection's published wants: receive offers,
    /// claimable by send arms, and the peers its other arms name.
    wait: Option<WaitEntry<I>>,
    /// The last withdrawn wants list, emptied: the next publication
    /// fills it instead of allocating.
    spare_offers: Vec<Want<I>>,
    /// Eventcount: bumped under this lock on every change a sleeper on
    /// `cond` could care about. Selectors re-read it before parking.
    signal: u64,
    /// Selectors with a send arm targeting me, woken when my offers or
    /// deposits change. `(token, endpoint)` so a selector can remove
    /// exactly its own registration.
    watchers: Vec<(u64, Arc<Endpoint<I, M>>)>,
    /// Fair-choice RNG for selections by this endpoint.
    rng: SmallRng,
    /// My operation counter driving crash-at-step-*k*.
    chaos_steps: u64,
    /// Submitted operations parked on this endpoint: single-shot
    /// `(op token, scheduler)` registrations drained — each token pushed
    /// onto its scheduler's ready queue — whenever the eventcount bumps.
    /// An op is registered here and published in its scheduler's `ops`
    /// under one hold of this lock (see [`SchedShared::park`]).
    op_waiters: Vec<(u64, Arc<SchedShared<I, M>>)>,
}

impl<I, M> Endpoint<I, M> {
    /// Sets the lifecycle word, stamping it with `run` if that changed
    /// it.
    fn set_life(&self, life: u8, run: u64) {
        if self.life.swap(life, Ordering::SeqCst) != life {
            self.moved.store(run, Ordering::SeqCst);
        }
    }
}

/// What a wake pass ([`ShardedTransport::wake`]) tells the sleepers it
/// visits.
#[derive(Debug, Clone, Copy)]
enum Moved {
    /// The transport aborted: every sleeper cares.
    All,
    /// Lifecycle run `run` changed the words stamped with it. `ends`: it
    /// finished, sealed or crashed something, which may leave a receive
    /// from anyone with no possible sender.
    Run { run: u64, ends: bool },
}

impl<I: Clone + Eq + Hash, M> EpState<I, M> {
    fn new(rng: SmallRng) -> Self {
        Self {
            edges: HashMap::new(),
            deposits: 0,
            wait: None,
            spare_offers: Vec::new(),
            signal: 0,
            watchers: Vec::new(),
            rng,
            chaos_steps: 0,
            op_waiters: Vec::new(),
        }
    }

    /// Makes the state what [`EpState::new`] builds, keeping the room
    /// — up to [`RECYCLED`] entries — of the tables every run fills
    /// (the RNG is re-seeded when taken).
    fn renew(&mut self) {
        self.edges.clear();
        self.edges.shrink_to(RECYCLED);
        self.watchers.clear();
        self.watchers.shrink_to(RECYCLED);
        *self = Self {
            edges: std::mem::take(&mut self.edges),
            spare_offers: std::mem::take(&mut self.spare_offers),
            watchers: std::mem::take(&mut self.watchers),
            ..Self::new(self.rng.clone())
        };
    }

    /// The edge `from → me`, made on its first use.
    fn edge(&mut self, from: &I) -> &mut Edge<M> {
        self.edges.entry(from.clone()).or_default()
    }

    /// Whether a message from `from` waits on its edge.
    fn holds(&self, from: &I) -> bool {
        self.edges.get(from).is_some_and(|e| e.deposit.is_some())
    }

    /// Takes back an un-picked-up deposit from `from`.
    fn reclaim(&mut self, from: &I) {
        if let Some(e) = self.edges.get_mut(from).filter(|e| e.deposit.is_some()) {
            e.deposit = None;
            self.deposits -= 1;
        }
    }
}

impl<I, M> EpState<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Bumps the eventcount and readies every submitted operation
    /// parked here. Every mutation a sleeper on the endpoint's condvar
    /// could care about must go through here, so both kinds of waiter
    /// observe exactly the same wakeups. The scheduler thread is
    /// notified — started, if this is the first token orphaned so —
    /// only when nobody is draining: a drainer leaves only after
    /// finding the queue empty under the queue lock, so it cannot miss
    /// this token. Lock order is endpoint → scheduler queue; nobody
    /// takes an endpoint lock while holding a queue.
    fn bump_signal(&mut self) {
        self.signal += 1;
        for (token, sched) in self.op_waiters.drain(..) {
            let mut q = sched.queue.lock();
            q.ready.push_back(token);
            if q.drainers.is_empty() {
                sched.start_thread(&mut q);
                sched.cond.notify_one();
            }
        }
    }
}

/// Chaos configuration, shared read-only once attached.
struct FaultConfig<M> {
    plan: FaultPlan,
    clone_fn: fn(&M) -> M,
}

/// Cold-path fault state: hot paths read only the two booleans.
struct FaultHooks<M> {
    /// `plan.has_message_faults() || plan.has_connection_faults()`,
    /// readable without a lock (both classes decide per message at the
    /// sending edge, so they share the per-send gate).
    msg_faults: AtomicBool,
    /// `plan.has_crashes()`, readable without a lock.
    crashes: AtomicBool,
    config: Mutex<Option<Arc<FaultConfig<M>>>>,
}

/// The installed [`Observers`], behind relaxed flags for the two slots
/// the hot paths consult: a delivery nobody observes reads one boolean,
/// and an operation nobody measures reads one boolean and no clock.
/// Both backends embed one and hand [`Transport::observe`] to
/// [`ObserverSlots::install`].
pub struct ObserverSlots<I, M> {
    /// Whether the rendezvous slot is filled, readable without a lock.
    rendezvous_on: AtomicBool,
    /// Whether the latency slot is filled, readable without a lock.
    latency_on: AtomicBool,
    installed: Mutex<Observers<I, M>>,
}

impl<I, M> Default for ObserverSlots<I, M> {
    fn default() -> Self {
        Self {
            rendezvous_on: AtomicBool::new(false),
            latency_on: AtomicBool::new(false),
            installed: Mutex::new(Observers::default()),
        }
    }
}

impl<I, M> fmt::Debug for ObserverSlots<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.installed.lock(), f)
    }
}

impl<I, M> ObserverSlots<I, M> {
    /// Merges `observers` in: a `Some` slot replaces, a `None` slot
    /// leaves the installed callback alone (see [`Transport::observe`]).
    pub fn install(&self, observers: Observers<I, M>) {
        let rendezvous = observers.rendezvous.is_some();
        let latency = observers.latency.is_some();
        {
            let mut slots = self.installed.lock();
            slots.fault = observers.fault.or(slots.fault.take());
            slots.rendezvous = observers.rendezvous.or(slots.rendezvous.take());
            slots.latency = observers.latency.or(slots.latency.take());
            slots.session = observers.session.or(slots.session.take());
        }
        // Flags last: an operation that sees one set finds its slot
        // filled.
        self.rendezvous_on.fetch_or(rendezvous, Ordering::SeqCst);
        self.latency_on.fetch_or(latency, Ordering::SeqCst);
    }

    /// Pushes `record` to the fault observer, if any.
    pub fn fault(&self, record: &FaultRecord<I>) {
        let obs = self.installed.lock().fault.clone();
        if let Some(obs) = obs {
            obs(record);
        }
    }

    /// Pushes `event` to the session observer, if any.
    pub fn session(&self, event: &SessionEvent<I>) {
        let obs = self.installed.lock().session.clone();
        if let Some(obs) = obs {
            obs(event);
        }
    }

    /// Whether a rendezvous observer is installed: one relaxed load.
    pub(crate) fn observes_rendezvous(&self) -> bool {
        self.rendezvous_on.load(Ordering::Relaxed)
    }

    /// Pushes the record `record` builds, given the installed labeler,
    /// to the rendezvous observer, if any.
    pub fn rendezvous(&self, record: impl FnOnce(LabelFn<M>) -> RendezvousRecord<I>) {
        let slot = self.installed.lock().rendezvous.clone();
        if let Some((obs, label_of)) = slot {
            obs(&record(label_of));
        }
    }

    /// The instant an operation issued now is measured from: `None` —
    /// one relaxed load, no clock read — while no latency observer is
    /// installed.
    pub fn start(&self) -> Option<Instant> {
        self.latency_on.load(Ordering::Relaxed).then(Instant::now)
    }

    /// Pushes the sample for a successful `op` issued at `started` to
    /// the latency observer; a no-op for an operation that began
    /// unobserved.
    pub fn record(&self, op: LatencyOp, started: Option<Instant>) {
        let Some(started) = started else { return };
        let obs = self.installed.lock().latency.clone();
        if let Some(obs) = obs {
            obs(&LatencySample {
                op,
                elapsed: started.elapsed(),
            });
        }
    }
}

/// The in-process sharded transport (see the module docs).
pub struct ShardedTransport<I, M> {
    endpoints: RwLock<HashMap<I, Arc<Endpoint<I, M>>>>,
    /// Emptied endpoints [`ShardedTransport::recycle`] kept for reuse.
    spare: Mutex<Vec<Arc<Endpoint<I, M>>>>,
    implicit_declare: bool,
    sealed: AtomicBool,
    aborted: AtomicBool,
    activity: AtomicU64,
    /// Root seed for per-endpoint RNGs (`None` = entropy).
    seed: Mutex<Option<u64>>,
    /// Unique tokens for watcher registrations.
    next_token: AtomicU64,
    /// Lifecycle runs so far — `cast` runs and chaos crashes — each
    /// numbered to stamp the endpoints it changes ([`Endpoint::moved`]).
    runs: AtomicU64,
    /// Peers currently severed but inside their session lease (a
    /// session-aware hub reports them via
    /// [`Transport::note_session_event`]). While any peer is suspended
    /// the network is *reconfiguring*, not quiescent — see
    /// [`ShardedTransport::activity`].
    suspended: Mutex<Vec<I>>,
    /// Per-read synthetic progress ticks handed out while a lease is
    /// pending.
    lease_ticks: AtomicU64,
    /// The scheduler of submitted operations
    /// ([`Transport::submit_send`]/[`Transport::submit_select`]),
    /// created by the first submission; its one thread starts later, if
    /// ever (see [`SchedShared::start_thread`]).
    sched: OnceLock<Arc<SchedShared<I, M>>>,
    faults: FaultHooks<M>,
    observers: ObserverSlots<I, M>,
}

impl<I, M> Drop for ShardedTransport<I, M> {
    fn drop(&mut self) {
        // Release the scheduler thread, if it ever started (it holds
        // only a weak reference back to the transport, so this is the
        // last liveness signal it gets), and drop the parked ops
        // unfired: each holds its endpoint, whose waiter list holds the
        // scheduler back.
        if let Some(sched) = self.sched.get() {
            let parked = {
                let mut q = sched.queue.lock();
                q.shutdown = true;
                std::mem::take(&mut q.ops)
            };
            sched.cond.notify_all();
            drop(parked);
        }
    }
}

impl<I, M> fmt::Debug for ShardedTransport<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedTransport")
            .field(
                "endpoints",
                &self.endpoints.read().map(|g| g.len()).unwrap_or(0),
            )
            .field("aborted", &self.aborted.load(Ordering::Relaxed))
            .field("sealed", &self.sealed.load(Ordering::Relaxed))
            .finish()
    }
}

/// Derives a per-endpoint RNG seed from the root seed and the endpoint
/// id (deterministic within a build: `DefaultHasher::new` is keyless).
fn derive_seed<I: Hash>(root: u64, id: &I) -> u64 {
    let mut h = DefaultHasher::new();
    root.hash(&mut h);
    id.hash(&mut h);
    h.finish()
}

impl<I, M> ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Creates a transport. `implicit_declare` networks auto-declare
    /// unknown peers; `seed` fixes the selection RNGs for reproducibility.
    pub fn new(implicit_declare: bool, seed: Option<u64>) -> Self {
        Self {
            endpoints: RwLock::new(HashMap::new()),
            spare: Mutex::new(Vec::new()),
            implicit_declare,
            sealed: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            activity: AtomicU64::new(0),
            seed: Mutex::new(seed),
            next_token: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            suspended: Mutex::new(Vec::new()),
            lease_ticks: AtomicU64::new(0),
            sched: OnceLock::new(),
            faults: FaultHooks {
                msg_faults: AtomicBool::new(false),
                crashes: AtomicBool::new(false),
                config: Mutex::new(None),
            },
            observers: ObserverSlots::default(),
        }
    }

    /// Makes this transport what `new(implicit_declare, seed)` returns, but
    /// keeps its registry table and, emptied (undelivered messages drop),
    /// up to 64 endpoints nobody else holds for the ones it creates next.
    /// Refuses, changing nothing, once a submitted operation ran.
    pub fn recycle(&mut self, implicit_declare: bool, seed: Option<u64>) -> bool {
        if self.sched.get().is_some() {
            return false;
        }
        let mut table = std::mem::take(&mut *self.registry_mut());
        let mut spare = std::mem::take(self.spare.get_mut());
        for (_, mut ep) in table.drain() {
            if let Some(kept) = Arc::get_mut(&mut ep).filter(|_| spare.len() < RECYCLED) {
                kept.state.get_mut().renew();
                spare.push(ep);
            }
        }
        table.shrink_to(RECYCLED);
        *self = Self::new(implicit_declare, seed);
        *self.registry_mut() = table;
        *self.spare.get_mut() = spare;
        true
    }

    /// [`Transport::submit_send`] answering a boxed callback rather than
    /// a [`Completion`]; a declined send hands its message back. As an
    /// inherent method it shadows the trait's on a concrete receiver.
    #[doc(hidden)]
    pub fn submit_send(
        self: Arc<Self>,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
        done: SendDone<I>,
    ) -> Result<(), M> {
        let done = Completion {
            to: Arc::new(Callback(Mutex::new(Some(done)))),
            tag: 0,
        };
        Transport::submit_send(self, from, to, msg, deadline, done).map_err(|(msg, _)| msg)
    }

    /// A new endpoint for `id`, spare if recycling left one, seeded alike.
    fn new_endpoint(&self, id: &I, life: u8) -> Arc<Endpoint<I, M>> {
        let rng = match *self.seed.lock() {
            Some(root) => SmallRng::seed_from_u64(derive_seed(root, id)),
            None => SmallRng::from_entropy(),
        };
        let Some(mut ep) = self.spare.lock().pop() else {
            return Arc::new(Endpoint {
                life: AtomicU8::new(life),
                moved: AtomicU64::new(0),
                state: Mutex::new(EpState::new(rng)),
                cond: Condvar::new(),
            });
        };
        let kept = Arc::get_mut(&mut ep).expect("a spare endpoint is unshared");
        *kept.life.get_mut() = life;
        *kept.moved.get_mut() = 0;
        kept.state.get_mut().rng = rng;
        ep
    }

    /// Read access to the endpoint registry (poisoning swallowed, in
    /// the style of the vendored `parking_lot` shim).
    fn registry(&self) -> RwLockReadGuard<'_, HashMap<I, Arc<Endpoint<I, M>>>> {
        self.endpoints
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn registry_mut(&self) -> RwLockWriteGuard<'_, HashMap<I, Arc<Endpoint<I, M>>>> {
        self.endpoints
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, id: &I) -> Option<Arc<Endpoint<I, M>>> {
        self.registry().get(id).cloned()
    }

    /// Gets the endpoint for `id`, creating it with `life` if absent.
    fn get_or_create(&self, id: &I, life: u8) -> Arc<Endpoint<I, M>> {
        if let Some(ep) = self.lookup(id) {
            return ep;
        }
        let mut w = self.registry_mut();
        if let Some(ep) = w.get(id) {
            return ep.clone();
        }
        let ep = self.new_endpoint(id, life);
        w.insert(id.clone(), ep.clone());
        ep
    }

    /// Resolves `id`, implicitly declaring it if the transport allows.
    fn ensure(&self, id: &I) -> Result<Arc<Endpoint<I, M>>, ChanError<I>> {
        if let Some(ep) = self.lookup(id) {
            return Ok(ep);
        }
        if self.implicit_declare {
            let life = if self.sealed.load(Ordering::SeqCst) {
                LIFE_DONE
            } else {
                LIFE_EXPECTED
            };
            Ok(self.get_or_create(id, life))
        } else {
            Err(ChanError::Unknown(id.clone()))
        }
    }

    /// The one wake pass, after a lifecycle change. It bumps every
    /// endpoint's eventcount under that endpoint's lock, so a selection
    /// between its scan and its park rescans and the submitted
    /// operations parked anywhere are readied (and stepped here, on the
    /// way out). It notifies only the condvars whose sleepers `moved`
    /// concerns ([`Self::concerns`]), each after letting go of the
    /// endpoint's lock. The registry's read lock is held across the
    /// pass: the woken take it shared, if at all.
    fn wake(&self, moved: Moved) {
        self.draining(|| {
            let reg = self.registry();
            for ep in reg.values() {
                let concerned = {
                    let mut st = ep.state.lock();
                    st.bump_signal();
                    Self::concerns(&reg, ep, &st, moved)
                };
                if concerned {
                    ep.state.assert_not_held();
                    ep.cond.notify_all();
                }
            }
        });
    }

    /// Whether anybody asleep on `ep` (`st` is its state) may care about
    /// `moved`: a sender to `ep` cares about `ep`'s own word; `ep`'s
    /// parked, unclaimed selection about the words of the peers its
    /// arms name, and — receiving from anyone — about every finish.
    fn concerns(
        reg: &HashMap<I, Arc<Endpoint<I, M>>>,
        ep: &Endpoint<I, M>,
        st: &EpState<I, M>,
        moved: Moved,
    ) -> bool {
        let Moved::Run { run, ends } = moved else {
            return true;
        };
        let changed = |id: &I| {
            reg.get(id)
                .is_some_and(|p| p.moved.load(Ordering::SeqCst) == run)
        };
        ep.moved.load(Ordering::SeqCst) == run
            || st.wait.as_ref().is_some_and(|w| {
                w.resolved.is_none()
                    && w.wants.iter().any(|want| match want {
                        Want::Recv(Source::Any) => ends,
                        Want::Recv(Source::Of(p)) | Want::Peer(p) => changed(p),
                    })
            })
    }

    /// After a pick-up from an edge into `ep`: lets `st` (`ep`'s lock) go,
    /// then wakes the sender's phase 2, which sleeps on `ep`'s condvar,
    /// and the selectors watching `ep`, which may care about the freed
    /// slot.
    fn picked_up(ep: &Endpoint<I, M>, st: parking_lot::MutexGuard<'_, EpState<I, M>>) {
        let watchers = st.watchers.iter().map(|(_, w)| Arc::clone(w)).collect();
        drop(st);
        ep.cond.notify_all();
        Self::wake_watchers(watchers);
    }

    /// Wakes the selectors registered as send watchers on `ep`. Call
    /// *without* holding any endpoint lock; the batch was taken under
    /// `ep`'s lock.
    fn wake_watchers(watchers: StackList<Arc<Endpoint<I, M>>>) {
        for w in watchers.iter() {
            w.state.lock().bump_signal();
            w.cond.notify_all();
        }
    }

    fn chaos_cfg(&self) -> Option<Arc<FaultConfig<M>>> {
        self.faults.config.lock().clone()
    }

    /// Pushes an injected fault to the observer.
    fn record_fault(&self, kind: FaultKind, from: &I, to: &I, seq: u64) {
        self.observers.fault(&FaultRecord {
            kind,
            from: from.clone(),
            to: to.clone(),
            seq,
        });
    }

    /// Counts one operation by `me` toward crash-at-step-*k*; on a
    /// crash, marks `me` done and wakes whom that concerns.
    fn chaos_step(&self, me: &I, me_ep: &Arc<Endpoint<I, M>>) -> Result<(), ChanError<I>> {
        let Some(cfg) = self.chaos_cfg() else {
            return Ok(());
        };
        if !cfg.plan.has_crashes() {
            return Ok(());
        }
        let crashed = {
            let mut st = me_ep.state.lock();
            st.chaos_steps += 1;
            st.chaos_steps == cfg.plan.crash_step() && cfg.plan.decide_crash(me)
        };
        if crashed {
            let run = self.runs.fetch_add(1, Ordering::Relaxed) + 1;
            me_ep.set_life(LIFE_DONE, run);
            self.activity.fetch_add(1, Ordering::Relaxed);
            self.record_fault(FaultKind::Crash, me, me, cfg.plan.crash_step());
            self.wake(Moved::Run { run, ends: true });
            return Err(ChanError::Terminated(me.clone()));
        }
        Ok(())
    }

    /// Takes the message on the edge `from → me` (`st` is `me`'s
    /// state), acking it, and — `me` given: a message that was not
    /// claimed (see [`Self::claim`]) — records the rendezvous. Every
    /// delivery path funnels through here.
    fn pick_up(&self, st: &mut EpState<I, M>, from: &I, me: Option<&I>) -> Option<M> {
        let edge = st.edges.get_mut(from)?;
        let msg = edge.deposit.take()?;
        edge.acks += 1;
        if let Some(me) = me.filter(|_| self.observers.observes_rendezvous()) {
            self.record_rendezvous(edge, me, from, &msg);
        }
        st.deposits -= 1;
        st.bump_signal();
        self.activity.fetch_add(1, Ordering::Relaxed);
        Some(msg)
    }

    /// Claims the receiver `to` (`ts`, its state: seen `Active`, its wait
    /// [`takes`](WaitEntry::takes) `msg`, the edge free): it is committed
    /// to taking `msg`, so the communication has happened and the sender
    /// need not await the pickup. Recorded here, not in
    /// [`Self::take_claim`]: a sender claiming two receivers in turn
    /// would otherwise have its records observed in whichever order the
    /// receivers woke.
    fn claim(&self, ts: &mut EpState<I, M>, from: &I, to: &I, msg: M) {
        let edge = ts.edges.entry(from.clone()).or_default();
        if self.observers.observes_rendezvous() {
            self.record_rendezvous(edge, to, from, &msg);
        }
        edge.deposit = Some(msg);
        ts.deposits += 1;
        ts.wait.as_mut().expect("claimable").resolved = Some(from.clone());
        ts.bump_signal();
        self.activity.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed rendezvous: assigns the per-edge delivery
    /// seq and invokes the observer, all under the receiver's endpoint
    /// lock — so observer call order can never invert against delivery
    /// order on any edge into this endpoint (a sequencing hub relies on
    /// that for gapless replay). The lock order is endpoint → observer
    /// internals; observers must therefore never call back into the
    /// transport.
    fn record_rendezvous(&self, edge: &mut Edge<M>, me: &I, from: &I, msg: &M) {
        let seq = next(&mut edge.rdv_seq);
        self.observers.rendezvous(|label_of| RendezvousRecord {
            from: from.clone(),
            to: me.clone(),
            label: label_of(msg),
            seq,
        });
    }

    /// Any peer other than `me` that could still produce a message?
    fn any_possible_sender(&self, me: &I) -> bool {
        if self.implicit_declare && !self.sealed.load(Ordering::SeqCst) {
            return true;
        }
        self.registry()
            .iter()
            .any(|(id, ep)| id != me && ep.life.load(Ordering::SeqCst) != LIFE_DONE)
    }
}

impl<I, M> Transport<I, M> for ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    fn cast(&self, steps: &[CastStep<I>]) {
        if steps.is_empty() {
            return;
        }
        let run = self.runs.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ends = false;
        for step in steps {
            match step {
                CastStep::Declare(id) => {
                    self.get_or_create(id, LIFE_EXPECTED);
                }
                CastStep::Activate(id) => self
                    .get_or_create(id, LIFE_ACTIVE)
                    .set_life(LIFE_ACTIVE, run),
                CastStep::Finish(id) => {
                    ends = true;
                    self.get_or_create(id, LIFE_DONE).set_life(LIFE_DONE, run);
                }
                CastStep::Seal => {
                    ends = true;
                    self.sealed.store(true, Ordering::SeqCst);
                    for ep in self.registry().values() {
                        if ep
                            .life
                            .compare_exchange(
                                LIFE_EXPECTED,
                                LIFE_DONE,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                        {
                            ep.moved.store(run, Ordering::SeqCst);
                        }
                    }
                }
            }
        }
        // One wake pass for the whole run: a sleeper re-reads every
        // lifecycle word it cares about, so it needs to hear of the run,
        // not of each step.
        self.activity
            .fetch_add(steps.len() as u64, Ordering::Relaxed);
        self.wake(Moved::Run { run, ends });
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.wake(Moved::All);
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    fn peer_state(&self, id: &I) -> Option<PeerState> {
        self.lookup(id)
            .map(|ep| life_of(ep.life.load(Ordering::SeqCst)))
    }

    fn activity(&self) -> u64 {
        let base = self.activity.load(Ordering::Relaxed);
        // Lease-aware watchdog interaction: while any peer is severed
        // but still inside its session lease, the network has promised
        // it may return — that window is reconfiguration, not
        // quiescence. Hand every sampler a changing value so no
        // watchdog declares a stall before the lease verdict is in;
        // once the set empties (resume or expiry) the counter reverts
        // to real progress and true stalls surface as before.
        if self.suspended.lock().is_empty() {
            base
        } else {
            base.wrapping_add(self.lease_ticks.fetch_add(1, Ordering::Relaxed) + 1)
        }
    }

    fn reseed(&self, seed: u64) {
        *self.seed.lock() = Some(seed);
        for (id, ep) in self.registry().iter() {
            ep.state.lock().rng = SmallRng::seed_from_u64(derive_seed(seed, id));
        }
    }

    fn ensure_peer(&self, id: &I) -> Result<(), ChanError<I>> {
        self.ensure(id).map(|_| ())
    }

    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&M) -> M) {
        let msg = plan.has_message_faults() || plan.has_connection_faults();
        let crashes = plan.has_crashes();
        *self.faults.config.lock() = Some(Arc::new(FaultConfig { plan, clone_fn }));
        // Reset all fault counters so the new plan starts from seq 0.
        for ep in self.registry().values() {
            let mut st = ep.state.lock();
            st.edges.values_mut().for_each(|e| e.chaos_seq = 0);
            st.chaos_steps = 0;
        }
        // Flags last: a racing hot path that sees them set finds the
        // config already in place. A no-op plan leaves both false — the
        // per-message fault branch is hoisted out entirely at attach
        // time, not re-checked per hop.
        self.faults.msg_faults.store(msg, Ordering::SeqCst);
        self.faults.crashes.store(crashes, Ordering::SeqCst);
    }

    fn clear_fault_plan(&self) {
        self.faults.msg_faults.store(false, Ordering::SeqCst);
        self.faults.crashes.store(false, Ordering::SeqCst);
        *self.faults.config.lock() = None;
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.config.lock().as_ref().map(|c| c.plan.clone())
    }

    fn observe(&self, observers: Observers<I, M>) {
        self.observers.install(observers);
    }

    fn note_session_event(&self, event: &SessionEvent<I>) {
        {
            let mut suspended = self.suspended.lock();
            match event {
                SessionEvent::PeerDisconnected(id) => {
                    if !suspended.contains(id) {
                        suspended.push(id.clone());
                    }
                }
                SessionEvent::PeerResumed(id) | SessionEvent::LeaseExpired(id) => {
                    suspended.retain(|s| s != id);
                }
            }
        }
        self.observers.session(event);
    }

    fn send(
        &self,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<I>> {
        let started = self.observers.start();
        let result = self.send_parked(from, to, msg, deadline);
        self.note_send(started, &result);
        result
    }

    fn try_recv(&self, me: &I, from: &I) -> Result<Option<M>, ChanError<I>> {
        let started = self.observers.start();
        // A pickup readies the sender's parked submitted send.
        let result = self.draining(|| self.try_recv_impl(me, from));
        if matches!(result, Ok(Some(_))) {
            self.observers.record(LatencyOp::TryRecv, started);
        }
        result
    }

    fn select_in(
        &self,
        me: &I,
        arms: &mut [Arm<I, M>],
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        let started = self.observers.start();
        let result = self.select_parked(me, arms, deadline);
        self.note_select(started, &result);
        result
    }

    /// Admission — validation and every chaos decision — happens
    /// first, so fault records (and any observer-driven push frames)
    /// always precede the operation's completion. The rendezvous is
    /// then stepped on this thread (see `enqueue_op`).
    fn submit_send(
        self: Arc<Self>,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
        done: Completion<I, M>,
    ) -> Result<(), (M, Completion<I, M>)> {
        let started = self.observers.start();
        let result = match self.admit_send(from, to, msg) {
            Err(e) => Err(e),
            Ok(adm) if adm.dropped => self.dropped_result(to, &adm.to_ep),
            Ok(mut adm) => {
                adm.state.turn = Some(next(&mut adm.to_ep.state.lock().edge(from).turns.0));
                // The scheduler thread arms a timer where a blocking
                // caller would sleep the chaos delay.
                let ready_at = adm.delay.map(|d| Instant::now() + d);
                let op = AsyncOp::Send(SendOp {
                    from: from.clone(),
                    to: to.clone(),
                    to_ep: adm.to_ep,
                    state: adm.state,
                    deadline,
                    started,
                    done,
                });
                let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                Self::enqueue_op(&self, token, op, ready_at);
                return Ok(());
            }
        };
        self.note_send(started, &result);
        done.sent(result);
        Ok(())
    }

    /// Validation, the crash step and watcher registration happen
    /// first; the scan is then stepped on this thread (see
    /// `enqueue_op`).
    fn submit_select(
        self: Arc<Self>,
        me: &I,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
        done: Completion<I, M>,
    ) -> Result<(), (Vec<Arm<I, M>>, Completion<I, M>)> {
        let started = self.observers.start();
        match self.prepare_select(me, &arms) {
            Err(e) => done.selected(Err(e), arms),
            Ok((me_ep, mut peers)) => {
                let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                Self::register_watchers(token, &me_ep, &arms, &mut peers);
                let op = AsyncOp::Select(SelectOp {
                    me: me.clone(),
                    me_ep,
                    arms,
                    peers,
                    deadline,
                    started,
                    done,
                });
                Self::enqueue_op(&self, token, op, None);
            }
        }
        Ok(())
    }
}

/// A [`SendDone`] answered as a [`Complete`] receiver.
struct Callback<I>(Mutex<Option<SendDone<I>>>);

impl<I: Send, M> Complete<I, M> for Callback<I> {
    fn sent(&self, _: u64, result: Result<(), ChanError<I>>) {
        let done = self.0.lock().take();
        if let Some(done) = done {
            done(result);
        }
    }
    fn selected(&self, _: u64, _: Result<Outcome<I, M>, ChanError<I>>, _: Vec<Arm<I, M>>) {
        unreachable!("a send's callback answers no selection")
    }
}

/// The endpoint of the peer a selection arm names, resolved once, at
/// [`ShardedTransport::prepare_select`].
struct ArmPeer<I, M> {
    ep: Arc<Endpoint<I, M>>,
    /// This arm registered the selection as a send watcher on `ep` (the
    /// first send arm naming the peer does): the selection's exit
    /// deregisters it there.
    watching: bool,
}

/// A selection admitted by [`ShardedTransport::prepare_select`]: the
/// selecting endpoint and the arms' peers.
type Admitted<I, M> = (Arc<Endpoint<I, M>>, ArmPeers<I, M>);

/// A selection's [`ArmPeer`]s by arm index, `None` for a receive from
/// anyone.
type ArmPeers<I, M> = StackList<ArmPeer<I, M>>;

impl<I, M> ArmPeers<I, M> {
    /// The endpoint named arm `arm` names.
    fn ep(&self, arm: usize) -> &Arc<Endpoint<I, M>> {
        &self.as_slice()[arm]
            .as_ref()
            .expect("named arm resolved")
            .ep
    }
}

/// A short list on the stack: up to [`SCAN_ON_STACK`] slots inline,
/// all of them in a `Vec` past that. A selection's arm peers and scan
/// order, the selectors a change wakes and the senders a receive from
/// anyone draws among are such lists, so the usual operation allocates
/// none of them.
struct StackList<T> {
    inline: [Option<T>; SCAN_ON_STACK],
    spilled: Vec<Option<T>>,
    len: usize,
}

impl<T> StackList<T> {
    /// `len` empty slots.
    fn empty(len: usize) -> Self {
        let mut spilled = Vec::new();
        if len > SCAN_ON_STACK {
            spilled.resize_with(len, || None);
        }
        Self {
            inline: [const { None }; SCAN_ON_STACK],
            spilled,
            len,
        }
    }

    fn push(&mut self, item: T) {
        if self.len < SCAN_ON_STACK {
            self.inline[self.len] = Some(item);
        } else {
            if self.len == SCAN_ON_STACK {
                self.spilled
                    .extend(self.inline.iter_mut().map(Option::take));
            }
            self.spilled.push(Some(item));
        }
        self.len += 1;
    }

    fn as_slice(&self) -> &[Option<T>] {
        if self.len > SCAN_ON_STACK {
            &self.spilled
        } else {
            &self.inline[..self.len]
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Option<T>] {
        if self.len > SCAN_ON_STACK {
            &mut self.spilled
        } else {
            &mut self.inline[..self.len]
        }
    }

    /// The filled slots, in order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.as_slice().iter().flatten()
    }
}

impl<T> FromIterator<T> for StackList<T> {
    fn from_iter<J: IntoIterator<Item = T>>(items: J) -> Self {
        let mut list = Self::empty(0);
        items.into_iter().for_each(|item| list.push(item));
        list
    }
}

/// What [`ShardedTransport::admit_send`] decided for one send.
struct Admission<I, M> {
    to_ep: Arc<Endpoint<I, M>>,
    /// Chaos delay the waiter serves before the first
    /// [`ShardedTransport::send_step`].
    delay: Option<Duration>,
    /// Lost on the wire *after* transmission: nothing is deposited and
    /// the operation completes with
    /// [`ShardedTransport::dropped_result`].
    dropped: bool,
    state: SendState<M>,
}

/// The progress of one two-phase send: everything
/// [`ShardedTransport::send_step`] carries from one wakeup to the next.
struct SendState<M> {
    /// Taken at deposit (the phase 1 → 2 transition).
    msg: Option<M>,
    /// Chaos duplicate, redelivered best-effort after pickup.
    dup: Option<M>,
    /// The [`Edge::acks`] level that proves pickup; `Some` once deposited.
    ack_target: Option<u64>,
    /// A submitted send's ticket in [`Edge::turns`]; `None` on the
    /// blocking path.
    turn: Option<u64>,
    /// Set by a step that deposited something on the receiver's edge: the
    /// waiter owes the endpoint's condvar a `notify_all`. A driver pays
    /// after letting go of the lock, so the receiver it wakes does not
    /// run straight into it.
    wake_receiver: bool,
}

/// What one [`ShardedTransport::select_step`] came to.
enum SelectStep<'a, I, M> {
    /// An arm fired, or the selection failed for good.
    Done(Result<Outcome<I, M>, ChanError<I>>),
    /// Nothing is ready. The offers are published and the eventcount has
    /// not moved since the scan began, so whoever holds this guard can
    /// register its wakeup without losing one.
    Park(parking_lot::MutexGuard<'a, EpState<I, M>>),
}

// ---------------------------------------------------------------------
// The rendezvous core. There is one implementation of send and one of
// select; each is a *step* that either completes the operation or says
// it must wait. A blocking call and a submitted operation run the same
// steps and differ only in the waiter: the caller parks its own thread
// on the endpoint's condvar, a submitted op parks a token in the
// endpoint's `op_waiters` — both woken by the same eventcount bump.
// (And in one thing more: only a blocking send claims, see `send_step`.)
// ---------------------------------------------------------------------

impl<I, M> ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Admits one send: validates the edge, counts the crash step and
    /// makes — and records — every chaos decision for the message, at
    /// the sending edge. Two relaxed boolean loads on the fault-free
    /// path.
    fn admit_send(&self, from: &I, to: &I, msg: M) -> Result<Admission<I, M>, ChanError<I>> {
        if to == from {
            return Err(ChanError::Myself);
        }
        let to_ep = self.ensure(to)?;
        let from_ep = self.ensure(from)?;
        if self.faults.crashes.load(Ordering::Relaxed) {
            self.chaos_step(from, &from_ep)?;
        }
        let mut adm = Admission {
            to_ep,
            delay: None,
            dropped: false,
            state: SendState {
                msg: Some(msg),
                dup: None,
                ack_target: None,
                turn: None,
                wake_receiver: false,
            },
        };
        if !self.faults.msg_faults.load(Ordering::Relaxed) {
            return Ok(adm);
        }
        let Some(cfg) = self.chaos_cfg() else {
            return Ok(adm);
        };
        let has_msg = cfg.plan.has_message_faults();
        if !(has_msg || cfg.plan.has_connection_faults()) {
            return Ok(adm);
        }
        let seq = next(&mut adm.to_ep.state.lock().edge(from).chaos_seq);
        // Connection faults decide (and record) here at the sending
        // edge like every other class — that is what keeps fault logs
        // identical across transports — but are *enacted* only by
        // connection-oriented hubs observing the record. In-process
        // they are no-ops.
        if cfg.plan.decide_partition(from, to, seq) {
            self.record_fault(FaultKind::Partition, from, to, seq);
        } else if cfg.plan.decide_sever(from, to, seq) {
            self.record_fault(FaultKind::Sever, from, to, seq);
        }
        if has_msg {
            let delayed = cfg.plan.decide_delay(from, to, seq);
            adm.dropped = cfg.plan.decide_drop(from, to, seq);
            if !adm.dropped && cfg.plan.decide_duplicate(from, to, seq) {
                // Recorded at decision time, so the fault log is a pure
                // function of the plan; the redelivery itself stays
                // best-effort.
                self.record_fault(FaultKind::Duplicate, from, to, seq);
                adm.state.dup = adm.state.msg.as_ref().map(cfg.clone_fn);
            }
            if delayed {
                self.record_fault(FaultKind::Delay, from, to, seq);
                adm.delay = Some(cfg.plan.delay());
            }
            if adm.dropped {
                self.record_fault(FaultKind::Drop, from, to, seq);
            }
        }
        Ok(adm)
    }

    /// What the sender of a chaos-dropped message observes: success —
    /// the receiver never sees it — unless the peer is already gone.
    fn dropped_result(&self, to: &I, to_ep: &Endpoint<I, M>) -> Result<(), ChanError<I>> {
        if self.aborted.load(Ordering::SeqCst) {
            return Err(ChanError::Aborted);
        }
        match life_of(to_ep.life.load(Ordering::SeqCst)) {
            PeerState::Done => Err(ChanError::Terminated(to.clone())),
            _ => Ok(()),
        }
    }

    /// One step of a send, under the *receiver's* lock (`st` is
    /// `to_ep`'s state). Phase 1 deposits once the receiver is active
    /// with a free slot — and is the whole of a blocking send whose
    /// receiver is already committed to it ([`Self::claim`]); phase 2
    /// awaits the pickup, which bumps `acks[from]` and the eventcount.
    /// `Some(result)`: the send is over. `None`: it must wait for the
    /// endpoint's next eventcount bump (or `deadline`) and step again.
    fn send_step(
        &self,
        st: &mut EpState<I, M>,
        to_ep: &Endpoint<I, M>,
        from: &I,
        to: &I,
        s: &mut SendState<M>,
        deadline: Option<Instant>,
    ) -> Option<Result<(), ChanError<I>>> {
        let life = life_of(to_ep.life.load(Ordering::SeqCst));
        // One lookup decides the step; a claim or a reclaim makes another.
        let edge = st.edges.entry(from.clone()).or_default();
        if s.ack_target.is_some_and(|target| edge.acks >= target) {
            // Rendezvous complete — even under a later abort, since the
            // receiver already has the message. Deliver the chaos
            // duplicate, if planned and the edge slot is free
            // (best-effort redelivery).
            if let Some(copy) = s.dup.take() {
                if edge.deposit.is_none() && life == PeerState::Active {
                    edge.deposit = Some(copy);
                    st.deposits += 1;
                    st.bump_signal();
                    self.activity.fetch_add(1, Ordering::Relaxed);
                    s.wake_receiver = true;
                }
            }
            return Some(Ok(()));
        }
        if self.aborted.load(Ordering::SeqCst) {
            // An un-picked-up deposit stays put: abort fails every
            // later operation, so nobody can take it.
            return Some(Err(ChanError::Aborted));
        }
        match life {
            PeerState::Done => {
                // Receiver finished; reclaim a deposit it never took.
                if s.ack_target.is_some() {
                    st.reclaim(from);
                }
                return Some(Err(ChanError::Terminated(to.clone())));
            }
            PeerState::Active
                if s.ack_target.is_none()
                    && s.turn.is_none_or(|t| edge.turns.1 == t)
                    && edge.deposit.is_none() =>
            {
                let msg = s.msg.take().expect("message deposited once");
                // A blocking send whose receiver is committed is over at
                // the claim: one park, the receiver's. A submitted send
                // parks no thread and its hub answers pickup first; a
                // planned duplicate is redelivered after the pickup.
                if s.turn.is_none()
                    && s.dup.is_none()
                    && st.wait.as_ref().is_some_and(|w| w.takes(from))
                {
                    self.claim(st, from, to, msg);
                    s.wake_receiver = true;
                    return Some(Ok(()));
                }
                edge.deposit = Some(msg);
                s.ack_target = Some(edge.acks + 1);
                st.deposits += 1;
                st.bump_signal();
                self.activity.fetch_add(1, Ordering::Relaxed);
                s.wake_receiver = true;
            }
            _ => {}
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // Reclaim an un-picked-up deposit so the message is not
            // delivered after we report failure.
            if s.ack_target.is_some() {
                st.reclaim(from);
            }
            return Some(Err(ChanError::Timeout));
        }
        None
    }

    /// [`Transport::try_recv`] body; the trait method wraps it with
    /// latency recording.
    fn try_recv_impl(&self, me: &I, from: &I) -> Result<Option<M>, ChanError<I>> {
        if from == me {
            return Err(ChanError::Myself);
        }
        let from_ep = self.ensure(from)?;
        let me_ep = self.ensure(me)?;
        if self.faults.crashes.load(Ordering::Relaxed) {
            self.chaos_step(me, &me_ep)?;
        }
        if self.aborted.load(Ordering::SeqCst) {
            return Err(ChanError::Aborted);
        }
        let mut st = me_ep.state.lock();
        if let Some(msg) = self.pick_up(&mut st, from, Some(me)) {
            Self::picked_up(&me_ep, st);
            return Ok(Some(msg));
        }
        drop(st);
        if from_ep.life.load(Ordering::SeqCst) == LIFE_DONE {
            return Err(ChanError::Terminated(from.clone()));
        }
        Ok(None)
    }

    /// Validates a selection's arms and resolves every named peer's
    /// endpoint once up front. Also counts the selection toward
    /// crash-at-step-*k*.
    fn prepare_select(&self, me: &I, arms: &[Arm<I, M>]) -> Result<Admitted<I, M>, ChanError<I>> {
        if arms.is_empty() {
            return Err(ChanError::EmptySelect);
        }
        let me_ep = self.ensure(me)?;
        let mut peers = ArmPeers::empty(arms.len());
        for (slot, arm) in peers.as_mut_slice().iter_mut().zip(arms) {
            let named = match arm {
                Arm::Recv(Source::Of(p)) | Arm::Send { to: p, .. } | Arm::Watch(p) => p,
                Arm::Recv(Source::Any) => continue,
            };
            if named == me {
                return Err(ChanError::Myself);
            }
            *slot = Some(ArmPeer {
                ep: self.ensure(named)?,
                watching: false,
            });
        }
        // Chaos: selection counts as one operation toward crash-at-step-k.
        if self.faults.crashes.load(Ordering::Relaxed) {
            self.chaos_step(me, &me_ep)?;
        }
        Ok((me_ep, peers))
    }

    /// Registers `me` as a send watcher on every send-arm target, so
    /// their offer publications and slot releases wake us. Every
    /// selection exit path must pass `peers` to
    /// [`Self::deregister_watchers`].
    fn register_watchers(
        token: u64,
        me_ep: &Arc<Endpoint<I, M>>,
        arms: &[Arm<I, M>],
        peers: &mut ArmPeers<I, M>,
    ) {
        let peers = peers.as_mut_slice();
        for (i, arm) in arms.iter().enumerate() {
            if !matches!(arm, Arm::Send { .. }) {
                continue;
            }
            let (earlier, rest) = peers.split_at_mut(i);
            let Some(peer) = rest[0].as_mut() else {
                continue;
            };
            let registered = earlier
                .iter()
                .flatten()
                .any(|e| e.watching && Arc::ptr_eq(&e.ep, &peer.ep));
            if !registered {
                peer.ep.state.lock().watchers.push((token, me_ep.clone()));
                peer.watching = true;
            }
        }
    }

    fn deregister_watchers(token: u64, peers: &ArmPeers<I, M>) {
        for peer in peers.iter().filter(|p| p.watching) {
            peer.ep.state.lock().watchers.retain(|(t, _)| *t != token);
        }
    }

    /// One step of a selection (watcher registration is the waiter's
    /// job): honor a claim, else scan the arms, else publish the receive
    /// offers and report that the selection must wait.
    fn select_step<'a>(
        &self,
        me: &I,
        me_ep: &'a Arc<Endpoint<I, M>>,
        arms: &mut [Arm<I, M>],
        peers: &ArmPeers<I, M>,
        deadline: Option<Instant>,
    ) -> SelectStep<'a, I, M> {
        loop {
            let (sig0, claimed) = self.take_claim(me_ep, arms);
            if let Some(outcome) = claimed {
                return SelectStep::Done(Ok(outcome));
            }
            if self.aborted.load(Ordering::SeqCst) {
                return SelectStep::Done(Err(ChanError::Aborted));
            }
            match self.scan_arms(me, me_ep, arms, peers) {
                Ok(Some(outcome)) => return SelectStep::Done(Ok(outcome)),
                Ok(None) => {}
                Err(e) => return SelectStep::Done(Err(e)),
            }
            self.publish_offers(me_ep, arms);
            let mut st = me_ep.state.lock();
            if st.signal != sig0 {
                // Something changed mid-scan: rescan rather than wait.
                continue;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // The eventcount is unmoved, so no claim can have
                // landed: withdraw the offers and time out.
                st.wait = None;
                return SelectStep::Done(Err(ChanError::Timeout));
            }
            return SelectStep::Park(st);
        }
    }

    /// Loop head of a selection, under `me`'s own lock: snapshots the
    /// eventcount, withdraws any published offers so no claim can land
    /// mid-scan, and honors a claim left by a sender while we slept
    /// (priority even over aborts — the claiming sender already
    /// returned success).
    fn take_claim(
        &self,
        me_ep: &Arc<Endpoint<I, M>>,
        arms: &[Arm<I, M>],
    ) -> (u64, Option<Outcome<I, M>>) {
        let mut st = me_ep.state.lock();
        let sig0 = st.signal;
        if let Some(WaitEntry {
            mut wants,
            resolved,
        }) = st.wait.take()
        {
            wants.clear();
            st.spare_offers = wants;
            if let Some(from) = resolved {
                // Recorded at the claim.
                let msg = self
                    .pick_up(&mut st, &from, None)
                    .expect("claim implies a deposited message");
                Self::picked_up(me_ep, st);
                let arm = arms
                    .iter()
                    .position(|a| match a {
                        Arm::Recv(Source::Any) => true,
                        Arm::Recv(Source::Of(p)) => *p == from,
                        _ => false,
                    })
                    .expect("claim matched an offered receive arm");
                return (sig0, Some(Outcome::Received { arm, from, msg }));
            }
        }
        (sig0, None)
    }

    /// Publishes what `me`'s arms wait for — the receive offers, which
    /// send arms elsewhere can claim, and the peers the other arms name,
    /// which a lifecycle change wakes us for — then wakes the selectors
    /// watching us.
    fn publish_offers(&self, me_ep: &Arc<Endpoint<I, M>>, arms: &[Arm<I, M>]) {
        let watchers;
        {
            let mut st = me_ep.state.lock();
            let mut wants = std::mem::take(&mut st.spare_offers);
            wants.extend(arms.iter().map(|arm| match arm {
                Arm::Recv(s) => Want::Recv(s.clone()),
                Arm::Send { to: p, .. } | Arm::Watch(p) => Want::Peer(p.clone()),
            }));
            st.wait = Some(WaitEntry {
                wants,
                resolved: None,
            });
            watchers = st.watchers.iter().map(|(_, w)| Arc::clone(w)).collect();
        }
        Self::wake_watchers(watchers);
    }

    /// One fairness-shuffled pass over the arms, locking only the
    /// endpoint each arm concerns (never two at once). `Ok(Some(..))`:
    /// an arm fired. `Ok(None)`: nothing ready, but something may yet
    /// fire. `Err(..)`: every arm is permanently unfireable.
    fn scan_arms(
        &self,
        me: &I,
        me_ep: &Arc<Endpoint<I, M>>,
        arms: &mut [Arm<I, M>],
        peers: &ArmPeers<I, M>,
    ) -> Result<Option<Outcome<I, M>>, ChanError<I>> {
        let mut order: StackList<usize> = (0..arms.len()).collect();
        order.as_mut_slice().shuffle(&mut me_ep.state.lock().rng);
        let mut any_live = false;
        for &idx in order.iter() {
            match &arms[idx] {
                Arm::Recv(Source::Of(p)) => {
                    let p = p.clone();
                    let mut st = me_ep.state.lock();
                    if let Some(msg) = self.pick_up(&mut st, &p, Some(me)) {
                        Self::picked_up(me_ep, st);
                        return Ok(Some(Outcome::Received {
                            arm: idx,
                            from: p,
                            msg,
                        }));
                    }
                    drop(st);
                    any_live |= peers.ep(idx).life.load(Ordering::SeqCst) != LIFE_DONE;
                }
                Arm::Recv(Source::Any) => {
                    let mut st = me_ep.state.lock();
                    let ep = &mut *st;
                    let mut senders: StackList<I> = ep
                        .edges
                        .iter()
                        .filter(|(_, e)| e.deposit.is_some())
                        .map(|(id, _)| id.clone())
                        .take(ep.deposits)
                        .collect();
                    let senders = senders.as_mut_slice();
                    // `edges` iterates in `RandomState` order; a seeded
                    // pick must not depend on it. (The cached-key sort
                    // would allocate per scan.)
                    senders.sort_unstable_by_key(|id| id.as_ref().map(|id| derive_seed(0, id)));
                    let picked = senders.choose(&mut ep.rng).cloned().flatten();
                    if let Some(from) = picked {
                        let msg = self
                            .pick_up(&mut st, &from, Some(me))
                            .expect("chosen sender has a message");
                        Self::picked_up(me_ep, st);
                        return Ok(Some(Outcome::Received {
                            arm: idx,
                            from,
                            msg,
                        }));
                    }
                    drop(st);
                    any_live |= self.any_possible_sender(me);
                }
                Arm::Send { to, .. } => {
                    let to = to.clone();
                    let t_ep = peers.ep(idx);
                    match life_of(t_ep.life.load(Ordering::SeqCst)) {
                        PeerState::Done => {}
                        PeerState::Expected => any_live = true,
                        PeerState::Active => {
                            any_live = true;
                            let mut ts = t_ep.state.lock();
                            // `me` may *claim* `to`: its published offers
                            // take my message and the edge is free.
                            if ts.wait.as_ref().is_some_and(|w| w.takes(me)) && !ts.holds(me) {
                                // The arm fires: its message leaves
                                // the lent list, a receive in its slot.
                                let fired = std::mem::replace(&mut arms[idx], Arm::recv_any());
                                let Arm::Send { msg: m, .. } = fired else {
                                    unreachable!("arm {idx} is a send arm")
                                };
                                // Chaos: a dropped send arm still
                                // fires (the sender saw delivery) but
                                // leaves the receiver waiting.
                                let cfg = self.faults.msg_faults.load(Ordering::Relaxed);
                                let cfg = cfg.then(|| self.chaos_cfg()).flatten();
                                if let Some(cfg) = cfg.filter(|cfg| cfg.plan.has_message_faults()) {
                                    let seq = next(&mut ts.edge(me).chaos_seq);
                                    if cfg.plan.decide_drop(me, &to, seq) {
                                        drop(ts);
                                        self.record_fault(FaultKind::Drop, me, &to, seq);
                                        return Ok(Some(Outcome::Sent { arm: idx, to }));
                                    }
                                }
                                self.claim(&mut ts, me, &to, m);
                                drop(ts);
                                t_ep.cond.notify_all();
                                return Ok(Some(Outcome::Sent { arm: idx, to }));
                            }
                        }
                    }
                }
                Arm::Watch(p) => {
                    // While a message from the dead peer is still
                    // pending, a recv arm must drain it first: the
                    // watch arm stays pending.
                    if peers.ep(idx).life.load(Ordering::SeqCst) == LIFE_DONE
                        && !me_ep.state.lock().holds(p)
                    {
                        let peer = p.clone();
                        return Ok(Some(Outcome::Terminated { arm: idx, peer }));
                    }
                    any_live = true;
                }
            }
        }

        if !any_live {
            return Err(ChanError::all_arms_dead(arms));
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// The two waiters. A blocking call drives the steps on its own thread,
// with borrowed ids, and sleeps on the endpoint's condvar. A submitted
// operation runs on whichever thread makes it runnable: `submit_*`
// queues the op and drains the scheduler's ready queue itself — its
// own op plus every op that step readies, iteratively — so a hub's
// reactor steps both sides of a remote rendezvous without a thread
// hand-off. An op that must wait parks its token on the endpoint
// (`EpState::op_waiters`) until the eventcount bumps. The non-blocking
// entry points that bump from outside a submission (`cast`, `abort`,
// `try_recv`) drain the same way on their way out. The one
// "chan-async-sched" thread drains the same queue through the same
// `drive_op`, for what nobody is around to run — timers (deadlines,
// chaos delays) and tokens readied by blocking callers — and starts
// only when there first is such a thing: a transport whose submitted
// ops carry no deadline and meet only other submitted ops never has
// one. Parked rendezvous cost at most one thread.
// ---------------------------------------------------------------------

impl<I, M> ShardedTransport<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Sleeps on `ep`'s condvar until notified or `deadline`.
    fn wait_on(
        ep: &Endpoint<I, M>,
        st: &mut parking_lot::MutexGuard<'_, EpState<I, M>>,
        deadline: Option<Instant>,
    ) {
        match deadline {
            Some(d) => {
                ep.cond.wait_until(st, d);
            }
            None => ep.cond.wait(st),
        }
    }

    /// [`Transport::send`] on the caller's thread.
    fn send_parked(
        &self,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<I>> {
        let mut adm = self.admit_send(from, to, msg)?;
        if let Some(delay) = adm.delay {
            thread::sleep(delay);
        }
        if adm.dropped {
            return self.dropped_result(to, &adm.to_ep);
        }
        let mut st = adm.to_ep.state.lock();
        loop {
            let step = self.send_step(&mut st, &adm.to_ep, from, to, &mut adm.state, deadline);
            let wake_receiver = std::mem::take(&mut adm.state.wake_receiver);
            if wake_receiver {
                // The receiver takes this lock the moment it wakes.
                drop(st);
                adm.to_ep.state.assert_not_held();
                adm.to_ep.cond.notify_all();
                if let Some(result) = step {
                    return result;
                }
                // Deposited, pickup still to come: step again before
                // waiting, so a pickup that landed while the lock was
                // let go is read off `acks`, not waited for.
                st = adm.to_ep.state.lock();
                continue;
            }
            if let Some(result) = step {
                return result;
            }
            Self::wait_on(&adm.to_ep, &mut st, deadline);
        }
    }

    /// [`Transport::select_in`] on the caller's thread.
    fn select_parked(
        &self,
        me: &I,
        arms: &mut [Arm<I, M>],
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        let (me_ep, mut peers) = self.prepare_select(me, arms)?;
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        Self::register_watchers(token, &me_ep, arms, &mut peers);
        let result = loop {
            match self.select_step(me, &me_ep, arms, &peers, deadline) {
                SelectStep::Done(result) => break result,
                SelectStep::Park(mut st) => Self::wait_on(&me_ep, &mut st, deadline),
            }
        };
        Self::deregister_watchers(token, &peers);
        result
    }

    /// Records a successful send's latency.
    fn note_send(&self, started: Option<Instant>, result: &Result<(), ChanError<I>>) {
        if result.is_ok() {
            self.observers.record(LatencyOp::Send, started);
        }
    }

    /// Records a fired selection's latency.
    fn note_select(&self, started: Option<Instant>, result: &Result<Outcome<I, M>, ChanError<I>>) {
        if matches!(
            result,
            Ok(Outcome::Received { .. }) | Ok(Outcome::Sent { .. })
        ) {
            self.observers.record(LatencyOp::Select, started);
        }
    }

    /// The transport's scheduler, created on first use — without its
    /// thread, which holds only a weak reference back when it does
    /// start, so it cannot keep the transport alive;
    /// [`ShardedTransport`]'s `Drop` releases it.
    fn scheduler(this: &Arc<Self>) -> &Arc<SchedShared<I, M>> {
        this.sched.get_or_init(|| {
            Arc::new(SchedShared {
                queue: Mutex::new(SchedState {
                    ready: VecDeque::new(),
                    timers: BTreeSet::new(),
                    ops: HashMap::new(),
                    drainers: Vec::new(),
                    thread_started: false,
                    shutdown: false,
                }),
                cond: Condvar::new(),
                transport: Arc::downgrade(this),
            })
        })
    }

    /// Whether the "chan-async-sched" thread exists: it is not started by
    /// submitted operations that carry no deadline and are readied by
    /// other submissions, `cast`, `abort` or `try_recv`.
    #[doc(hidden)]
    pub fn scheduler_thread_started(&self) -> bool {
        self.sched
            .get()
            .is_some_and(|sched| sched.queue.lock().thread_started)
    }

    /// Runs `wake` — which may ready parked submitted operations — with
    /// the calling thread registered as a drainer, and steps what it
    /// readied on the way out: nothing is left for the scheduler
    /// thread. Inside a drain already running on this thread (a
    /// completion callback) `wake` just runs, and that drain reaches
    /// what it readies. A transport nobody ever submitted to has no
    /// scheduler, and pays one load.
    fn draining<R>(&self, wake: impl FnOnce() -> R) -> R {
        let Some(sched) = self.sched.get() else {
            return wake();
        };
        let me = thread::current().id();
        {
            let mut q = sched.queue.lock();
            if q.drainers.contains(&me) {
                drop(q);
                return wake();
            }
            q.drainers.push(me);
        }
        let _listed = Drainer {
            sched,
            me,
            scheduler: false,
        };
        let result = wake();
        self.drain(sched, me);
        result
    }

    /// Queues a new op — behind its chaos-delay gate, if it has one —
    /// and drains the ready queue on the calling thread, so the op's
    /// first step, and every step that one makes runnable, has run
    /// before `submit_*` returns. A submission from inside a completion
    /// callback only queues: the drain already running on this thread
    /// reaches it, so a chain of such callbacks iterates, not recurses.
    fn enqueue_op(this: &Arc<Self>, token: u64, op: AsyncOp<I, M>, ready_at: Option<Instant>) {
        let sched = Self::scheduler(this);
        this.draining(|| {
            let mut q = sched.queue.lock();
            q.ops.insert(token, op);
            match ready_at {
                Some(at) => sched.arm(&mut q, at, token),
                None => q.ready.push_back(token),
            }
        });
    }

    /// Steps every runnable op until the ready queue is empty, then
    /// takes `me` — put in `drainers` by the caller — off the list.
    /// Several threads may drain at once, each op stepped by whoever
    /// popped it out of `ops`.
    fn drain(&self, sched: &Arc<SchedShared<I, M>>, me: ThreadId) {
        loop {
            let (token, op) = {
                let mut q = sched.queue.lock();
                loop {
                    let Some(token) = q.ready.pop_front() else {
                        q.drainers.retain(|d| *d != me);
                        return;
                    };
                    // A token may outlive its op (stale waiter or
                    // timer): skip.
                    if let Some(op) = q.ops.remove(&token) {
                        break (token, op);
                    }
                }
            };
            self.drive_op(token, op, sched);
        }
    }

    /// Steps `op` once: on completion runs its callback (with latency
    /// recording), otherwise parks it on the endpoint it waits for.
    fn drive_op(&self, token: u64, op: AsyncOp<I, M>, sched: &Arc<SchedShared<I, M>>) {
        match op {
            AsyncOp::Send(mut s) => {
                let to_ep = Arc::clone(&s.to_ep);
                let mut st = to_ep.state.lock();
                let step =
                    self.send_step(&mut st, &to_ep, &s.from, &s.to, &mut s.state, s.deadline);
                let wake_receiver = std::mem::take(&mut s.state.wake_receiver);
                let finished = match step {
                    Some(result) => {
                        if st.edge(&s.from).pass_turn() {
                            st.bump_signal();
                        }
                        Some((s, result))
                    }
                    None => {
                        sched.park(&mut st, token, s.deadline, AsyncOp::Send(s));
                        None
                    }
                };
                drop(st);
                if wake_receiver {
                    to_ep.cond.notify_all();
                }
                if let Some((s, result)) = finished {
                    self.note_send(s.started, &result);
                    s.done.sent(result);
                }
            }
            AsyncOp::Select(mut s) => {
                let me_ep = Arc::clone(&s.me_ep);
                match self.select_step(&s.me, &me_ep, &mut s.arms, &s.peers, s.deadline) {
                    SelectStep::Done(result) => {
                        Self::deregister_watchers(token, &s.peers);
                        self.note_select(s.started, &result);
                        s.done.selected(result, s.arms);
                    }
                    SelectStep::Park(mut st) => {
                        sched.park(&mut st, token, s.deadline, AsyncOp::Select(s));
                    }
                };
            }
        }
    }
}

/// Shared handle between the transport, its scheduler thread, and the
/// endpoints that park submitted operations.
struct SchedShared<I, M> {
    queue: Mutex<SchedState<I, M>>,
    /// The scheduler thread's sleep.
    cond: Condvar,
    /// What the scheduler thread, once started, drains for.
    transport: Weak<ShardedTransport<I, M>>,
}

/// The scheduler's run state.
struct SchedState<I, M> {
    /// Tokens due for a step, in wake order.
    ready: VecDeque<u64>,
    /// `(due, token)` deadlines and chaos-delay gates, earliest first;
    /// only the scheduler thread pops them. Re-arming an entry that is
    /// still there changes nothing.
    timers: BTreeSet<(Instant, u64)>,
    /// Parked ops by token. An op being stepped is on its driver's
    /// stack, in neither `ops` nor anywhere else.
    ops: HashMap<u64, AsyncOp<I, M>>,
    /// Threads inside [`ShardedTransport::drain`] right now.
    drainers: Vec<ThreadId>,
    /// Whether the scheduler thread exists (see
    /// [`SchedShared::start_thread`]).
    thread_started: bool,
    shutdown: bool,
}

/// Unlists a thread from [`SchedState::drainers`] when a panic — a
/// completion callback's — unwinds through its drain (`drain` unlists
/// it otherwise, on finding the queue empty) and leaves what it had
/// promised to step to the scheduler thread: a stale id would keep
/// `bump_signal` from ever waking anybody.
struct Drainer<'a, I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    sched: &'a Arc<SchedShared<I, M>>,
    me: ThreadId,
    /// `me` is the scheduler thread, which the panic kills: it is
    /// marked as not started, and succeeded at once if a timer — which
    /// no other thread pops — is armed.
    scheduler: bool,
}

impl<I, M> Drop for Drainer<'_, I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    fn drop(&mut self) {
        if thread::panicking() {
            let mut q = self.sched.queue.lock();
            q.drainers.retain(|d| *d != self.me);
            if self.scheduler {
                q.thread_started = false;
            }
            let orphaned = !q.ready.is_empty() && q.drainers.is_empty();
            if orphaned || (self.scheduler && !q.timers.is_empty()) {
                self.sched.start_thread(&mut q);
                self.sched.cond.notify_one();
            }
        }
    }
}

/// Timer entries tolerated beyond two per parked op before the dead
/// ones (their op completed before they came due) are purged.
const TIMER_SLACK: usize = 64;

impl<I, M> SchedShared<I, M>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    /// Starts the "chan-async-sched" thread unless it runs already.
    /// Called, under the queue lock, at the two moments something is
    /// first left for it: a timer is armed, or a token is readied while
    /// nobody drains. Detached: it ends with the transport.
    fn start_thread(self: &Arc<Self>, q: &mut SchedState<I, M>) {
        if q.thread_started {
            return;
        }
        q.thread_started = true;
        let (transport, sched) = (self.transport.clone(), Arc::clone(self));
        thread::Builder::new()
            .name("chan-async-sched".into())
            .spawn(move || scheduler_loop(transport, sched))
            .expect("spawn async-op scheduler");
    }

    /// Parks a stepped op: its token on the endpoint it waits for —
    /// `st`, locked — and the op in `ops`, its deadline armed. Both
    /// under that lock: the moment it drops, a bump may ready the token
    /// and another driver pop it, and a token that finds no op is
    /// skipped, its op parked forever. Arming on every park (not once
    /// at submission) lets a timer lost while its op was on a driver's
    /// stack — popped due, or purged as dead — still fire.
    fn park(
        self: &Arc<Self>,
        st: &mut EpState<I, M>,
        token: u64,
        deadline: Option<Instant>,
        op: AsyncOp<I, M>,
    ) {
        st.op_waiters.push((token, Arc::clone(self)));
        let mut q = self.queue.lock();
        q.ops.insert(token, op);
        if let Some(at) = deadline {
            self.arm(&mut q, at, token);
        }
    }

    /// Arms a timer for `token`, which must already be in `ops`. Starts
    /// the scheduler thread if this is the first timer, wakes it when
    /// its sleep has to end sooner, and keeps the set proportional to
    /// the parked ops.
    fn arm(self: &Arc<Self>, q: &mut SchedState<I, M>, at: Instant, token: u64) {
        self.start_thread(q);
        if q.timers.first().is_none_or(|first| (at, token) < *first) {
            self.cond.notify_one();
        }
        q.timers.insert((at, token));
        if q.timers.len() > 2 * q.ops.len() + TIMER_SLACK {
            let SchedState { timers, ops, .. } = q;
            timers.retain(|(_, t)| ops.contains_key(t));
        }
    }
}

/// A submitted operation: what a blocking caller keeps on its stack.
/// A parked op sits in [`SchedState::ops`] by value, its selection's
/// peers inline, as on a blocking caller's stack; boxing the larger
/// variant would cost every submitted selection the allocation the
/// inline peers exist to save.
#[allow(clippy::large_enum_variant)]
enum AsyncOp<I, M> {
    Send(SendOp<I, M>),
    Select(SelectOp<I, M>),
}

struct SendOp<I, M> {
    from: I,
    to: I,
    to_ep: Arc<Endpoint<I, M>>,
    state: SendState<M>,
    deadline: Option<Instant>,
    started: Option<Instant>,
    done: Completion<I, M>,
}

struct SelectOp<I, M> {
    me: I,
    me_ep: Arc<Endpoint<I, M>>,
    arms: Vec<Arm<I, M>>,
    /// The arms' peers; the send-arm targets among them hold the op's
    /// watcher registration, under its scheduler token.
    peers: ArmPeers<I, M>,
    deadline: Option<Instant>,
    started: Option<Instant>,
    done: Completion<I, M>,
}

/// The scheduler thread: sleeps until a timer is due or a thread that
/// is not draining readies a token, turns due timers into ready tokens,
/// and drains them — unless a submitter is draining already, which will
/// not leave before the queue is empty. Exits with the transport, or on
/// a completion callback's panic, leaving a successor if it is needed
/// (see [`Drainer`]).
fn scheduler_loop<I, M>(transport: Weak<ShardedTransport<I, M>>, sched: Arc<SchedShared<I, M>>)
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    let me = thread::current().id();
    let _listed = Drainer {
        sched: &sched,
        me,
        scheduler: true,
    };
    loop {
        {
            let mut q = sched.queue.lock();
            loop {
                if q.shutdown {
                    q.ops.clear();
                    return;
                }
                while let Some(&(at, token)) = q.timers.first() {
                    if Instant::now() < at {
                        break;
                    }
                    q.timers.pop_first();
                    q.ready.push_back(token);
                }
                if !q.ready.is_empty() && q.drainers.is_empty() {
                    break;
                }
                match q.timers.first().map(|(at, _)| *at) {
                    Some(at) => {
                        sched.cond.wait_until(&mut q, at);
                    }
                    None => sched.cond.wait(&mut q),
                }
            }
            q.drainers.push(me);
        }
        let Some(t) = transport.upgrade() else {
            sched.queue.lock().ops.clear();
            return;
        };
        t.drain(&sched, me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A submitted send's completion that hands its result down `tx`.
    struct SentTo(Mutex<std::sync::mpsc::Sender<Result<(), ChanError<u8>>>>);

    impl Complete<u8, u32> for SentTo {
        fn sent(&self, _: u64, result: Result<(), ChanError<u8>>) {
            let _ = self.0.lock().send(result);
        }
        fn selected(
            &self,
            _: u64,
            _: Result<Outcome<u8, u32>, ChanError<u8>>,
            _: Vec<Arm<u8, u32>>,
        ) {
            unreachable!("a send's completion answers no selection")
        }
    }

    fn sent_to(tx: std::sync::mpsc::Sender<Result<(), ChanError<u8>>>) -> Completion<u8, u32> {
        Completion {
            to: Arc::new(SentTo(Mutex::new(tx))),
            tag: 0,
        }
    }

    /// Whether a message from `from` sits on its edge into `to`.
    fn deposited(t: &ShardedTransport<u8, u32>, to: u8, from: u8) -> bool {
        t.lookup(&to).is_some_and(|ep| ep.state.lock().holds(&from))
    }

    /// `ep`'s deposit count, checked against its edges.
    fn deposits(ep: &Endpoint<u8, u32>) -> usize {
        let st = ep.state.lock();
        let held = st.edges.values().filter(|e| e.deposit.is_some()).count();
        assert_eq!(
            st.deposits, held,
            "the count is the edges holding a message"
        );
        held
    }

    /// A send of `msg` not yet stepped: blocking, no duplicate planned.
    fn sending(msg: u32) -> SendState<u32> {
        SendState {
            msg: Some(msg),
            dup: None,
            ack_target: None,
            turn: None,
            wake_receiver: false,
        }
    }

    /// The deposit count follows every path that puts a message on an
    /// edge or takes one off: a claim and its pickup, a phase-1 deposit
    /// and its pickup, the timeout reclaim, a duplicate's redelivery and
    /// the reclaim from a receiver that finished. Sends into 1 are
    /// stepped by hand, under 1's lock, as a waiter would.
    #[test]
    fn the_deposit_count_is_the_edges_holding_a_message() {
        let t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(1));
        for id in [0, 1, 2] {
            t.activate(id);
        }
        let ep = t.lookup(&1).unwrap();
        let step = |s: &mut SendState<u32>, from: u8, deadline: Option<Instant>| {
            t.send_step(&mut ep.state.lock(), &ep, &from, &1, s, deadline)
        };

        // A claim: 1's published offers take the message at once.
        let mut arms = vec![Arm::Recv(Source::Any)];
        let (_, peers) = t.prepare_select(&1, &arms).unwrap();
        t.publish_offers(&ep, &arms);
        assert_eq!(step(&mut sending(5), 0, None), Some(Ok(())));
        assert_eq!(deposits(&ep), 1);
        let SelectStep::Done(got) = t.select_step(&1, &ep, &mut arms, &peers, None) else {
            panic!("a claimed receiver has a message to take");
        };
        assert!(matches!(got, Ok(Outcome::Received { msg: 5, .. })));
        assert_eq!(deposits(&ep), 0);

        // Phase-1 deposits on two edges, one picked up, one reclaimed at
        // its deadline.
        let (mut a, mut b) = (sending(10), sending(20));
        assert_eq!(step(&mut a, 0, None), None);
        assert_eq!(step(&mut b, 2, None), None);
        assert_eq!(deposits(&ep), 2);
        assert_eq!(t.try_recv(&1, &0), Ok(Some(10)));
        assert_eq!(deposits(&ep), 1);
        assert_eq!(step(&mut a, 0, None), Some(Ok(())), "picked up");
        let past = Some(Instant::now());
        assert_eq!(step(&mut b, 2, past), Some(Err(ChanError::Timeout)));
        assert_eq!(deposits(&ep), 0);

        // A planned duplicate is deposited again after the pickup.
        let mut c = SendState {
            dup: Some(31),
            ..sending(30)
        };
        assert_eq!(step(&mut c, 0, None), None);
        assert_eq!(t.try_recv(&1, &0), Ok(Some(30)));
        assert_eq!(deposits(&ep), 0);
        assert_eq!(step(&mut c, 0, None), Some(Ok(())));
        assert_eq!(deposits(&ep), 1, "the duplicate is redelivered");
        assert_eq!(t.try_recv(&1, &0), Ok(Some(31)));

        // A receiver that finished leaves the deposit to be reclaimed.
        let mut d = sending(40);
        assert_eq!(step(&mut d, 2, None), None);
        assert_eq!(deposits(&ep), 1);
        t.finish(1);
        assert_eq!(step(&mut d, 2, None), Some(Err(ChanError::Terminated(1))));
        assert_eq!(deposits(&ep), 0);
    }

    /// A recycled endpoint is reused with no edge at all: no deposit
    /// left over and, on an edge's first use, every counter at zero.
    #[test]
    fn a_recycled_endpoint_starts_with_empty_edges() {
        let mut t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(1));
        for id in [0, 1] {
            t.activate(id);
        }
        t.set_fault_plan(FaultPlan::new(1).with_delay(1.0, Duration::ZERO), |m| *m);
        t.observe(Observers {
            rendezvous: Some((Arc::new(|_| {}), |_| None)),
            ..Observers::default()
        });
        let used = t.lookup(&1).unwrap();
        let mut s = t.admit_send(&0, &1, 7).ok().unwrap().state;
        s.turn = Some(next(&mut used.state.lock().edge(&0).turns.0));
        t.send_step(&mut used.state.lock(), &used, &0, &1, &mut s, None);
        assert_eq!(t.try_recv(&1, &0), Ok(Some(7)));
        let mut left = t.admit_send(&0, &1, 8).ok().unwrap().state;
        t.send_step(&mut used.state.lock(), &used, &0, &1, &mut left, None);
        {
            let st = used.state.lock();
            let e = &st.edges[&0];
            assert!(e.deposit.is_some() && e.acks == 1 && e.turns == (1, 0));
            assert!(e.chaos_seq == 2 && e.rdv_seq == 1);
        }
        let old = [Arc::as_ptr(&used), Arc::as_ptr(&t.lookup(&0).unwrap())];
        drop(used);
        assert!(t.recycle(false, Some(1)));
        t.activate(1);
        let ep = t.lookup(&1).unwrap();
        let mut st = ep.state.lock();
        assert_eq!((st.edges.len(), st.deposits), (0, 0));
        let e = st.edge(&0);
        assert!(e.deposit.is_none());
        assert_eq!((e.acks, e.turns, e.chaos_seq, e.rdv_seq), (0, (0, 0), 0, 0));
        drop(st);
        assert!(
            old.contains(&Arc::as_ptr(&ep)),
            "a spare endpoint was reused"
        );
    }

    /// A new fault plan starts every edge's send counter from zero and
    /// leaves the edge's other counters alone.
    #[test]
    fn a_new_fault_plan_zeroes_every_edge_chaos_counter() {
        let t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(1));
        for id in [0, 1, 2] {
            t.activate(id);
        }
        let plan = FaultPlan::new(1).with_delay(1.0, Duration::ZERO);
        t.set_fault_plan(plan.clone(), |m| *m);
        let ep = t.lookup(&1).unwrap();
        for (from, sends) in [(0, 3), (2, 2)] {
            for _ in 0..sends {
                t.admit_send(&from, &1, 7).ok().unwrap();
            }
        }
        let mut s = sending(9);
        t.send_step(&mut ep.state.lock(), &ep, &0, &1, &mut s, None);
        assert_eq!(t.try_recv(&1, &0), Ok(Some(9)));
        let counts = || {
            let st = ep.state.lock();
            let mut c: Vec<_> = st
                .edges
                .iter()
                .map(|(id, e)| (*id, e.chaos_seq, e.acks))
                .collect();
            c.sort_unstable();
            c
        };
        assert_eq!(counts(), [(0, 3, 1), (2, 2, 0)]);
        t.set_fault_plan(plan, |m| *m);
        assert_eq!(counts(), [(0, 0, 1), (2, 0, 0)]);
    }

    /// `observe` merges: installing only a latency observer leaves the
    /// installed rendezvous observer firing, and until a latency
    /// observer is installed no operation reads the clock.
    #[test]
    fn observing_one_slot_leaves_the_others_installed() {
        let t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(1));
        for id in [0, 1] {
            t.activate(id);
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        t.observe(Observers {
            rendezvous: Some((
                Arc::new(move |rec| sink.lock().unwrap().push(format!("rendezvous {}", rec.seq))),
                |_| None,
            )),
            ..Observers::default()
        });
        assert_eq!(t.observers.start(), None, "no latency observer, no clock");
        let sink = Arc::clone(&seen);
        t.observe(Observers {
            latency: Some(Arc::new(move |sample| {
                sink.lock().unwrap().push(format!("{:?}", sample.op))
            })),
            ..Observers::default()
        });
        assert!(t.observers.start().is_some());
        let later = Some(Instant::now() + Duration::from_secs(10));
        let rx = thread::scope(|scope| {
            let rx = scope.spawn(|| t.select(&1, vec![Arm::Recv(Source::Any)], later));
            assert_eq!(t.send(&0, &1, 9, later), Ok(()));
            rx.join().unwrap()
        });
        assert!(matches!(rx, Ok(Outcome::Received { msg: 9, .. })));
        let mut seen = seen.lock().unwrap().clone();
        seen.sort();
        assert_eq!(seen, ["Select", "Send", "rendezvous 0"]);
    }

    /// The park-publish order, with the interleaving forced by the two
    /// locks themselves: a driver is let into the endpoint only once
    /// the test holds the scheduler's queue, so it must stop inside its
    /// park — holding the endpoint (registration not yet visible), or,
    /// were the op published only after that lock dropped, in exactly
    /// the window where a bump readies a token that has no op. There a
    /// second driver would pop the token, skip it, and the op would be
    /// parked forever; here the test looks into the window instead.
    #[test]
    fn park_publishes_the_op_with_its_waiter() {
        let t: Arc<ShardedTransport<u8, u32>> = Arc::new(ShardedTransport::new(false, Some(1)));
        for id in [0, 1] {
            t.activate(id);
        }
        let sched = Arc::clone(ShardedTransport::scheduler(&t));
        let ep = t.lookup(&1).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        // Deposits, finds nobody receiving, parks to await pickup.
        Transport::submit_send(Arc::clone(&t), &0, &1, 9, None, sent_to(done_tx)).unwrap();
        // A wakeup with nothing behind it: the scheduler thread takes
        // the op off the table to step it, and stops at the gate.
        let mut gate = ep.state.lock();
        gate.bump_signal();
        let q = loop {
            let q = sched.queue.lock();
            if q.ops.is_empty() && q.ready.is_empty() {
                break q;
            }
            drop(q);
            thread::yield_now();
        };
        drop(gate);
        // The step finds the send still unacknowledged and parks it
        // again, which cannot finish while `q` is held. Whenever the
        // endpoint can be had meanwhile, a waiter there has its op.
        let until = Instant::now() + Duration::from_millis(100);
        while Instant::now() < until {
            if let Some(st) = ep.state.try_lock() {
                for (token, _) in &st.op_waiters {
                    assert!(
                        q.ops.contains_key(token),
                        "a bump now would ready token {token}, which has no op"
                    );
                }
            }
            thread::yield_now();
        }
        drop(q);
        let got = t.select(&1, vec![Arm::Recv(Source::Of(0))], None).unwrap();
        assert!(matches!(got, Outcome::Received { msg: 9, .. }));
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the parked send was readied and completed")
            .unwrap();
    }

    /// The claim, hand-driven: `b`'s offers are published by no thread
    /// at all, so nothing can pick the message up, and a blocking send
    /// still returns — the commitment is the event. The record is made
    /// there, and `b`'s next step honors the claim over an abort. A send
    /// with a chaos duplicate planned keeps both phases.
    #[test]
    fn blocking_send_claims_a_committed_receiver() {
        let soon = || Some(Instant::now() + Duration::from_millis(200));
        let committed = |plan: Option<FaultPlan>| {
            let t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(1));
            for id in [0, 1] {
                t.activate(id);
            }
            if let Some(plan) = plan {
                t.set_fault_plan(plan, |m| *m);
            }
            let records = Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = Arc::clone(&records);
            t.observe(Observers {
                rendezvous: Some((
                    Arc::new(move |rec| sink.lock().unwrap().push(rec.clone())),
                    |_| None,
                )),
                ..Observers::default()
            });
            let arms = vec![Arm::Recv(Source::Any)];
            let (ep, peers) = t.prepare_select(&1, &arms).unwrap();
            t.publish_offers(&ep, &arms);
            (t, ep, arms, peers, records)
        };

        let (t, ep, mut arms, peers, records) = committed(None);
        assert_eq!(t.send(&0, &1, 9, soon()), Ok(()));
        assert!(deposited(&t, 1, 0), "claimed, not yet picked up");
        assert_eq!(records.lock().unwrap().len(), 1, "recorded at the claim");
        t.abort();
        let SelectStep::Done(got) = t.select_step(&1, &ep, &mut arms, &peers, None) else {
            panic!("a claimed receiver has a message to take");
        };
        assert!(matches!(
            got,
            Ok(Outcome::Received {
                from: 0,
                msg: 9,
                ..
            })
        ));
        assert_eq!(records.lock().unwrap().len(), 1, "and not at the pickup");

        let (t, _ep, _arms, _peers, records) =
            committed(Some(FaultPlan::new(1).with_duplicate(1.0)));
        assert_eq!(t.send(&0, &1, 9, soon()), Err(ChanError::Timeout));
        assert!(!deposited(&t, 1, 0), "the deposit is reclaimed");
        assert!(records.lock().unwrap().is_empty());
    }

    /// A message that logs its own drop.
    #[derive(Debug)]
    struct Counted(u32, Arc<std::sync::Mutex<Vec<u32>>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.lock().unwrap().push(self.0);
        }
    }

    /// A selection over lent arms: the fired send arm's message leaves
    /// the list for the receiver committed to it, a receive taking its
    /// slot, and the unfired send arm's message stays with the caller
    /// until the caller lets go of it.
    #[test]
    fn a_fired_send_arm_leaves_the_lent_list_and_the_rest_stay() {
        let dropped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let msg = |v| Counted(v, Arc::clone(&dropped));
        let t: ShardedTransport<u8, Counted> = ShardedTransport::new(false, Some(1));
        for id in [0, 1, 2] {
            t.activate(id);
        }
        {
            // 1 is committed to a receive from anyone; 2 receives nothing.
            let offered = [Arm::Recv(Source::Any)];
            let (ep, _peers) = t.prepare_select(&1, &offered).unwrap();
            t.publish_offers(&ep, &offered);
        }
        let mut arms = [Arm::send(2, msg(20)), Arm::send(1, msg(10))];
        let soon = Some(Instant::now() + Duration::from_millis(200));
        let got = t.select_in(&0, &mut arms, soon);
        assert!(
            matches!(got, Ok(Outcome::Sent { arm: 1, to: 1 })),
            "{got:?}"
        );
        assert!(matches!(arms[1], Arm::Recv(Source::Any)), "{:?}", arms[1]);
        assert!(matches!(
            &arms[0],
            Arm::Send {
                to: 2,
                msg: Counted(20, _)
            }
        ));
        assert!(dropped.lock().unwrap().is_empty(), "1's edge holds 10");
        drop(arms);
        assert_eq!(*dropped.lock().unwrap(), [20]);
        drop(t);
        assert_eq!(*dropped.lock().unwrap(), [20, 10]);
    }

    /// Whether a selection sleeps on `ep`: its wants are published and
    /// a thread is inside the condvar's wait — read under the lock it
    /// waits with, which it let go of only by waiting.
    #[cfg(debug_assertions)]
    fn asleep(ep: &Endpoint<u8, u32>) -> bool {
        let st = ep.state.lock();
        st.wait.is_some() && ep.cond.waiters() == 1
    }

    /// A finish notifies the selections whose arms name the finished
    /// role and leaves the others asleep: here a receive from 0 sleeps
    /// through the finish of 1, which a selection watching 1 is woken
    /// for. Read off the condvars' wake counts.
    #[test]
    #[cfg(debug_assertions)]
    fn a_finish_wakes_only_the_selections_naming_the_finished_role() {
        let t: Arc<ShardedTransport<u8, u32>> = Arc::new(ShardedTransport::new(false, Some(1)));
        for id in [0, 1, 2, 3] {
            t.activate(id);
        }
        let later = Some(Instant::now() + Duration::from_secs(10));
        let select = |me: u8, arms: Vec<Arm<u8, u32>>| {
            let t = Arc::clone(&t);
            thread::spawn(move || t.select(&me, arms, later))
        };
        let recv = select(2, vec![Arm::recv_from(0)]);
        let watch = select(3, vec![Arm::recv_from(0), Arm::watch(1)]);
        let (recv_ep, watch_ep) = (t.lookup(&2).unwrap(), t.lookup(&3).unwrap());
        while !(asleep(&recv_ep) && asleep(&watch_ep)) {
            thread::yield_now();
        }
        let (recv_wakes, watch_wakes) = (recv_ep.cond.wakes(), watch_ep.cond.wakes());
        t.finish(1);
        assert_eq!(recv_ep.cond.wakes(), recv_wakes, "recv_from(0) names no 1");
        assert_eq!(watch_ep.cond.wakes(), watch_wakes + 1, "watch(1) does");
        assert_eq!(
            watch.join().unwrap(),
            Ok(Outcome::Terminated { arm: 1, peer: 1 })
        );
        // A run of declarations concerns nobody; a message does.
        t.declare(9);
        assert_eq!(recv_ep.cond.wakes(), recv_wakes);
        t.send(&0, &2, 7, later).unwrap();
        assert_eq!(
            recv.join().unwrap(),
            Ok(Outcome::Received {
                arm: 0,
                from: 0,
                msg: 7
            })
        );
    }

    /// A finish landing between a selection's scan and its park — the
    /// scan done, its wants not yet published, so the wake pass finds
    /// no wait naming the finished role — wakes nobody, as nobody
    /// sleeps, but still moves the eventcount: the park's check sends
    /// the selection back to rescan, and the rescan sees the finish.
    #[test]
    fn a_finish_between_a_scan_and_its_park_is_not_lost() {
        let t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(1));
        for id in [0, 1] {
            t.activate(id);
        }
        let mut arms = vec![Arm::watch(1)];
        let (ep, peers) = t.prepare_select(&0, &arms).unwrap();
        // `select_step` up to its park, by hand.
        let (sig0, claimed) = t.take_claim(&ep, &arms);
        assert!(claimed.is_none());
        assert!(matches!(t.scan_arms(&0, &ep, &mut arms, &peers), Ok(None)));
        t.finish(1);
        t.publish_offers(&ep, &arms);
        assert_ne!(ep.state.lock().signal, sig0, "the park's check rescans");
        let SelectStep::Done(got) = t.select_step(&0, &ep, &mut arms, &peers, None) else {
            panic!("the rescan sees 1 finished");
        };
        assert_eq!(got, Ok(Outcome::Terminated { arm: 0, peer: 1 }));
    }

    /// A blocking send to a receiver that is not committed deposits and
    /// must await the pickup: it wakes the receiver's condvar with the
    /// lock let go — the shim's assertion is live in a debug build — and
    /// steps again before it waits, so the pickup completes it however
    /// the two interleave. A second sender asleep on the same condvar
    /// makes the notify a real one.
    #[test]
    fn a_deposit_awaiting_its_pickup_wakes_the_receiver_unlocked() {
        let t: Arc<ShardedTransport<u8, u32>> = Arc::new(ShardedTransport::new(false, Some(1)));
        for id in [0, 1, 2] {
            t.activate(id);
        }
        let later = Some(Instant::now() + Duration::from_secs(10));
        let send = |from: u8, msg: u32| {
            let t = Arc::clone(&t);
            thread::spawn(move || t.send(&from, &1, msg, later))
        };
        let first = send(2, 20);
        let ep = t.lookup(&1).unwrap();
        while !deposited(&t, 1, 2) {
            thread::yield_now();
        }
        let second = send(0, 10);
        for (from, msg) in [(0, 10), (2, 20)] {
            let got = loop {
                if let Some(got) = t.try_recv(&1, &from).unwrap() {
                    break got;
                }
                thread::yield_now();
            };
            assert_eq!(got, msg);
        }
        assert_eq!(second.join().unwrap(), Ok(()));
        assert_eq!(first.join().unwrap(), Ok(()));
        assert_eq!(ep.state.lock().deposits, 0);
    }

    /// A completed op's deadline stays in `timers` until it is due;
    /// the purge keeps a long run of far-deadline ops from growing the
    /// set by one dead entry per op.
    #[test]
    fn dead_timers_are_purged() {
        let t: Arc<ShardedTransport<u8, u32>> = Arc::new(ShardedTransport::new(false, Some(1)));
        for id in [0, 1] {
            t.activate(id);
        }
        let far = Some(Instant::now() + Duration::from_secs(30));
        let sched = Arc::clone(ShardedTransport::scheduler(&t));
        let mut most = 0;
        let (ok_tx, ok_rx) = std::sync::mpsc::channel();
        for v in 0..10_000 {
            // Parks awaiting pickup, deadline armed.
            Transport::submit_send(Arc::clone(&t), &0, &1, v, far, sent_to(ok_tx.clone())).unwrap();
            let got = t.select(&1, vec![Arm::Recv(Source::Of(0))], far).unwrap();
            assert!(matches!(got, Outcome::Received { msg, .. } if msg == v));
            // The bound held when the entry went in, one op parked.
            let q = sched.queue.lock();
            assert!(
                q.timers.len() <= 2 * (q.ops.len() + 1) + TIMER_SLACK,
                "{} timers for {} parked ops",
                q.timers.len(),
                q.ops.len()
            );
            most = most.max(q.timers.len());
        }
        assert!(most > TIMER_SLACK, "dead entries did pile up to the slack");
        ok_rx.iter().take(10_000).for_each(|r| r.unwrap());
        // A purge never takes a live op's timer: this one still fires.
        let (tx, rx) = std::sync::mpsc::channel();
        Transport::submit_send(
            Arc::clone(&t),
            &0,
            &1,
            0,
            Some(Instant::now() + Duration::from_millis(30)),
            sent_to(tx),
        )
        .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Err(ChanError::Timeout)
        );
    }

    /// The arms a transport's fair choice picks, 32 times: `0` watches
    /// eight finished peers, every arm ready at once.
    fn draws(t: &ShardedTransport<u8, u32>) -> Vec<usize> {
        t.activate(0);
        for id in 1..=8 {
            t.finish(id);
        }
        let arms = || (1..=8).map(Arm::watch).collect::<Vec<_>>();
        (0..32)
            .map(|_| t.select(&0, arms(), None).unwrap().arm())
            .collect()
    }

    /// A recycled transport is a new one: no peer, not aborted, and
    /// its reused endpoints draw the selections a new transport's
    /// endpoints draw from the same seed.
    #[test]
    fn a_seeded_recycled_transport_draws_as_a_new_one() {
        let mut t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(3));
        let first = draws(&t);
        t.abort();
        assert!(t.recycle(false, Some(7)));
        assert!(!t.is_aborted());
        assert_eq!(t.peer_state(&0), None);
        assert_eq!(t.spare.lock().len(), 9, "every endpoint kept");
        let fresh = draws(&ShardedTransport::new(false, Some(7)));
        assert_eq!(draws(&t), fresh);
        assert!(t.spare.lock().is_empty(), "taken before allocating");
        assert_ne!(first, fresh, "the seed decides the draws");
    }

    /// A scheduler holds its transport weakly, so a transport that ever
    /// ran a submitted operation is not recycled, and is left as it was.
    #[test]
    fn recycle_refuses_after_a_submitted_op() {
        let t: Arc<ShardedTransport<u8, u32>> = Arc::new(ShardedTransport::new(false, Some(1)));
        for id in [0, 1] {
            t.activate(id);
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        Transport::submit_send(Arc::clone(&t), &0, &1, 9, None, sent_to(done_tx)).unwrap();
        let got = t.select(&1, vec![Arm::Recv(Source::Of(0))], None).unwrap();
        assert!(matches!(got, Outcome::Received { msg: 9, .. }));
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap();
        // The scheduler thread, if it started, upgrades only to step.
        let mut t = Arc::try_unwrap(t);
        let mut t = loop {
            match t {
                Ok(t) => break t,
                Err(back) => {
                    thread::yield_now();
                    t = Arc::try_unwrap(back);
                }
            }
        };
        assert!(!t.recycle(false, Some(1)));
        assert_eq!(t.peer_state(&0), Some(PeerState::Active));
    }

    /// An endpoint somebody still holds is dropped from the table, not
    /// emptied and handed to a peer of the next run.
    #[test]
    fn an_endpoint_still_held_is_not_reused() {
        let mut t: ShardedTransport<u8, u32> = ShardedTransport::new(false, Some(1));
        for id in [0, 1] {
            t.activate(id);
        }
        let held = t.lookup(&0).unwrap();
        let free = Arc::as_ptr(&t.lookup(&1).unwrap());
        assert!(t.recycle(false, Some(1)));
        assert_eq!(t.spare.lock().len(), 1);
        for id in [0, 1] {
            t.activate(id);
        }
        let (zero, one) = (t.lookup(&0).unwrap(), t.lookup(&1).unwrap());
        assert!(!Arc::ptr_eq(&held, &zero) && !Arc::ptr_eq(&held, &one));
        assert!([Arc::as_ptr(&zero), Arc::as_ptr(&one)].contains(&free));
        assert_eq!(held.life.load(Ordering::SeqCst), LIFE_ACTIVE, "untouched");
    }

    /// A large open family leaves at most `RECYCLED` spare endpoints and
    /// a registry table with room for about as many; small runs after it
    /// keep it so.
    #[test]
    fn a_large_family_leaves_a_bounded_spare() {
        let mut t: ShardedTransport<u32, u32> = ShardedTransport::new(true, Some(1));
        for id in 0..1_000 {
            t.activate(id);
        }
        for run in 0..4 {
            assert!(t.recycle(true, Some(run)));
            assert!(t.spare.lock().len() <= RECYCLED);
            assert!(t.registry().capacity() <= 2 * RECYCLED);
            for id in 0..4 {
                t.activate(id);
            }
        }
        assert_eq!(t.spare.lock().len(), RECYCLED - 4);
    }
}
