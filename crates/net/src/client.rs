//! The socket-backed [`Transport`]: a pipelined framed-RPC client with
//! sessions.
//!
//! A [`SocketTransport`] implements the full [`Transport`] contract by
//! forwarding every operation to a [`TransportServer`](crate::TransportServer)
//! hub over one multiplexed TCP connection, dialed lazily by the first
//! operation and redialed under a [`RetryPolicy`]. DESIGN.md §10 ("The
//! spoke", "Sessions") is the full account; in short:
//!
//! * **Pipelined.** Every request carries a correlation id and parks in
//!   `pending` until answered, in whatever order the hub's rendezvous
//!   fire. Writers coalesce: whoever flushes writes everything queued.
//! * **Posted and called.** A command whose only answer is
//!   [`Resp::Unit`] (`Cast`, `Abort`, `Reseed`, `SetFaultPlan`,
//!   `ClearFaultPlan`, the first `SubscribeFrom`) is *posted*: on the
//!   socket when the call returns, applied by the hub before anything
//!   sent after it, its answer awaited by nobody. Someone who reaches
//!   the hub another way first makes a query on the posting spoke.
//!   Everything else is *called*, the lifecycle reads a watchdog polls
//!   (`IsAborted`, `PeerStateOf`, `Activity`) included: a call waits
//!   out a blip and gets the hub's answer.
//! * **No thread of its own.** The read side is a source on the
//!   process's one `script-net-io` thread ([`reactor`]), which routes
//!   answers and events and heartbeats; dial, hello and back-off block
//!   and run on callers' threads, or on one short-lived
//!   `script-net-redial` thread after an unannounced loss.
//! * **Observers must not block.** They run on `script-net-io`: one that
//!   calls back into any socket transport of the process waits for an
//!   answer only its own thread can read. One that panics kills its
//!   spoke only.
//! * **Sessions.** A dropped connection is a blip: the spoke resumes its
//!   hub session ([`Req::HelloResume`]) and replays every durable
//!   request, typed, in id order; the hub answers what it applied
//!   already from its replay cache, so nothing applies twice. Only a
//!   dead session — expired, [`Event::Closing`], redial budget spent,
//!   or closed — surfaces as peer loss: [`ChanError::all_arms_dead`] /
//!   `Terminated`, "gone" lifecycle answers, a frozen `activity`.
//!   A resume is progress: `activity` adds the spoke's count of
//!   connections to the hub's counter.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use script_chan::{
    Arm, CastStep, ChanError, FaultPlan, LatencyOp, ObserverSlots, Observers, Outcome, PeerState,
    SessionEvent, Transport,
};
use script_core::RetryPolicy;

use crate::frame::{FrameDecoder, ReadStatus, WriteBuf};
use crate::proto::{bind, timeout_ms_of, Event, Req, Resp, StreamItem, EVENT_REQ_ID};
use crate::reactor::{self, fd_of, Cause, Io, Source, Turn};
use crate::wire::{Reader, Wire, MAX_FRAME};

/// Answered frames after which the spoke acknowledges early — a
/// [`Req::Heartbeat`] ahead of the quarter-lease clock — so the hub's
/// replay cache holds at most this many answers plus those in flight.
pub const ACK_EVERY: usize = 256;

/// How a spoke reaches its hub: a direct address plus an optional
/// relay fallback through a fleet address.
///
/// Federation hands each participant a
/// [`PerfDescriptor`](crate::PerfDescriptor) naming the performance's
/// home node; the spoke dials that address **directly** and, when the
/// direct dial fails (NAT, firewall, injected fault), falls back to a
/// byte-splicing relay through the fleet ([`crate::fleet::relay_connect`]).
/// The plan applies to *every* dial, including session-resume redials,
/// so a spoke can heal onto the relay path mid-performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DialPlan {
    /// The hub (home node) to reach.
    pub direct: SocketAddr,
    /// A fleet address to relay through when the direct dial fails.
    pub relay_via: Option<SocketAddr>,
    /// Skip the direct dial entirely and go straight to the relay —
    /// the NAT-less test environment's stand-in for an unreachable
    /// peer (fault injection).
    pub force_relay: bool,
}

impl DialPlan {
    /// A plan that only dials `direct` (the classic hub/spoke path).
    pub fn direct(direct: SocketAddr) -> Self {
        Self {
            direct,
            relay_via: None,
            force_relay: false,
        }
    }

    /// Adds a relay fallback through the fleet address `via`.
    #[must_use]
    pub fn with_relay(mut self, via: SocketAddr) -> Self {
        self.relay_via = Some(via);
        self
    }

    /// Forces every dial through the relay (fault injection).
    #[must_use]
    pub fn with_forced_relay(mut self) -> Self {
        self.force_relay = true;
        self
    }
}

/// Response slot for one in-flight request.
struct Slot<I, M> {
    state: Mutex<SlotState<I, M>>,
    cond: Condvar,
}

enum SlotState<I, M> {
    Waiting,
    /// The request left `pending`, and goes back to its caller with its
    /// answer — `None` if it will never be answered (session death).
    Settled(Option<Resp<I, M>>, Req<I, M>),
    /// The waiter took the answer: whoever filled the slot has nothing
    /// left to do with it but let go of it.
    Taken,
}

impl<I, M> Slot<I, M> {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Waiting),
            cond: Condvar::new(),
        }
    }

    fn fill(&self, value: SlotState<I, M>) {
        let mut st = self.state.lock();
        if matches!(*st, SlotState::Waiting) {
            *st = value;
            // Unlock, then notify: the waiter usually preempts the I/O
            // thread the moment it is woken, and must find the lock
            // free.
            drop(st);
            self.cond.notify_all();
        }
    }

    /// Blocks until settled; a `None` answer means the request is lost.
    fn wait(&self) -> (Option<Resp<I, M>>, Req<I, M>) {
        let mut st = self.state.lock();
        loop {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Settled(resp, req) => return (resp, req),
                unfilled => {
                    *st = unfilled;
                    self.cond.wait(&mut st);
                }
            }
        }
    }
}

thread_local! {
    /// The calling thread's answer slot (see [`caller_slot`]), as `Any`:
    /// a thread may call spokes of any `I` and `M`.
    static CALLER_SLOT: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// The slot a caller waits in for its answer: its thread's own, reused,
/// as a thread waits for one answer at a time. A call waits until its
/// answer is taken, so the kept slot reads [`SlotState::Taken`] — whoever
/// filled it may hold it a moment longer, but only to let go. One that
/// does not belongs to a call unwound before its answer came, which a
/// late fill could still reach: it is replaced.
fn caller_slot<I: 'static, M: 'static>() -> Arc<Slot<I, M>> {
    let take = |cell: &RefCell<Option<Box<dyn Any>>>| {
        let mut cell = cell.borrow_mut();
        if let Some(kept) = cell
            .as_mut()
            .and_then(|b| b.downcast_mut::<Arc<Slot<I, M>>>())
        {
            let mut st = kept.state.lock();
            if matches!(*st, SlotState::Taken) {
                *st = SlotState::Waiting;
                drop(st);
                return Arc::clone(kept);
            }
        }
        let slot = Arc::new(Slot::new());
        *cell = Some(Box::new(Arc::clone(&slot)));
        slot
    };
    CALLER_SLOT
        .try_with(take)
        .unwrap_or_else(|_| Arc::new(Slot::new()))
}

/// Largest encoded [`Req::Cast`] frame a spoke sends; a longer run is
/// cut into several (see [`Shared::cast`]).
const CAST_FRAME_MAX: usize = MAX_FRAME;

thread_local! {
    /// Where the calling thread measures a cast run's frame, kept from
    /// run to run as [`CALLER_SLOT`] is.
    static CAST_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Whether one `(req_id, Req::Cast)` frame carries `steps` within
/// [`CAST_FRAME_MAX`].
fn cast_fits<I: Wire>(steps: &[CastStep<I>]) -> bool {
    let fits = |out: &mut Vec<u8>| {
        out.clear();
        Req::<I, ()>::encode_cast(steps, out);
        8 + out.len() <= CAST_FRAME_MAX
    };
    CAST_SCRATCH
        .try_with(|scratch| fits(&mut scratch.borrow_mut()))
        .unwrap_or_else(|_| fits(&mut Vec::new()))
}

/// Posts a spoke lets go unanswered before the next one waits for its
/// own answer, which the hub sends behind theirs: `pending` is bounded.
const POSTED_MAX: usize = 64;

/// Spare arm lists a spoke keeps, each with room for at most
/// [`SPARE_ROOM`] arms.
const SPARE_LISTS: usize = 8;
const SPARE_ROOM: usize = 64;

/// One queued request: the typed request is kept, and encoded again
/// when a reconnect replays it — the same bytes under the same request
/// id, which the hub's exactly-once table dedups.
struct PendingEntry<I, M> {
    req: Req<I, M>,
    /// Where a caller waits for the answer; a posted request has none.
    slot: Option<Arc<Slot<I, M>>>,
}

/// The coalescing write side of one connection: producers append frames
/// under the buffer lock, and whoever wins the flush lock writes
/// *everything* accumulated — theirs and every other producer's — in
/// one syscall. Losers of the flush race find the buffer already empty
/// and return without writing at all.
struct ConnTx {
    /// Write handle; reads use a separate clone. Blocking through the
    /// handshake, nonblocking once the read side is on the I/O thread
    /// (the mode belongs to the socket, not the handle).
    stream: TcpStream,
    buf: Mutex<WriteBuf>,
    /// Serializes actual socket writes; deliberately distinct from
    /// `buf` so producers can keep queueing while a flush is on the
    /// wire. Holds the buffer being written — empty between flushes,
    /// its allocation kept: a flush swaps it with `buf`.
    flush: Mutex<WriteBuf>,
    /// The transport's outbound byte counter (frame bytes including
    /// the length prefix) — the data-plane evidence federation tests
    /// audit.
    bytes_out: Arc<AtomicU64>,
}

impl ConnTx {
    /// Queues one `(req_id, req)` frame, encoded straight into the
    /// buffer. Returns `false` for a frame no connection could carry.
    fn queue<I: Wire, M: Wire>(&self, req_id: u64, req: &Req<I, M>) -> bool {
        let pushed = self.buf.lock().push_with(|out| {
            req_id.encode(out);
            req.encode(out);
        });
        let count = |bytes| self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
        pushed.map(count).is_ok()
    }

    /// Flushes whatever the buffer holds. Returns `false` on write
    /// failure — the connection is done for.
    fn flush(&self) -> bool {
        let mut out = self.flush.lock();
        loop {
            {
                let mut b = self.buf.lock();
                if b.is_empty() {
                    // A racing producer flushed our frame along with
                    // its own: one combined write covered both.
                    return true;
                }
                std::mem::swap(&mut *b, &mut *out);
            }
            let mut w = &self.stream;
            loop {
                match out.flush_to(&mut w) {
                    Ok(true) => break,
                    // The kernel's buffer is full: wait for room here,
                    // on the caller's thread; bytes stay queued in
                    // `out`.
                    Ok(false) => reactor::wait_writable(fd_of(&self.stream)),
                    Err(_) => return false,
                }
            }
        }
    }

    /// The I/O thread's write: queues one frame and hands the socket
    /// what it takes right now, never waiting. Whatever stays behind —
    /// a caller is mid-flush, or the kernel's buffer is full — rides
    /// the next flush. Returns `false` on write failure.
    fn push_now<I: Wire, M: Wire>(&self, req_id: u64, req: &Req<I, M>) -> bool {
        if !self.queue(req_id, req) {
            return false;
        }
        let Some(_g) = self.flush.try_lock() else {
            return true;
        };
        self.buf.lock().flush_to(&mut &self.stream).is_ok()
    }
}

/// One live connection; all durable state lives in [`Shared`].
struct ConnShared {
    tx: ConnTx,
    /// Kept to sever the socket on close/drop (and to make the I/O
    /// thread see the end when a writer discovers the death first).
    stream: TcpStream,
    alive: AtomicBool,
    /// Which of the session's connections this is, counting from 1 (see
    /// [`Shared::conn_epoch`]).
    epoch: u64,
}

/// State shared between the transport facade, its connection's source
/// on the I/O thread, and a redial thread.
struct Shared<I, M> {
    plan: DialPlan,
    retry: RetryPolicy,
    /// Frame bytes written to the hub (including length prefixes).
    bytes_out: Arc<AtomicU64>,
    /// Frame bytes read from the hub (including length prefixes).
    bytes_in: AtomicU64,
    /// Connections that had to fall back to the relay path.
    relay_dials: AtomicU64,
    state: Mutex<Option<Arc<ConnShared>>>,
    /// Terminal: session expired, redial budget exhausted, or closed
    /// (`close` and drop die first, so nobody redials).
    dead: AtomicBool,
    /// The hub announced shutdown ([`Event::Closing`]): terminal once
    /// the connection drains — no redial storm against a dead address.
    closing: AtomicBool,
    /// Last `activity` answer: frozen on death so watchdogs detect the
    /// wedge.
    last_activity: AtomicU64,
    /// Request ids start at 1; 0 is the event-frame marker.
    next_req: AtomicU64,
    /// Every un-acked request, keyed by id, replayed on reconnect.
    pending: Mutex<HashMap<u64, PendingEntry<I, M>>>,
    /// Entries of `pending` that were posted; at most [`POSTED_MAX`].
    posted: AtomicUsize,
    /// Emptied arm lists of answered selections, for the next ones'
    /// requests to carry; a list without room is an empty place.
    spare_arms: Mutex<[Vec<Arm<I, M>>; SPARE_LISTS]>,
    /// Hub-issued session id; 0 until the first handshake completes.
    session: AtomicU64,
    /// Hub-granted lease in milliseconds; paces the heartbeat.
    lease_ms: AtomicU64,
    /// High-water mark of delivered sequenced events: resume point for
    /// `SubscribeFrom` and exactly-once dispatch guard.
    last_event_seq: AtomicU64,
    /// Fault and rendezvous records arrive on the event stream; session
    /// events are this spoke's own; latency is measured client-side:
    /// the RPC round trip *includes* the hub-side rendezvous wait, so
    /// hub time is attributed to the performance whose operation paid
    /// for it — no wire changes.
    observers: ObserverSlots<I, M>,
    /// Ids this spoke has activated and not finished — the ids the
    /// session events announce. An id enters once its `Activate` is on
    /// the socket: whatever the spoke sends next is behind it, and the
    /// hub's registry only grows, so [`Transport::ensure_peer`] for it
    /// needs no round trip.
    bound: Mutex<Vec<I>>,
    /// Snapshot of `bound` taken when the connection died, so the
    /// matching `PeerResumed`/`LeaseExpired` events announce exactly
    /// the ids whose `PeerDisconnected` was announced — even if roles
    /// finish (or activate) while severed.
    severed: Mutex<Vec<I>>,
    subscribed: AtomicBool,
    /// Connections handshaken so far. A connection whose epoch is
    /// behind was replaced already: its end is old news and announces
    /// no disconnect — read without the `state` lock, which a dial
    /// holds for as long as it takes and the I/O thread must not wait
    /// for.
    conn_epoch: AtomicU64,
}

/// How a handshake attempt ended.
enum Handshake {
    /// The connection, its read handle and its decoder, for the I/O
    /// thread.
    Ready(Arc<ConnShared>, TcpStream, FrameDecoder),
    /// The hub no longer knows our session: terminal.
    Expired,
    /// Resume refused while a partition embargo holds: stand off.
    Partitioned(Duration),
    /// I/O failure mid-handshake: retriable.
    Failed,
}

impl<I, M> Shared<I, M> {
    /// Terminal transition: marks the session dead and fails every
    /// queued request. Idempotent — close racing reconnect racing drop
    /// resolves to exactly one death.
    fn die(&self) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        let drained: Vec<PendingEntry<I, M>> =
            self.pending.lock().drain().map(|(_, e)| e).collect();
        for e in drained {
            self.settle(e, None);
        }
    }

    /// Disposes of an entry that has left `pending`: its waiter gets
    /// `answer` and the request; a posted one has no waiter, and is
    /// counted out.
    fn settle(&self, entry: PendingEntry<I, M>, answer: Option<Resp<I, M>>) {
        match entry.slot {
            Some(slot) => slot.fill(SlotState::Settled(answer, entry.req)),
            None => drop(self.posted.fetch_sub(1, Ordering::SeqCst)),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

impl<I: Clone, M> Shared<I, M> {
    /// Snapshots the bound set as severed and emits
    /// [`SessionEvent::PeerDisconnected`] for every id in it.
    fn emit_severed(&self) {
        let snapshot = self.bound.lock().clone();
        *self.severed.lock() = snapshot.clone();
        for id in snapshot {
            self.observers.session(&SessionEvent::PeerDisconnected(id));
        }
    }

    /// Takes the severed snapshot and emits `make(id)` for every id in
    /// it — pairing each announced disconnect with exactly one resume
    /// or expiry, regardless of how `bound` changed in between.
    fn emit_healed(&self, make: fn(I) -> SessionEvent<I>) {
        let snapshot = std::mem::take(&mut *self.severed.lock());
        for id in snapshot {
            self.observers.session(&make(id));
        }
    }

    /// Terminal transition caused by lease expiry specifically: also
    /// surfaces [`SessionEvent::LeaseExpired`] for every severed id.
    fn die_expired(&self) {
        self.die();
        self.emit_healed(SessionEvent::LeaseExpired);
    }
}

impl<I, M> Shared<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Send + Sync + 'static,
{
    /// Handles one unsolicited event frame. Sequenced events advance
    /// the high-water mark and dispatch **exactly once** even when a
    /// resume replay races a stale delivery.
    fn process_event(&self, ev: Event<I>) {
        match ev {
            Event::SeqStream { first_seq, items } => {
                // A live push or the resume-replay tail: item `i` sits
                // at stream position `first_seq + i`, and only an item
                // past the high-water mark is dispatched.
                for (i, item) in items.into_iter().enumerate() {
                    let seq = first_seq + i as u64;
                    let prev = self.last_event_seq.fetch_max(seq, Ordering::SeqCst);
                    if seq > prev {
                        match item {
                            StreamItem::Fault(record) => self.observers.fault(&record),
                            StreamItem::Rendezvous(record) => self.observers.rendezvous(|_| record),
                        }
                    }
                }
            }
            Event::Closing => {
                // Fail fast: the hub is gone for good, so once the
                // connection drains the session dies instead of
                // redialing.
                self.closing.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Writes one `(req_id, req)` frame on a handshake-time connection
    /// (nothing else is queueing on it yet).
    fn write_req(&self, tx: &ConnTx, req: &Req<I, M>) -> Option<u64> {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        (tx.queue(req_id, req) && tx.flush()).then_some(req_id)
    }

    /// Reads frames until the answer for `want` arrives (used during
    /// the handshake, before the I/O thread owns the stream), routing
    /// the rest as the I/O thread would: events and answers to replayed
    /// requests that completed hub-side during the outage are delivered
    /// along the way. The I/O thread inherits `dec`, and what it holds.
    fn await_resp(
        &self,
        rd: &mut TcpStream,
        dec: &mut FrameDecoder,
        want: u64,
    ) -> Option<Resp<I, M>> {
        loop {
            let frame = dec.read_frame_from(rd).ok()??;
            if let Some(resp) = self.route(frame, Some(want))? {
                return Some(resp);
            }
        }
    }

    /// Parks one request in `pending` under a fresh id, and returns the
    /// id. `pending` keeps the typed request: transmission and replay
    /// both encode it from there. `slot` is where a caller will wait
    /// for the answer; a posted request has none.
    fn register(&self, req: Req<I, M>, slot: Option<Arc<Slot<I, M>>>) -> u64 {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let entry = PendingEntry { req, slot };
        self.pending.lock().insert(req_id, entry);
        req_id
    }

    /// Takes a request out of `pending`, if still there, and settles it.
    fn retire(&self, req_id: u64, answer: Option<Resp<I, M>>) {
        let entry = self.pending.lock().remove(&req_id);
        if let Some(e) = entry {
            self.settle(e, answer);
        }
    }

    /// Writes a registered request's frame to `conn`, encoded from the
    /// request `pending` holds. A request no longer pending was answered
    /// already (a handshake replays everything pending, which may
    /// include this one) and is skipped. On a failed write the
    /// connection is shut, which the I/O thread sees and answers with
    /// the redial-and-replay path.
    fn transmit(&self, conn: &ConnShared, req_id: u64) {
        let queued = match self.pending.lock().get(&req_id) {
            Some(e) => conn.tx.queue(req_id, &e.req),
            None => true,
        };
        if !(queued && conn.tx.flush()) {
            conn.alive.store(false, Ordering::SeqCst);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Sends a registered durable request. It survives connection
    /// loss: it is replayed on reconnect and answered at most once by
    /// the hub (replay-cache idempotence), so there is no separate
    /// retry loop — session replay *is* the retry path. `false` only on
    /// session death, with the request retired.
    fn launch(self: &Arc<Self>, req_id: u64) -> bool {
        // Death may have drained `pending` before the request went in;
        // checking after the insert closes the race.
        let conn = if self.is_dead() {
            None
        } else {
            self.ensure_conn()
        };
        match conn {
            Some((conn, dialed)) => {
                // A handshake this call ran has replayed everything
                // pending, this request included. And a failed write
                // is not a failed request: the entry stays queued for
                // the next replay.
                if !dialed {
                    self.transmit(&conn, req_id);
                }
                true
            }
            None => {
                self.retire(req_id, None);
                false
            }
        }
    }

    /// One durable RPC (see [`Shared::launch`]). `None` only on session
    /// death.
    fn call(self: &Arc<Self>, req: Req<I, M>) -> Option<Resp<I, M>> {
        self.exchange(req).0
    }

    /// [`Shared::call`], handing the request back with the answer (a
    /// failed launch has settled it already).
    fn exchange(self: &Arc<Self>, req: Req<I, M>) -> (Option<Resp<I, M>>, Req<I, M>) {
        let slot = caller_slot();
        self.launch(self.register(req, Some(Arc::clone(&slot))));
        slot.wait()
    }

    /// Sends a command without waiting for its answer (module docs):
    /// parked with no slot, launched exactly as a call's request is, and
    /// on the socket when this returns ([`ConnTx::flush`] writes before
    /// it returns). With [`POSTED_MAX`] posts unanswered it is a call.
    fn post(self: &Arc<Self>, req: Req<I, M>) {
        if self.posted.fetch_add(1, Ordering::SeqCst) >= POSTED_MAX {
            self.posted.fetch_sub(1, Ordering::SeqCst);
            self.call(req);
        } else {
            self.launch(self.register(req, None));
        }
    }

    /// One posted [`Req::Cast`] frame for the run: one request id, one
    /// `pending` entry, one recorded answer hub-side, so a run severed
    /// before its answer is replayed whole and applied exactly once. A
    /// run too long for one frame is halved at a step boundary until
    /// each part fits, the parts posted in order.
    fn cast(self: &Arc<Self>, steps: &[CastStep<I>]) {
        if steps.len() > 1 && !cast_fits(steps) {
            let (head, tail) = steps.split_at(steps.len() / 2);
            self.cast(head);
            self.cast(tail);
            return;
        }
        self.post(Req::Cast(steps.to_vec()));
    }

    /// Subscribes the session to the hub's sequenced event stream, the
    /// first time a fault or rendezvous observer is installed only: one
    /// subscription feeds both, and a resumed connection renews it in
    /// the handshake.
    fn subscribe(self: &Arc<Self>) {
        if !self.subscribed.swap(true, Ordering::SeqCst) {
            let seq = self.last_event_seq.load(Ordering::SeqCst);
            self.post(Req::SubscribeFrom { seq });
        }
    }

    /// Returns the live connection, (re)dialing + resuming if needed,
    /// and whether this call did. `None` means the session is dead.
    fn ensure_conn(self: &Arc<Self>) -> Option<(Arc<ConnShared>, bool)> {
        if self.is_dead() {
            return None;
        }
        let mut guard = self.state.lock();
        if let Some(c) = guard.as_ref() {
            if c.alive.load(Ordering::SeqCst) {
                return Some((Arc::clone(c), false));
            }
        }
        if self.is_dead() {
            return None;
        }
        match self.dial_and_handshake() {
            Some((conn, rd, dec)) => {
                *guard = Some(Arc::clone(&conn));
                reactor::register(
                    Box::new(SpokeIo {
                        shared: Arc::clone(self),
                        conn: Arc::clone(&conn),
                        rd,
                        dec,
                        next_hb: Instant::now() + self.quarter_lease(),
                        answered: 0,
                    }),
                    Arc::default(),
                );
                Some((conn, true))
            }
            None => {
                *guard = None;
                drop(guard);
                self.die();
                None
            }
        }
    }

    /// One dial attempt under the [`DialPlan`]: direct first, then —
    /// when a relay hub is configured — the relay fallback. A forced
    /// plan skips the direct attempt entirely.
    fn dial_once(&self) -> io::Result<TcpStream> {
        if !self.plan.force_relay {
            match TcpStream::connect(self.plan.direct) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if self.plan.relay_via.is_none() {
                        return Err(e);
                    }
                }
            }
        }
        let Some(via) = self.plan.relay_via else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "forced relay without a relay hub in the dial plan",
            ));
        };
        let stream = crate::fleet::relay_connect(&via.to_string(), &self.plan.direct.to_string())?;
        self.relay_dials.fetch_add(1, Ordering::Relaxed);
        Ok(stream)
    }

    /// Dials under the retry policy and completes the session
    /// handshake, standing off and retrying while the hub reports a
    /// partition embargo. Called with the `state` lock held.
    fn dial_and_handshake(self: &Arc<Self>) -> Option<(Arc<ConnShared>, TcpStream, FrameDecoder)> {
        for _ in 0..64 {
            if self.closing.load(Ordering::SeqCst) || self.is_dead() {
                return None;
            }
            let stream = self
                .retry
                .run_if(|_: &io::Error| true, |_| self.dial_once())
                .ok()?;
            let _ = stream.set_nodelay(true);
            match self.handshake(stream) {
                Handshake::Ready(conn, rd, dec) => return Some((conn, rd, dec)),
                Handshake::Expired => {
                    self.die_expired();
                    return None;
                }
                Handshake::Partitioned(remaining) => {
                    thread::sleep(
                        remaining.clamp(Duration::from_millis(5), Duration::from_secs(1)),
                    );
                }
                // The dial succeeded but the hub vanished mid-handshake:
                // brief pause, then re-enter the dial loop.
                Handshake::Failed => thread::sleep(Duration::from_millis(25)),
            }
        }
        None
    }

    /// Runs the hello exchange on a fresh stream: new session or
    /// resume, connection-scoped re-setup, and the pending replay. On
    /// success the socket goes nonblocking and its read handle is
    /// returned for the I/O thread to serve.
    fn handshake(self: &Arc<Self>, stream: TcpStream) -> Handshake {
        let (mut rd, w) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(r), Ok(w)) => (r, w),
            _ => return Handshake::Failed,
        };
        let tx = ConnTx {
            stream: w,
            buf: Mutex::new(WriteBuf::new()),
            flush: Mutex::new(WriteBuf::new()),
            bytes_out: Arc::clone(&self.bytes_out),
        };
        // Bounded handshake: a hub that accepts but never answers must
        // not wedge the dial loop.
        let _ = rd.set_read_timeout(Some(Duration::from_secs(5)));
        let sid = self.session.load(Ordering::SeqCst);
        let hello = if sid == 0 {
            Req::HelloNew
        } else {
            Req::HelloResume(sid)
        };
        let Some(hello_id) = self.write_req(&tx, &hello) else {
            return Handshake::Failed;
        };
        let mut dec = FrameDecoder::new();
        match self.await_resp(&mut rd, &mut dec, hello_id) {
            Some(Resp::Session { session, lease_ms }) => {
                self.session.store(session, Ordering::SeqCst);
                if lease_ms > 0 {
                    self.lease_ms.store(lease_ms, Ordering::SeqCst);
                }
                if sid == 0 {
                    // Event sequences are per-session: a fresh session
                    // restarts them at 1.
                    self.last_event_seq.store(0, Ordering::SeqCst);
                }
            }
            Some(Resp::SessionExpired) => return Handshake::Expired,
            Some(Resp::Partitioned { remaining_ms }) => {
                return Handshake::Partitioned(Duration::from_millis(remaining_ms));
            }
            _ => return Handshake::Failed,
        }
        if sid != 0 && self.subscribed.load(Ordering::SeqCst) {
            // Resume the sequenced event stream from the last delivered
            // seq; the hub replays the missed tail before acking, and
            // `process_event`'s high-water mark dedups any overlap. (A
            // new session has nothing to resume: the subscription that
            // set the flag is itself pending, and replayed below.)
            let sub = Req::SubscribeFrom {
                seq: self.last_event_seq.load(Ordering::SeqCst),
            };
            let Some(sub_id) = self.write_req(&tx, &sub) else {
                return Handshake::Failed;
            };
            if self.await_resp(&mut rd, &mut dec, sub_id).is_none() {
                return Handshake::Failed;
            }
        }
        // Replay every queued request in id order, as one write. The
        // hub answers anything it already applied from its replay
        // cache, so a write whose ack was severed is never applied
        // twice.
        let queued = {
            let p = self.pending.lock();
            let mut ids: Vec<u64> = p.keys().copied().collect();
            ids.sort_unstable();
            ids.iter().all(|id| tx.queue(*id, &p[id].req))
        };
        // From here on the I/O thread reads, and it never waits.
        if !(queued && tx.flush()) || stream.set_nonblocking(true).is_err() {
            return Handshake::Failed;
        }
        let conn = Arc::new(ConnShared {
            tx,
            stream,
            alive: AtomicBool::new(true),
            epoch: self.conn_epoch.fetch_add(1, Ordering::SeqCst) + 1,
        });
        if sid != 0 {
            self.emit_healed(SessionEvent::PeerResumed);
        }
        Handshake::Ready(conn, rd, dec)
    }

    /// The heartbeat period: a quarter of the lease the hub granted.
    fn quarter_lease(&self) -> Duration {
        Duration::from_millis((self.lease_ms.load(Ordering::SeqCst) / 4).max(25))
    }

    /// Routes one inbound frame: an event push is dispatched, and an
    /// answer goes to its pending request — unless it answers `want`,
    /// which is handed back. `None` on protocol corruption (the
    /// connection is torn down).
    fn route(&self, frame: &[u8], want: Option<u64>) -> Option<Option<Resp<I, M>>> {
        self.bytes_in
            .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
        let mut r = Reader::new(frame);
        let req_id = u64::decode(&mut r).ok()?;
        if req_id == EVENT_REQ_ID {
            // Unsolicited push: a tagged telemetry event. Frames with a
            // tag this build does not understand are skipped so newer
            // hubs can stream richer events to older clients.
            if let Ok(ev) = Event::<I>::decode(&mut r) {
                self.process_event(ev);
            }
            return Some(None);
        }
        let resp = Resp::<I, M>::decode(&mut r).ok()?;
        // Any session answer — including the unmatched heartbeat
        // acks — renews the lease view.
        if let Resp::Session { lease_ms, .. } = &resp {
            if *lease_ms > 0 {
                self.lease_ms.store(*lease_ms, Ordering::SeqCst);
            }
        }
        if want == Some(req_id) {
            return Some(Some(resp));
        }
        self.retire(req_id, Some(resp));
        Some(None)
    }
}

/// One connection's read side as the I/O thread turns it: decodes
/// frames, routes answers to their slots, dispatches event pushes, and
/// emits the heartbeat — when the quarter-lease deadline is due, or as
/// soon as [`ACK_EVERY`] frames have been answered. The
/// [`FrameDecoder`] keeps partial frames between turns.
struct SpokeIo<I, M> {
    shared: Arc<Shared<I, M>>,
    conn: Arc<ConnShared>,
    rd: TcpStream,
    dec: FrameDecoder,
    next_hb: Instant,
    /// Frames answered since the last heartbeat.
    answered: usize,
}

impl<I, M> SpokeIo<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Send + Sync + 'static,
{
    /// Reads what the socket has (not `socket`: what the handshake read
    /// past its answers) and routes every complete frame. `false` once
    /// the connection is over (EOF, I/O error, protocol corruption).
    fn read(&mut self, socket: bool) -> bool {
        let status = match socket {
            true => self.dec.read_from(&mut self.rd),
            false => Ok(ReadStatus::Blocked),
        };
        let Ok(status) = status else {
            return false;
        };
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => {
                    if self.shared.route(frame, None).is_none() {
                        return false;
                    }
                    self.answered += 1;
                }
                Ok(None) => return status == ReadStatus::Blocked,
                Err(_) => return false,
            }
        }
    }

    /// Fire-and-forget: the ack arrives as an unmatched `Resp::Session`
    /// and renews the lease; `acked` lets the hub prune replay answers
    /// below our lowest still-pending request.
    fn heartbeat(&mut self) -> bool {
        let shared = &self.shared;
        let acked = {
            let p = shared.pending.lock();
            p.keys()
                .min()
                .copied()
                .unwrap_or_else(|| shared.next_req.load(Ordering::Relaxed))
        };
        self.next_hb = Instant::now() + shared.quarter_lease();
        self.answered = 0;
        let req_id = shared.next_req.fetch_add(1, Ordering::Relaxed);
        self.conn
            .tx
            .push_now(req_id, &Req::<I, M>::Heartbeat { acked })
    }
}

impl<I, M> Source for SpokeIo<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Send + Sync + 'static,
{
    fn turn(&mut self, io: &mut Io<'_>, cause: Cause) -> Turn {
        if self.shared.is_dead() {
            return Turn::Done;
        }
        match cause {
            Cause::Attached => {
                io.register(fd_of(&self.rd), 0, true, false);
                if !self.read(false) {
                    return Turn::Done;
                }
            }
            Cause::Ready { readiness, .. } if readiness.readable || readiness.hangup => {
                if !self.read(true) {
                    return Turn::Done;
                }
            }
            Cause::Ready { .. } | Cause::Woken | Cause::Due => {}
        }
        if (self.answered >= ACK_EVERY || Instant::now() >= self.next_hb) && !self.heartbeat() {
            return Turn::Done;
        }
        Turn::Until(Some(self.next_hb))
    }

    /// Connection over. Its requests stay queued for the replay, which a
    /// redial thread runs on behalf of their parked callers — unless the
    /// session is over too.
    fn close(&mut self, _io: &mut Io<'_>, panicked: bool) {
        let (shared, conn) = (&self.shared, &self.conn);
        conn.alive.store(false, Ordering::SeqCst);
        let _ = conn.stream.shutdown(Shutdown::Both);
        if panicked {
            // An observer panicked mid-dispatch: the event stream has a
            // hole no resume can fill.
            shared.die();
            return;
        }
        if shared.is_dead() {
            return;
        }
        // Only the *current* connection announces the disconnect: a
        // stale connection outliving a completed resume must not emit
        // out of order after PeerResumed.
        if conn.epoch == shared.conn_epoch.load(Ordering::SeqCst) {
            shared.emit_severed();
        }
        if shared.closing.load(Ordering::SeqCst) {
            // The hub said goodbye before the socket closed: terminal.
            shared.die();
            return;
        }
        // Dial, hello and back-off block, so not here. Detached: it
        // ends with the redial, or with the session when that fails.
        let redial = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("script-net-redial".into())
            .spawn(move || {
                let _ = redial.ensure_conn();
            });
        match spawned {
            Ok(_) => reactor::note_redial_thread(),
            Err(_) => shared.die(),
        }
    }
}

/// A [`Transport`] speaking framed RPC to a remote hub (see the module
/// docs).
pub struct SocketTransport<I, M> {
    shared: Arc<Shared<I, M>>,
}

impl<I, M> fmt::Debug for SocketTransport<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocketTransport")
            .field("addr", &self.shared.plan.direct)
            .field("session", &self.shared.session.load(Ordering::Relaxed))
            .field("lost", &self.shared.is_dead())
            .finish()
    }
}

impl<I, M> SocketTransport<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Send + Sync + 'static,
{
    /// A client dialing under `plan`, retrying under `retry`: the plan's
    /// direct address is the hub (a descriptor's home node), its relay
    /// a fleet address. No I/O happens here: the first operation dials.
    pub fn with_plan(plan: DialPlan, retry: RetryPolicy) -> Self {
        Self {
            shared: Arc::new(Shared {
                plan,
                retry,
                bytes_out: Arc::new(AtomicU64::new(0)),
                bytes_in: AtomicU64::new(0),
                relay_dials: AtomicU64::new(0),
                state: Mutex::new(None),
                dead: AtomicBool::new(false),
                closing: AtomicBool::new(false),
                last_activity: AtomicU64::new(0),
                next_req: AtomicU64::new(EVENT_REQ_ID + 1),
                pending: Mutex::new(HashMap::new()),
                posted: AtomicUsize::new(0),
                spare_arms: Mutex::new(Default::default()),
                session: AtomicU64::new(0),
                lease_ms: AtomicU64::new(1000),
                last_event_seq: AtomicU64::new(0),
                observers: ObserverSlots::default(),
                bound: Mutex::new(Vec::new()),
                severed: Mutex::new(Vec::new()),
                subscribed: AtomicBool::new(false),
                conn_epoch: AtomicU64::new(0),
            }),
        }
    }

    /// A client for the hub at `addr`, dialed directly under a default
    /// retry policy (6 attempts, 25 ms base, 500 ms cap).
    ///
    /// # Errors
    ///
    /// Address resolution errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        Ok(Self::with_plan(
            DialPlan::direct(addr),
            RetryPolicy::new(6)
                .with_base(Duration::from_millis(25))
                .with_cap(Duration::from_millis(500)),
        ))
    }

    /// Frame bytes written to the hub so far (length prefixes
    /// included). With a direct [`DialPlan`] these bytes never touch
    /// the control fleet — the per-process evidence the federation
    /// example audits.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.bytes_out.load(Ordering::Relaxed)
    }

    /// Frame bytes read from the hub so far (length prefixes
    /// included).
    pub fn bytes_received(&self) -> u64 {
        self.shared.bytes_in.load(Ordering::Relaxed)
    }

    /// How many connections fell back to (or were forced through) the
    /// relay path.
    pub fn relay_dials(&self) -> u64 {
        self.shared.relay_dials.load(Ordering::Relaxed)
    }

    /// Requests still awaiting their answer, and how many of those were
    /// posted (sent without a waiter): `(0, 0)` on an idle spoke.
    pub fn unanswered(&self) -> (usize, usize) {
        let pending = self.shared.pending.lock().len();
        (pending, self.shared.posted.load(Ordering::SeqCst))
    }

    /// Whether the session is dead (expired, redial budget exhausted,
    /// hub shut down, or closed). A mere connection blip mid-resume
    /// does not count.
    pub fn is_lost(&self) -> bool {
        self.shared.is_dead()
    }

    /// Severs the connection without telling the hub — exactly what a
    /// process crash looks like from the other side. The hub keeps this
    /// session's ids alive until the lease lapses, then finishes them;
    /// other participants observe [`ChanError::Terminated`] for them.
    /// A command posted just before reaches the hub first — unless the
    /// connection had already died under it: nothing replays it then
    /// (`posted.rs`, `a_post_on_a_dead_connection_followed_by_close_is_lost`).
    /// Idempotent: double-close (or close racing drop or racing a
    /// background reconnect) is a no-op the second time.
    pub fn close(&self) {
        close_shared(&self.shared);
    }
}

/// The shared close path (also the drop path, which has no trait
/// bounds in scope).
fn close_shared<I, M>(shared: &Arc<Shared<I, M>>) {
    shared.die();
    // Shutting the socket is also what tells the I/O thread: the
    // connection's source sees the end and releases its handles.
    if let Some(conn) = shared.state.lock().take() {
        conn.alive.store(false, Ordering::SeqCst);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

impl<I, M> Transport<I, M> for SocketTransport<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Send + Sync + 'static,
{
    fn cast(&self, steps: &[CastStep<I>]) {
        if steps.is_empty() {
            return;
        }
        self.shared.cast(steps);
        bind(&mut self.shared.bound.lock(), steps);
    }

    fn abort(&self) {
        self.shared.post(Req::Abort);
    }

    fn is_aborted(&self) -> bool {
        // An unreachable hub cannot host any further operation.
        !matches!(self.shared.call(Req::IsAborted), Some(Resp::Bool(false)))
    }

    fn peer_state(&self, id: &I) -> Option<PeerState> {
        match self.shared.call(Req::PeerStateOf(id.clone())) {
            Some(Resp::State(s)) => s,
            _ => None,
        }
    }

    /// The hub's counter plus this spoke's count of connections: a
    /// resume is progress, so a sample that waited out a blip differs
    /// from every sample taken before the sever. Frozen on death.
    fn activity(&self) -> u64 {
        let shared = &self.shared;
        if let Some(Resp::Counter(c)) = shared.call(Req::Activity) {
            let seen = c.wrapping_add(shared.conn_epoch.load(Ordering::SeqCst));
            shared.last_activity.store(seen, Ordering::Relaxed);
        }
        shared.last_activity.load(Ordering::Relaxed)
    }

    fn reseed(&self, seed: u64) {
        self.shared.post(Req::Reseed(seed));
    }

    fn ensure_peer(&self, id: &I) -> Result<(), ChanError<I>> {
        // An id whose activation is on the socket is in the hub's
        // registry before anything sent after this: answer locally.
        if !self.shared.is_dead() && self.shared.bound.lock().contains(id) {
            return Ok(());
        }
        match self.shared.call(Req::EnsurePeer(id.clone())) {
            Some(Resp::Unit) => Ok(()),
            Some(Resp::ChanErr(e)) => Err(e),
            _ => Err(ChanError::Terminated(id.clone())),
        }
    }

    fn set_fault_plan(&self, plan: FaultPlan, _clone_fn: fn(&M) -> M) {
        // Duplicates are materialized hub-side with the hub's clone.
        self.shared.post(Req::SetFaultPlan(plan));
    }

    fn clear_fault_plan(&self) {
        self.shared.post(Req::ClearFaultPlan);
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        match self.shared.call(Req::GetFaultPlan) {
            Some(Resp::Plan(p)) => p,
            _ => None,
        }
    }

    fn observe(&self, observers: Observers<I, M>) {
        // Labels are extracted hub-side, where rendezvous complete (see
        // [`TransportServer::set_message_labeler`](crate::TransportServer::set_message_labeler));
        // a spoke-supplied labeler has nothing local to label.
        let streamed = observers.fault.is_some() || observers.rendezvous.is_some();
        self.shared.observers.install(observers);
        if streamed {
            self.shared.subscribe();
        }
    }

    fn note_session_event(&self, event: &SessionEvent<I>) {
        self.shared.observers.session(event);
    }

    fn send(
        &self,
        from: &I,
        to: &I,
        msg: M,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<I>> {
        let req = Req::Send {
            from: from.clone(),
            to: to.clone(),
            msg,
            // The budget is computed once; a replay re-encodes the same
            // request, so hub-side the clock restarts on reconnect.
            timeout_ms: timeout_ms_of(deadline),
        };
        let started = self.shared.observers.start();
        let result = match self.shared.call(req) {
            Some(Resp::Unit) => Ok(()),
            Some(Resp::ChanErr(e)) => Err(e),
            // Session death = the receiving side is gone, the same
            // error a crashed peer produces.
            _ => Err(ChanError::Terminated(to.clone())),
        };
        if result.is_ok() {
            self.shared.observers.record(LatencyOp::Send, started);
        }
        result
    }

    fn try_recv(&self, me: &I, from: &I) -> Result<Option<M>, ChanError<I>> {
        let started = self.shared.observers.start();
        let result = match self.shared.call(Req::TryRecv {
            me: me.clone(),
            from: from.clone(),
        }) {
            Some(Resp::Msg(m)) => Ok(m),
            Some(Resp::ChanErr(e)) => Err(e),
            _ => Err(ChanError::Terminated(from.clone())),
        };
        if matches!(result, Ok(Some(_))) {
            self.shared.observers.record(LatencyOp::TryRecv, started);
        }
        result
    }

    /// The arms travel in the request `pending` keeps, in a spare list;
    /// the answer hands them back, all but a fired send arm.
    fn select_in(
        &self,
        me: &I,
        arms: &mut [Arm<I, M>],
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        if arms.is_empty() {
            return Err(ChanError::EmptySelect);
        }
        // A dead session is every partner gone.
        let loss = ChanError::all_arms_dead(arms);
        let mut list = {
            let mut spare = self.shared.spare_arms.lock();
            let kept = spare.iter_mut().find(|l| l.capacity() > 0);
            kept.map(std::mem::take).unwrap_or_default()
        };
        list.extend(
            arms.iter_mut()
                .map(|a| std::mem::replace(a, Arm::recv_any())),
        );
        let req = Req::Select {
            me: me.clone(),
            arms: list,
            timeout_ms: timeout_ms_of(deadline),
        };
        let started = self.shared.observers.start();
        let (answer, req) = self.shared.exchange(req);
        let result = match answer {
            Some(Resp::Selected(outcome)) => Ok(outcome),
            Some(Resp::ChanErr(e)) => Err(e),
            _ => Err(loss),
        };
        if let Req::Select { arms: mut list, .. } = req {
            for (i, arm) in list.drain(..).enumerate() {
                if !matches!(result, Ok(Outcome::Sent { arm: fired, .. }) if fired == i) {
                    arms[i] = arm;
                }
            }
            let mut spare = self.shared.spare_arms.lock();
            let place = spare.iter_mut().find(|l| l.capacity() == 0);
            if let Some(place) = place.filter(|_| list.capacity() <= SPARE_ROOM) {
                *place = list;
            }
        }
        if matches!(
            result,
            Ok(Outcome::Received { .. }) | Ok(Outcome::Sent { .. })
        ) {
            self.shared.observers.record(LatencyOp::Select, started);
        }
        result
    }
}

impl<I, M> Drop for SocketTransport<I, M> {
    fn drop(&mut self) {
        close_shared(&self.shared);
    }
}
