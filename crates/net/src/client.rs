//! The socket-backed [`Transport`]: a pipelined framed-RPC client with
//! sessions.
//!
//! A [`SocketTransport`] implements the full [`Transport`] contract by
//! forwarding every operation to a [`TransportServer`](crate::TransportServer)
//! hub over one multiplexed TCP connection. Connection establishment is
//! **lazy** — the first operation dials, with reconnect attempts paced
//! by a [`RetryPolicy`] (exponential backoff + decorrelated jitter), so
//! a client may be constructed before its hub is listening.
//!
//! **Pipelining.** Every request carries a correlation id and parks in
//! a `pending` map; any number of requests ride the connection
//! concurrently and the hub answers them in whatever order its
//! rendezvous fire. The write path coalesces: producers append frames
//! to one shared [`WriteBuf`] and whoever flushes writes *everything*
//! queued since the last flush as a single syscall, so N threads
//! pipelining N requests cost far fewer writes than N.
//!
//! **Posted and called.** A *command* — its only answer is
//! [`Resp::Unit`], which its caller has no use for — is **posted**:
//! written, parked in `pending` without a waiter, and the caller goes
//! on. A query or a blocking operation is **called**: the caller waits.
//!
//! | posted | called | called, fast (never queued) |
//! |---|---|---|
//! | `Cast`, `Abort`, `Reseed`, `SetFaultPlan`, `ClearFaultPlan`, the first `SubscribeFrom` | `Send`, `Select`, `TryRecv`, `EnsurePeer`, `GetFaultPlan` | `IsAborted`, `PeerStateOf`, `Activity`, `HasPendingFrom` |
//!
//! The hub handles a connection's frames in arrival order and applies a
//! command as it reads it, and a post returns only once its frame is on
//! the socket: whatever this spoke sends afterwards, from any thread
//! that synchronised with the poster, is applied after it. Otherwise a
//! posted frame is a called one — it dials, a resume replays it in id
//! order, the hub answers it once — but someone who reaches the hub
//! another way (a second spoke, the hub's inner transport) must first
//! make a query on the posting spoke, whose answer is behind every
//! earlier post. The hello is *not* pipelined with the first requests:
//! a connection lost before the [`Resp::Session`] answer was read would
//! redial as a new session and replay its sends into it, while the
//! first may have applied them.
//!
//! **Lifecycle.** [`Transport::cast`] is one posted request: the run
//! travels as one [`Req::Cast`] frame, applied in order, answered once.
//! The provided one-step methods (`declare`, `activate`, `finish`,
//! `seal`) are one-step runs, so one-step frames.
//!
//! **No thread of its own.** A connection's read side is a source on
//! the process's one `script-net-io` thread
//! ([`reactor`]): when the socket is readable the
//! thread decodes answer frames through a [`FrameDecoder`] (partial
//! frames survive between turns), routes them to their waiting callers,
//! and emits the quarter-lease heartbeat when that deadline is due. The
//! socket is nonblocking — callers still write on their own threads,
//! and wait there for room if the kernel's buffer is full. Dialing, the
//! hello exchange and back-off are blocking and never run on the I/O
//! thread: callers dial as they always did, and when a connection dies
//! without the spoke being closed or the hub saying goodbye, one
//! short-lived `script-net-redial` thread redials, resumes, and replays
//! on behalf of parked callers, so they never have to.
//!
//! **Observers must not block.** The fault, rendezvous and session
//! observers run on `script-net-io`, where every spoke and hub of the
//! process waits its turn: an observer that calls back into *any*
//! socket transport of the process waits for an answer only its own
//! thread can read. One that panics kills its spoke only — the session
//! dies ([`SocketTransport::is_lost`]), the thread goes on serving the
//! others.
//!
//! Blocking semantics cross the wire unchanged: a `send` or `select`
//! RPC simply does not answer until the rendezvous fires server-side,
//! and deadlines travel as remaining-millisecond budgets so the two
//! processes need no shared clock.
//!
//! **Sessions.** The first dial opens a hub session ([`Req::HelloNew`])
//! and records its id + lease. From then on a dropped connection is a
//! *blip*, not a death: every durable request stays queued, the driver
//! redials, presents [`Req::HelloResume`], and replays the queue in
//! request-id order, as one write. The hub answers anything it already applied from
//! its replay cache, so a write whose ack was lost to the sever is
//! **never applied twice** — the retry path and the reconnect path are
//! one mechanism. A subscribed client resumes the sequenced event
//! stream gaplessly from the last delivered sequence number
//! ([`Req::SubscribeFrom`]); the missed tail arrives as one batched
//! [`Event::SeqStream`] frame, with exactly-once dispatch enforced
//! client-side by a monotonic high-water mark. Heartbeats flow both
//! ways: the spoke pings ([`Req::Heartbeat`]) every quarter-lease, and
//! earlier once [`ACK_EVERY`] answers have arrived since the last ping
//! — each names the lowest request still unanswered, so the hub's
//! replay cache is pruned by count, not by what a fast stream completes
//! in a quarter-lease — and every hub answer carrying
//! [`Resp::Session`] renews the client's view of the lease.
//!
//! During a blip, *fast* queries (lifecycle reads the engine's watchdog
//! polls) do not queue: they answer degraded-but-live values, and
//! [`Transport::activity`] returns a synthetic strictly-changing
//! counter so a watchdog sampling it sees progress, not a stall.
//!
//! **Peer loss** is still surfaced exactly as the contract requires —
//! but only when the session truly dies: the hub declares it expired
//! ([`Resp::SessionExpired`]), announces its own shutdown
//! ([`Event::Closing`] — the spoke fails fast instead of burning its
//! redial budget against a dead address), the redial budget is
//! exhausted, or the client is closed. Then a send reports
//! [`ChanError::Terminated`] for its target, a selection reports
//! `Terminated`/`AllTerminated` for its arms, lifecycle queries degrade
//! to "gone" answers (`is_aborted` → true, `peer_state` → `None`), and
//! `activity` freezes at its last observed value so an engine watchdog
//! raises `Stalled`. Conversely the ids this client *activated* live in
//! its hub-side session, so this process dying surfaces as `Terminated`
//! to everyone else once the lease lapses.

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
    Arm, CastStep, ChanError, FaultObserver, FaultPlan, FaultRecord, LabelFn, LatencyHooks,
    LatencyObserver, LatencyOp, Outcome, PeerState, RendezvousObserver, RendezvousRecord,
    SessionEvent, SessionObserver, Transport,
};
use script_core::RetryPolicy;

use crate::frame::{read_frame, FrameDecoder, ReadStatus, WriteBuf};
use crate::proto::{timeout_ms_of, Event, Req, Resp, StreamItem, EVENT_REQ_ID};
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
    Filled(Resp<I, M>),
    /// The request will never be answered (session death, or a fast
    /// query's connection dropped).
    Lost,
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

    /// Blocks until filled; `None` means the request is lost.
    fn wait(&self) -> Option<Resp<I, M>> {
        let mut st = self.state.lock();
        loop {
            match std::mem::replace(&mut *st, SlotState::Waiting) {
                SlotState::Waiting => self.cond.wait(&mut st),
                SlotState::Filled(resp) => return Some(resp),
                SlotState::Lost => return None,
            }
        }
    }
}

/// Bytes reserved for an encoded request frame: covers the request id,
/// the tag and the ids or short payload of the common requests, so they
/// are encoded without a regrowth (the hub reserves the same for its
/// answers).
const REQ_CAPACITY: usize = 128;

/// Largest encoded [`Req::Cast`] frame a spoke sends; a longer run is
/// cut into several (see [`Shared::cast`]).
const CAST_FRAME_MAX: usize = MAX_FRAME;

/// Posts a spoke lets go unanswered before the next one waits for its
/// own answer, which the hub sends behind theirs: `pending` is bounded.
const POSTED_MAX: usize = 64;

/// One queued request: the encoded frame is retained so a reconnect can
/// replay it verbatim (same request id → hub-side replay cache dedups).
struct PendingEntry<I, M> {
    payload: Vec<u8>,
    /// Where a caller waits for the answer; a posted request has none.
    slot: Option<Arc<Slot<I, M>>>,
    /// Fast queries are failed on connection loss instead of queued for
    /// replay — their callers want a degraded answer *now*.
    fast: bool,
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
    /// Queues one encoded `(req_id, req)` frame. Returns `false` for a
    /// frame no connection could carry.
    fn queue(&self, payload: &[u8]) -> bool {
        if self.buf.lock().push_frame(payload).is_err() {
            return false;
        }
        self.bytes_out
            .fetch_add(payload.len() as u64 + 4, Ordering::Relaxed);
        true
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
    fn push_now(&self, payload: &[u8]) -> bool {
        if !self.queue(payload) {
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

/// What a fast (non-queued) query observed.
enum FastReply<I, M> {
    Resp(Resp<I, M>),
    /// Connection down or mid-redial: answer degraded-but-live.
    Blip,
    /// The session is dead: answer with crashed-hub semantics.
    Dead,
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
    /// Mirror of `dead` for the cheap public `is_lost` probe.
    lost: AtomicBool,
    /// Terminal: session expired, redial budget exhausted, or closed.
    dead: AtomicBool,
    /// Set by `close`/drop so nobody redials.
    closed: AtomicBool,
    /// The hub announced shutdown ([`Event::Closing`]): terminal once
    /// the connection drains — no redial storm against a dead address.
    closing: AtomicBool,
    /// Last activity counter observed from the hub: frozen on death so
    /// watchdogs detect the wedge; advanced synthetically during blips
    /// so they do not.
    last_activity: AtomicU64,
    /// Synthetic activity ticks handed out while reconnecting.
    blip_ticks: AtomicU64,
    /// Last `is_aborted` answer, served during blips.
    cached_aborted: AtomicBool,
    /// Request ids start at 1; 0 is the event-frame marker.
    next_req: AtomicU64,
    /// Every un-acked request, keyed by id, replayed on reconnect.
    pending: Mutex<HashMap<u64, PendingEntry<I, M>>>,
    /// Entries of `pending` that were posted; at most [`POSTED_MAX`].
    posted: AtomicUsize,
    /// Hub-issued session id; 0 until the first handshake completes.
    session: AtomicU64,
    /// Hub-granted lease in milliseconds; paces the heartbeat.
    lease_ms: AtomicU64,
    /// High-water mark of delivered sequenced events: resume point for
    /// `SubscribeFrom` and exactly-once dispatch guard.
    last_event_seq: AtomicU64,
    observer: Mutex<Option<FaultObserver<I>>>,
    rendezvous_observer: Mutex<Option<RendezvousObserver<I>>>,
    session_observer: Mutex<Option<SessionObserver<I>>>,
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
    /// The connection and its read handle, for the I/O thread.
    Ready(Arc<ConnShared>, TcpStream),
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
        self.lost.store(true, Ordering::SeqCst);
        let drained: Vec<PendingEntry<I, M>> =
            self.pending.lock().drain().map(|(_, e)| e).collect();
        for e in drained {
            self.settle(e, SlotState::Lost);
        }
    }

    /// Disposes of an entry that has left `pending`: its waiter gets
    /// `state`; a posted one has none, and is counted out.
    fn settle(&self, entry: PendingEntry<I, M>, state: SlotState<I, M>) {
        match entry.slot {
            Some(slot) => slot.fill(state),
            None => drop(self.posted.fetch_sub(1, Ordering::SeqCst)),
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn dispatch_fault(&self, rec: &FaultRecord<I>) {
        let obs = self.observer.lock().clone();
        if let Some(obs) = obs {
            obs(rec);
        }
    }

    fn dispatch_rendezvous(&self, rec: &RendezvousRecord<I>) {
        let obs = self.rendezvous_observer.lock().clone();
        if let Some(obs) = obs {
            obs(rec);
        }
    }

    /// Snapshots the bound set as severed and emits
    /// [`SessionEvent::PeerDisconnected`] for every id in it.
    fn emit_severed(&self)
    where
        I: Clone,
    {
        let snapshot = self.bound.lock().clone();
        *self.severed.lock() = snapshot.clone();
        let obs = self.session_observer.lock().clone();
        let Some(obs) = obs else { return };
        for id in snapshot {
            obs(&SessionEvent::PeerDisconnected(id));
        }
    }

    /// Takes the severed snapshot and emits `make(id)` for every id in
    /// it — pairing each announced disconnect with exactly one resume
    /// or expiry, regardless of how `bound` changed in between.
    fn emit_healed(&self, make: fn(I) -> SessionEvent<I>)
    where
        I: Clone,
    {
        let snapshot = std::mem::take(&mut *self.severed.lock());
        let obs = self.session_observer.lock().clone();
        let Some(obs) = obs else { return };
        for id in snapshot {
            obs(&make(id));
        }
    }

    /// Terminal transition caused by lease expiry specifically: also
    /// surfaces [`SessionEvent::LeaseExpired`] for every severed id.
    fn die_expired(&self)
    where
        I: Clone,
    {
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
    fn process_event(&self, ev: &Event<I>) {
        match ev {
            Event::SeqStream { first_seq, items } => {
                // A live push or the resume-replay tail: item `i` sits
                // at stream position `first_seq + i`, and only an item
                // past the high-water mark is dispatched.
                for (i, item) in items.iter().enumerate() {
                    let seq = first_seq + i as u64;
                    let prev = self.last_event_seq.fetch_max(seq, Ordering::SeqCst);
                    if seq > prev {
                        match item {
                            StreamItem::Fault(record) => self.dispatch_fault(record),
                            StreamItem::Rendezvous(record) => self.dispatch_rendezvous(record),
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

    /// Allocates a request id and encodes one `(req_id, req)` frame.
    fn encode_req(&self, req: &Req<I, M>) -> (u64, Vec<u8>) {
        self.encode_frame(|payload| req.encode(payload))
    }

    /// The same, for a request `body` encodes in place.
    fn encode_frame(&self, body: impl FnOnce(&mut Vec<u8>)) -> (u64, Vec<u8>) {
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let mut payload = Vec::with_capacity(REQ_CAPACITY);
        req_id.encode(&mut payload);
        body(&mut payload);
        (req_id, payload)
    }

    /// Writes one `(req_id, req)` frame on a handshake-time connection
    /// (nothing else is queueing on it yet).
    fn write_req(&self, tx: &ConnTx, req: &Req<I, M>) -> Option<u64> {
        let (req_id, payload) = self.encode_req(req);
        (tx.queue(&payload) && tx.flush()).then_some(req_id)
    }

    /// Reads frames until the answer for `want` arrives (used during
    /// the handshake, before the I/O thread owns the stream). Events and
    /// answers to replayed requests that completed hub-side during the
    /// outage are delivered along the way.
    fn await_resp(&self, rd: &mut TcpStream, want: u64) -> Option<Resp<I, M>> {
        loop {
            let frame = read_frame(rd).ok()??;
            self.bytes_in
                .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
            let mut r = Reader::new(&frame);
            let req_id = u64::decode(&mut r).ok()?;
            if req_id == EVENT_REQ_ID {
                if let Ok(ev) = Event::<I>::decode(&mut r) {
                    self.process_event(&ev);
                }
                continue;
            }
            let resp = Resp::<I, M>::decode(&mut r).ok()?;
            if let Resp::Session { lease_ms, .. } = &resp {
                if *lease_ms > 0 {
                    self.lease_ms.store(*lease_ms, Ordering::SeqCst);
                }
            }
            if req_id == want {
                return Some(resp);
            }
            self.retire(req_id, SlotState::Filled(resp));
        }
    }

    /// Parks one encoded frame in `pending`, which keeps the only copy:
    /// transmission and replay both write from there. `slot` is where a
    /// caller will wait for the answer; a posted frame has none.
    fn register(
        &self,
        (req_id, payload): (u64, Vec<u8>),
        slot: Option<Arc<Slot<I, M>>>,
        fast: bool,
    ) -> u64 {
        let entry = PendingEntry {
            payload,
            slot,
            fast,
        };
        self.pending.lock().insert(req_id, entry);
        req_id
    }

    /// Takes a request out of `pending`, if still there, and settles it.
    fn retire(&self, req_id: u64, state: SlotState<I, M>) {
        let entry = self.pending.lock().remove(&req_id);
        if let Some(e) = entry {
            self.settle(e, state);
        }
    }

    /// Writes a registered request's frame to `conn` from the copy
    /// `pending` holds. A request no longer pending was answered
    /// already (a handshake replays everything pending, which may
    /// include this one) and is skipped. On a failed write the
    /// connection is shut, which the I/O thread sees and answers with
    /// the redial-and-replay path; returns whether the write succeeded.
    fn transmit(&self, conn: &ConnShared, req_id: u64) -> bool {
        let queued = match self.pending.lock().get(&req_id) {
            Some(e) => conn.tx.queue(&e.payload),
            None => true,
        };
        let sent = queued && conn.tx.flush();
        if !sent {
            conn.alive.store(false, Ordering::SeqCst);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        sent
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
                self.retire(req_id, SlotState::Lost);
                false
            }
        }
    }

    /// One durable RPC (see [`Shared::launch`]). `None` only on session
    /// death.
    fn call(self: &Arc<Self>, req: &Req<I, M>) -> Option<Resp<I, M>> {
        if self.is_dead() {
            return None;
        }
        self.call_frame(self.encode_req(req))
    }

    /// [`Shared::call`] for a request that is already encoded.
    fn call_frame(self: &Arc<Self>, frame: (u64, Vec<u8>)) -> Option<Resp<I, M>> {
        let slot = Arc::new(Slot::new());
        let req_id = self.register(frame, Some(Arc::clone(&slot)), false);
        if !self.launch(req_id) {
            return None;
        }
        slot.wait()
    }

    /// Sends a command without waiting for its answer (module docs):
    /// parked with no slot, launched exactly as a call's frame is, and
    /// on the socket when this returns ([`ConnTx::flush`] writes before
    /// it returns). With [`POSTED_MAX`] posts unanswered it is a call.
    fn post_frame(self: &Arc<Self>, frame: (u64, Vec<u8>)) {
        if self.posted.fetch_add(1, Ordering::SeqCst) >= POSTED_MAX {
            self.posted.fetch_sub(1, Ordering::SeqCst);
            self.call_frame(frame);
        } else {
            self.launch(self.register(frame, None, false));
        }
    }

    /// [`Shared::post_frame`] for a request not yet encoded.
    fn post(self: &Arc<Self>, req: &Req<I, M>) {
        self.post_frame(self.encode_req(req));
    }

    /// One posted [`Req::Cast`] frame for the run: one request id, one
    /// `pending` entry, one cached answer hub-side, so a run severed
    /// before its answer is replayed whole and applied exactly once. A
    /// run too long for one frame is halved at a step boundary until
    /// each part fits, the parts posted in order.
    fn cast(self: &Arc<Self>, steps: &[CastStep<I>]) {
        let frame = self.encode_frame(|payload| Req::<I, M>::encode_cast(steps, payload));
        if frame.1.len() > CAST_FRAME_MAX && steps.len() > 1 {
            let (head, tail) = steps.split_at(steps.len() / 2);
            self.cast(head);
            self.cast(tail);
            return;
        }
        self.post_frame(frame);
    }

    /// Subscribes the session to the hub's sequenced event stream, on
    /// the first observer only: one subscription feeds both the fault
    /// and the rendezvous observer, and a resumed connection renews it
    /// in the handshake.
    fn subscribe(self: &Arc<Self>) {
        if !self.subscribed.swap(true, Ordering::SeqCst) {
            let seq = self.last_event_seq.load(Ordering::SeqCst);
            self.post(&Req::SubscribeFrom { seq });
        }
    }

    /// One non-queued RPC for cheap lifecycle reads: never blocks on a
    /// redial (a locked dial = [`FastReply::Blip`]) and never replays.
    fn fast_call(self: &Arc<Self>, req: &Req<I, M>) -> FastReply<I, M> {
        if self.is_dead() {
            return FastReply::Dead;
        }
        let conn = {
            let Some(guard) = self.state.try_lock() else {
                return FastReply::Blip;
            };
            match guard.as_ref() {
                Some(c) if c.alive.load(Ordering::SeqCst) => Arc::clone(c),
                _ => return FastReply::Blip,
            }
        };
        let slot = Arc::new(Slot::new());
        let req_id = self.register(self.encode_req(req), Some(Arc::clone(&slot)), true);
        // The connection's end drains fast entries *after* flipping
        // `alive`; re-checking after the insert guarantees ours is seen.
        if !conn.alive.load(Ordering::SeqCst) || self.is_dead() {
            self.retire(req_id, SlotState::Lost);
            return if self.is_dead() {
                FastReply::Dead
            } else {
                FastReply::Blip
            };
        }
        if !self.transmit(&conn, req_id) {
            self.retire(req_id, SlotState::Lost);
            return FastReply::Blip;
        }
        match slot.wait() {
            Some(resp) => FastReply::Resp(resp),
            None if self.is_dead() => FastReply::Dead,
            None => FastReply::Blip,
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
            Some((conn, rd)) => {
                self.lost.store(false, Ordering::SeqCst);
                *guard = Some(Arc::clone(&conn));
                reactor::register(
                    Box::new(SpokeIo {
                        shared: Arc::clone(self),
                        conn: Arc::clone(&conn),
                        rd,
                        dec: FrameDecoder::new(),
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
    /// partition embargo. Called with the `state` lock held — fast
    /// queries observe the held lock as a blip.
    fn dial_and_handshake(self: &Arc<Self>) -> Option<(Arc<ConnShared>, TcpStream)> {
        for _ in 0..64 {
            if self.closed.load(Ordering::SeqCst)
                || self.closing.load(Ordering::SeqCst)
                || self.is_dead()
            {
                return None;
            }
            let stream = self
                .retry
                .run_if(|_: &io::Error| true, |_| self.dial_once())
                .ok()?;
            let _ = stream.set_nodelay(true);
            match self.handshake(stream) {
                Handshake::Ready(conn, rd) => return Some((conn, rd)),
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
        match self.await_resp(&mut rd, hello_id) {
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
            if self.await_resp(&mut rd, sub_id).is_none() {
                return Handshake::Failed;
            }
        }
        // Replay every queued request in id order, as one write. The
        // hub answers anything it already applied from its replay
        // cache, so a write whose ack was severed is never applied
        // twice.
        let queued = {
            let p = self.pending.lock();
            let mut ids: Vec<u64> = p
                .iter()
                .filter(|(_, e)| !e.fast)
                .map(|(id, _)| *id)
                .collect();
            ids.sort_unstable();
            ids.iter().all(|id| tx.queue(&p[id].payload))
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
        Handshake::Ready(conn, rd)
    }

    /// The heartbeat period: a quarter of the lease the hub granted.
    fn quarter_lease(&self) -> Duration {
        Duration::from_millis((self.lease_ms.load(Ordering::SeqCst) / 4).max(25))
    }

    /// Routes one inbound frame: an event push or a pending answer.
    /// Returns `false` on protocol corruption (the connection is torn
    /// down).
    fn on_frame(&self, frame: &[u8]) -> bool {
        self.bytes_in
            .fetch_add(frame.len() as u64 + 4, Ordering::Relaxed);
        let mut r = Reader::new(frame);
        let Ok(req_id) = u64::decode(&mut r) else {
            return false;
        };
        if req_id == EVENT_REQ_ID {
            // Unsolicited push: a tagged telemetry event. Frames with a
            // tag this build does not understand are skipped so newer
            // hubs can stream richer events to older clients.
            if let Ok(ev) = Event::<I>::decode(&mut r) {
                self.process_event(&ev);
            }
            return true;
        }
        let Ok(resp) = Resp::<I, M>::decode(&mut r) else {
            return false;
        };
        // Any session answer — including the unmatched heartbeat
        // acks — renews the lease view.
        if let Resp::Session { lease_ms, .. } = &resp {
            if *lease_ms > 0 {
                self.lease_ms.store(*lease_ms, Ordering::SeqCst);
            }
        }
        self.retire(req_id, SlotState::Filled(resp));
        true
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
    /// Reads what the socket has and routes every complete frame.
    /// Returns `false` once the connection is over (EOF, I/O error, or
    /// protocol corruption).
    fn read(&mut self) -> bool {
        let Ok(status) = self.dec.read_from(&mut self.rd) else {
            return false;
        };
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => {
                    if !self.shared.on_frame(&frame) {
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
        shared.blip_ticks.fetch_add(1, Ordering::Relaxed);
        let acked = {
            let p = shared.pending.lock();
            p.keys()
                .min()
                .copied()
                .unwrap_or_else(|| shared.next_req.load(Ordering::Relaxed))
        };
        let (_, payload) = shared.encode_req(&Req::Heartbeat { acked });
        self.next_hb = Instant::now() + shared.quarter_lease();
        self.answered = 0;
        self.conn.tx.push_now(&payload)
    }
}

impl<I, M> Source for SpokeIo<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Send + Sync + 'static,
{
    fn turn(&mut self, io: &mut Io<'_>, cause: Cause) -> Turn {
        if self.shared.is_dead() || self.shared.closed.load(Ordering::SeqCst) {
            return Turn::Done;
        }
        match cause {
            Cause::Attached => {
                io.register(fd_of(&self.rd), 0, true, false);
            }
            Cause::Ready { readiness, .. } if readiness.readable || readiness.hangup => {
                if !self.read() {
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

    /// Connection over. Fast queries parked on it get a degraded answer
    /// now; durable requests stay queued for the replay, which a redial
    /// thread runs on behalf of their parked callers — unless the
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
        let drained: Vec<PendingEntry<I, M>> = {
            let mut p = shared.pending.lock();
            let ids: Vec<u64> = p
                .iter()
                .filter(|(_, e)| e.fast)
                .map(|(id, _)| *id)
                .collect();
            ids.into_iter().filter_map(|id| p.remove(&id)).collect()
        };
        for e in drained {
            shared.settle(e, SlotState::Lost);
        }
        if shared.is_dead() || shared.closed.load(Ordering::SeqCst) {
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
    /// Client-side latency measurement: the RPC round trip *includes*
    /// the hub-side rendezvous wait, so hub time is attributed to the
    /// performance whose operation paid for it — no wire changes.
    latency: LatencyHooks,
}

impl<I, M> fmt::Debug for SocketTransport<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SocketTransport")
            .field("addr", &self.shared.plan.direct)
            .field("session", &self.shared.session.load(Ordering::Relaxed))
            .field("lost", &self.shared.lost.load(Ordering::Relaxed))
            .finish()
    }
}

impl<I, M> SocketTransport<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Send + Sync + 'static,
{
    /// A client for the hub at `addr`. No I/O happens here: the first
    /// operation dials, retrying under `retry`.
    pub fn new(addr: SocketAddr, retry: RetryPolicy) -> Self {
        Self::with_plan(DialPlan::direct(addr), retry)
    }

    /// A client dialing under `plan` — the federated entry point: the
    /// plan's direct address is a descriptor's home node, its relay a
    /// fleet address. No I/O happens here.
    pub fn with_plan(plan: DialPlan, retry: RetryPolicy) -> Self {
        Self {
            shared: Arc::new(Shared {
                plan,
                retry,
                bytes_out: Arc::new(AtomicU64::new(0)),
                bytes_in: AtomicU64::new(0),
                relay_dials: AtomicU64::new(0),
                state: Mutex::new(None),
                lost: AtomicBool::new(false),
                dead: AtomicBool::new(false),
                closed: AtomicBool::new(false),
                closing: AtomicBool::new(false),
                last_activity: AtomicU64::new(0),
                blip_ticks: AtomicU64::new(0),
                cached_aborted: AtomicBool::new(false),
                next_req: AtomicU64::new(EVENT_REQ_ID + 1),
                pending: Mutex::new(HashMap::new()),
                posted: AtomicUsize::new(0),
                session: AtomicU64::new(0),
                lease_ms: AtomicU64::new(1000),
                last_event_seq: AtomicU64::new(0),
                observer: Mutex::new(None),
                rendezvous_observer: Mutex::new(None),
                session_observer: Mutex::new(None),
                bound: Mutex::new(Vec::new()),
                severed: Mutex::new(Vec::new()),
                subscribed: AtomicBool::new(false),
                conn_epoch: AtomicU64::new(0),
            }),
            latency: LatencyHooks::default(),
        }
    }

    /// [`SocketTransport::new`] with address resolution and a default
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
        Ok(Self::new(
            addr,
            RetryPolicy::new(6)
                .with_base(Duration::from_millis(25))
                .with_cap(Duration::from_millis(500)),
        ))
    }

    /// The hub address this client dials.
    pub fn peer_addr(&self) -> SocketAddr {
        self.shared.plan.direct
    }

    /// The dial plan this client follows.
    pub fn dial_plan(&self) -> DialPlan {
        self.shared.plan
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
        self.shared.lost.load(Ordering::SeqCst)
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
    shared.closed.store(true, Ordering::SeqCst);
    shared.die();
    // Shutting the socket is also what tells the I/O thread: the
    // connection's source sees the end and releases its handles.
    if let Some(conn) = shared.state.lock().take() {
        conn.alive.store(false, Ordering::SeqCst);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// The peer a single-arm selection's loss should be pinned on,
/// mirroring the in-process all-arms-dead rule.
fn single_named_peer<I: Clone, M>(arms: &[Arm<I, M>]) -> Option<I> {
    match arms {
        [Arm::Recv(script_chan::Source::Of(p))] | [Arm::Send { to: p, .. }] => Some(p.clone()),
        _ => None,
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
        let mut bound = self.shared.bound.lock();
        for step in steps {
            match step {
                CastStep::Activate(id) if !bound.contains(id) => bound.push(id.clone()),
                CastStep::Finish(id) => bound.retain(|b| b != id),
                CastStep::Activate(_) | CastStep::Declare(_) | CastStep::Seal => {}
            }
        }
    }

    fn abort(&self) {
        self.shared.post(&Req::Abort);
    }

    fn is_aborted(&self) -> bool {
        match self.shared.fast_call(&Req::IsAborted) {
            FastReply::Resp(Resp::Bool(b)) => {
                self.shared.cached_aborted.store(b, Ordering::Relaxed);
                b
            }
            FastReply::Resp(_) => true,
            // Mid-blip: the last confirmed answer, not a false alarm.
            FastReply::Blip => self.shared.cached_aborted.load(Ordering::Relaxed),
            // An unreachable hub cannot host any further operation.
            FastReply::Dead => true,
        }
    }

    fn peer_state(&self, id: &I) -> Option<PeerState> {
        match self.shared.fast_call(&Req::PeerStateOf(id.clone())) {
            FastReply::Resp(Resp::State(s)) => s,
            _ => None,
        }
    }

    fn activity(&self) -> u64 {
        match self.shared.fast_call(&Req::Activity) {
            FastReply::Resp(Resp::Counter(c)) => {
                self.shared.last_activity.store(c, Ordering::Relaxed);
                c
            }
            // Mid-blip: a synthetic, strictly-changing counter — a
            // sampling watchdog must see a *reconnecting* client as
            // live, because the session still holds its lease.
            FastReply::Blip | FastReply::Resp(_) => {
                let ticks = self.shared.blip_ticks.fetch_add(1, Ordering::Relaxed) + 1;
                self.shared
                    .last_activity
                    .load(Ordering::Relaxed)
                    .wrapping_add(ticks)
            }
            // Frozen on death: a sampling watchdog sees no progress.
            FastReply::Dead => self.shared.last_activity.load(Ordering::Relaxed),
        }
    }

    fn reseed(&self, seed: u64) {
        self.shared.post(&Req::Reseed(seed));
    }

    fn ensure_peer(&self, id: &I) -> Result<(), ChanError<I>> {
        // An id whose activation is on the socket is in the hub's
        // registry before anything sent after this: answer locally.
        if !self.shared.is_dead() && self.shared.bound.lock().contains(id) {
            return Ok(());
        }
        match self.shared.call(&Req::EnsurePeer(id.clone())) {
            Some(Resp::Unit) => Ok(()),
            Some(Resp::ChanErr(e)) => Err(e),
            _ => Err(ChanError::Terminated(id.clone())),
        }
    }

    fn has_pending_from(&self, to: &I, from: &I) -> bool {
        match self.shared.fast_call(&Req::HasPendingFrom {
            to: to.clone(),
            from: from.clone(),
        }) {
            FastReply::Resp(Resp::Bool(b)) => b,
            _ => false,
        }
    }

    fn set_fault_plan(&self, plan: FaultPlan, _clone_fn: fn(&M) -> M) {
        // Duplicates are materialized hub-side with the hub's clone.
        self.shared.post(&Req::SetFaultPlan(plan));
    }

    fn clear_fault_plan(&self) {
        self.shared.post(&Req::ClearFaultPlan);
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        match self.shared.call(&Req::GetFaultPlan) {
            Some(Resp::Plan(p)) => p,
            _ => None,
        }
    }

    fn set_fault_observer(&self, observer: FaultObserver<I>) {
        *self.shared.observer.lock() = Some(observer);
        self.shared.subscribe();
    }

    fn set_rendezvous_observer(&self, observer: RendezvousObserver<I>, label_of: LabelFn<M>) {
        // Labels are extracted hub-side, where rendezvous complete (see
        // [`TransportServer::set_message_labeler`](crate::TransportServer::set_message_labeler));
        // a spoke-supplied labeler has nothing local to label.
        let _ = label_of;
        *self.shared.rendezvous_observer.lock() = Some(observer);
        self.shared.subscribe();
    }

    fn set_session_observer(&self, observer: SessionObserver<I>) {
        *self.shared.session_observer.lock() = Some(observer);
    }

    fn note_session_event(&self, event: &SessionEvent<I>) {
        let obs = self.shared.session_observer.lock().clone();
        if let Some(obs) = obs {
            obs(event);
        }
    }

    fn set_latency_observer(&self, observer: LatencyObserver) {
        self.latency.set_observer(observer);
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
            // The budget is computed once; a replay reuses the original
            // frame, so hub-side the clock restarts on reconnect.
            timeout_ms: timeout_ms_of(deadline),
        };
        let started = self.latency.start();
        let result = match self.shared.call(&req) {
            Some(Resp::Unit) => Ok(()),
            Some(Resp::ChanErr(e)) => Err(e),
            // Session death = the receiving side is gone, the same
            // error a crashed peer produces.
            _ => Err(ChanError::Terminated(to.clone())),
        };
        if result.is_ok() {
            self.latency.record(LatencyOp::Send, started);
        }
        result
    }

    fn try_recv(&self, me: &I, from: &I) -> Result<Option<M>, ChanError<I>> {
        let started = self.latency.start();
        let result = match self.shared.call(&Req::TryRecv {
            me: me.clone(),
            from: from.clone(),
        }) {
            Some(Resp::Msg(m)) => Ok(m),
            Some(Resp::ChanErr(e)) => Err(e),
            _ => Err(ChanError::Terminated(from.clone())),
        };
        if matches!(result, Ok(Some(_))) {
            self.latency.record(LatencyOp::TryRecv, started);
        }
        result
    }

    fn select(
        &self,
        me: &I,
        arms: Vec<Arm<I, M>>,
        deadline: Option<Instant>,
    ) -> Result<Outcome<I, M>, ChanError<I>> {
        if arms.is_empty() {
            return Err(ChanError::EmptySelect);
        }
        let loss = match single_named_peer(&arms) {
            Some(p) => ChanError::Terminated(p),
            None => ChanError::AllTerminated,
        };
        let req = Req::Select {
            me: me.clone(),
            arms,
            timeout_ms: timeout_ms_of(deadline),
        };
        let started = self.latency.start();
        let result = match self.shared.call(&req) {
            Some(Resp::Selected(outcome)) => Ok(outcome),
            Some(Resp::ChanErr(e)) => Err(e),
            _ => Err(loss),
        };
        if matches!(
            result,
            Ok(Outcome::Received { .. }) | Ok(Outcome::Sent { .. })
        ) {
            self.latency.record(LatencyOp::Select, started);
        }
        result
    }
}

impl<I, M> Drop for SocketTransport<I, M> {
    fn drop(&mut self) {
        close_shared(&self.shared);
    }
}
