//! The transport hub: serves an in-process [`Transport`] over TCP.
//!
//! A [`TransportServer`] owns no rendezvous logic of its own — it wraps
//! an *inner* transport (normally a seeded
//! [`ShardedTransport`](script_chan::ShardedTransport)) and executes
//! decoded [`Req`]s against it, one hub per endpoint address. All
//! semantics — matching, selection fairness, lifecycle, and in
//! particular **fault injection at the sending edge** — happen in the
//! inner transport exactly as they do in-process, which is what makes a
//! chaos seed replay the identical fault log whether the participants
//! are threads or processes.
//!
//! # The I/O thread
//!
//! The hub owns **no thread**: it is a source on the process's one
//! `script-net-io` thread ([`reactor`]), which turns it
//! when its nonblocking listener or a spoke connection is ready, when
//! answers were queued for it, and when its lease sweep is due. The
//! hub's side of a turn owns every spoke connection's read buffer
//! ([`FrameDecoder`]) and coalescing output buffer ([`WriteBuf`] behind
//! a `ConnTx`). Accepts, request decoding, and response flushing all
//! happen there — a hub costs no thread however many spokes connect,
//! and hubs co-hosted in one process take turns on the one thread.
//!
//! Blocking operations (`Send`, `Select`) are **submitted, not
//! awaited**: the hub hands them to the inner transport's
//! asynchronous entry points ([`Transport::submit_send`] /
//! [`Transport::submit_select`]), completed through the session that
//! asked, under the request's id: the session encodes the answer in
//! place in its connection's output buffer — the hub answers out of
//! order, as many requests deep as the spokes care to pipeline — and
//! keeps the arm list a selection hands back for a later one's decode.
//! The inner transport steps a submitted operation on
//! the submitting thread, so the usual turn is read → decode → step
//! both sides of the rendezvous → one coalesced write, all on the I/O
//! thread; a completion on another thread wakes it only while it is
//! parked (see [`Waker`](crate::reactor::Waker)). Submission is the
//! only path: nothing here may block, and an inner transport that
//! declines it (the default trait methods do) gets the operation failed
//! closed with [`Aborted`](script_chan::ChanError::Aborted).
//!
//! **What runs on that thread must not block.** Completions,
//! the inner transport's observers and the message labeler
//! ([`TransportServer::set_message_labeler`]) all run on
//! `script-net-io`, where every hub and spoke in the process waits its
//! turn. One that panics takes down its hub only: the turn is wrapped in
//! `catch_unwind`, the hub shuts down as if dropped, and the other
//! sources keep being served.
//!
//! **Sessions.** Every connection belongs to a session: its first
//! frame must be [`Req::HelloNew`] or [`Req::HelloResume`], and a
//! connection that opens with anything else is severed unanswered. A
//! spoke that opens with [`Req::HelloNew`] gets a
//! session id and a lease. The session — its bound ids, its
//! exactly-once table of answers, its sequenced event buffer — outlives
//! any one TCP connection: when the connection drops, the hub parks the
//! session and keeps every bound performance alive until the lease
//! lapses. A reconnect presenting [`Req::HelloResume`] re-attaches,
//! answers replayed requests from the table (a request the hub already
//! applied is **never** applied twice; its recorded answer is encoded
//! again, to the same bytes), and resumes the sequenced event stream
//! from wherever the spoke left off — the missed tail travels as
//! batched [`Event::SeqStream`] frames, as few as fit it.
//! [`Req::Heartbeat`] renews the lease and prunes the table's answers
//! (spokes send one every quarter-lease and every
//! [`ACK_EVERY`](crate::client::ACK_EVERY) answers, whichever comes
//! first); only lease expiry degrades to crashed-peer
//! semantics: the hub's sweep timer finishes every bound id, so
//! remaining participants observe the standard
//! [`Terminated`](script_chan::ChanError::Terminated) error exactly as
//! before sessions existed.
//!
//! **Connection faults.** The hub registers itself as the inner
//! transport's fault observer. Chaos-injected
//! [`Sever`](script_chan::FaultKind::Sever) and
//! [`Partition`](script_chan::FaultKind::Partition) records — decided
//! deterministically at the sending edge like every other fault class —
//! are *enacted* here: the session carrying the faulted edge has its
//! connection torn down, and a partition additionally embargoes resume
//! attempts until the configured duration elapses. Because the decision
//! lives in the inner transport, the fault record stream still replays
//! bit-for-bit on any transport; only the enactment is hub-specific.
//! The hub owns the inner transport's one fault-observer slot: fault
//! records are read through a subscribed spoke, which gets them
//! sequenced and gapless across resumes.
//!
//! **Shutdown** pushes [`Event::Closing`] to every connection whose
//! spoke is still there before the sockets close, so spokes fail fast
//! instead of burning their redial budget against a dead address. A
//! spoke that already hung up gets nothing: its connection is read to
//! the end and closed without a write, which would only draw a reset.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use script_chan::{
    Arm, CastStep, ChanError, Complete, Completion, FaultKind, FaultRecord, LabelFn, Observers,
    Outcome, RendezvousObserver, RendezvousRecord, SessionEvent, Transport,
};

use crate::frame::{FrameDecoder, ReadStatus, WriteBuf};
use crate::proto::{deadline_of, Event, Req, Resp, StreamItem, EVENT_REQ_ID};
use crate::reactor::{self, fd_of, Cause, Io, Notify, Source, Turn};
use crate::wire::{Reader, Wire};

/// Default session lease: how long a severed session's bound
/// performances stay alive awaiting a resume.
pub const DEFAULT_LEASE: Duration = Duration::from_secs(1);

/// Cap on buffered sequenced events retained per session for resume
/// replay; beyond it the oldest events are dropped (a resume that far
/// behind would gap anyway).
const EVENT_BUFFER_CAP: usize = 8192;

/// A connection's shared output side: any thread — the I/O thread, an
/// inner-transport completion callback, the fault observer — queues
/// frames here; the I/O thread writes everything queued during a turn
/// in one flush before it parks.
struct ConnTx {
    buf: Mutex<WriteBuf>,
    /// The hub's doorbell on the I/O thread.
    hub: Arc<Notify>,
}

impl ConnTx {
    /// Queues one frame as [`WriteBuf::push_with`] does, and asks the
    /// I/O thread for a flush, waking it if it is parked.
    fn push(&self, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
        let pushed = self.buf.lock().push_with(body);
        self.hub.wake();
        pushed
    }

    /// Queues one `(req_id, resp)` answer frame; one over a frame (its
    /// message nearly filled the request's) is dropped.
    fn answer<I: Wire, M: Wire>(&self, req_id: u64, resp: &Resp<I, M>) {
        let _ = self.push(|out| {
            req_id.encode(out);
            resp.encode(out);
        });
    }

    /// Queues the stream items of `events` from position `from` on as
    /// consecutive [`Event::SeqStream`] frames, each within a frame's
    /// [`MAX_FRAME`](crate::MAX_FRAME): a run too long for one is halved
    /// until it fits, and the runs after it start at that length. An
    /// item that alone exceeds a frame is skipped.
    fn push_stream<I: Wire>(&self, events: &VecDeque<(u64, StreamItem<I>)>, from: usize) {
        let (mut at, mut run) = (from, events.len() - from);
        while at < events.len() {
            run = run.min(events.len() - at);
            let pushed = self.push(|out| {
                EVENT_REQ_ID.encode(out);
                let items = events.range(at..at + run).map(|(_, item)| item);
                Event::encode_stream(events[at].0, items, out);
            });
            match pushed {
                Err(_) if run > 1 => run /= 2,
                _ => at += run,
            }
        }
    }
}

/// Arm lists a session keeps for the hub's later selections.
const SPARE_ARM_LISTS: usize = 8;

/// One spoke session: state that must survive connection loss, and the
/// [`Complete`] receiver of the operations it submits.
struct Session<I, M> {
    id: u64,
    state: Mutex<SessionState<I, M>>,
}

struct SessionState<I, M> {
    /// Ids this session animates; finished only at lease expiry or hub
    /// shutdown, never on mere connection loss.
    bound: Vec<I>,
    /// Whether the spoke subscribed to the sequenced event stream.
    subscribed: bool,
    /// Set while a resumed subscriber has not yet re-synced with
    /// `SubscribeFrom`: live event pushes are sequenced and buffered
    /// but **not written**, so the replay is always the first event
    /// traffic on a fresh connection. Without this, a live push can
    /// carry a seq past the un-replayed tail, and the spoke's
    /// high-water dedup would then skip the tail as already-seen —
    /// a permanent gap.
    event_resync: bool,
    /// Output buffer of the currently attached connection; `None`
    /// while severed (answers are cached instead of written).
    writer: Option<Arc<ConnTx>>,
    /// Raw stream of the attached connection, kept to force-sever it
    /// when a chaos fault or a stale-resume demands it.
    stream: Option<TcpStream>,
    /// Bumped on every attach so a stale connection's teardown cannot
    /// detach a newer one.
    epoch: u64,
    /// Lease clock: any traffic (or a rejected-but-alive resume
    /// attempt) refreshes it.
    last_seen: Instant,
    /// While set in the future, resume attempts are refused with
    /// [`Resp::Partitioned`].
    partitioned_until: Option<Instant>,
    /// Exactly-once table: request id → `None` while the request is
    /// submitted to the inner transport, then the answer it got. A
    /// replayed request is answered from here, its answer re-encoded,
    /// or — still submitted — ignored; never applied twice.
    answers: HashMap<u64, Option<Resp<I, M>>>,
    /// Sequence number of the last event pushed to this session.
    next_event_seq: u64,
    /// Buffered `(seq, item)` events for gapless resume replay. Faults
    /// and rendezvous share this one stream (and its sequence space),
    /// so a spoke's single high-water mark dedups both.
    events: VecDeque<(u64, StreamItem<I>)>,
    /// Emptied arm lists this session's selections handed back, at most
    /// [`SPARE_ARM_LISTS`]: the hub decodes a later `Select` into one.
    spare_arms: Vec<Vec<Arm<I, M>>>,
}

struct ServerShared<I, M> {
    inner: Arc<dyn Transport<I, M>>,
    /// Connections the hub's source holds, for [`HubStats`].
    connections: AtomicUsize,
    sessions: Mutex<HashMap<u64, Arc<Session<I, M>>>>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    next_session: AtomicU64,
    lease: Duration,
    /// Rung whenever the hub has output to flush or has shut down.
    notify: Arc<Notify>,
}

/// A point-in-time count of one hub's own tables (see
/// [`TransportServer::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubStats {
    /// TCP connections the hub currently holds.
    pub connections: usize,
    /// Sessions alive on this hub, attached or awaiting a resume.
    pub sessions: usize,
    /// Answers held for exactly-once replay, summed over the sessions;
    /// per session at most [`ACK_EVERY`](crate::client::ACK_EVERY) plus
    /// the spoke's pipeline depth, however fast operations complete.
    pub cached_answers: usize,
    /// Arm lists kept for decoding selections, summed over the sessions;
    /// per session at most 8.
    pub spare_arm_lists: usize,
}

/// A TCP hub exposing an inner [`Transport`] to remote
/// [`SocketTransport`](crate::SocketTransport) clients (see the module
/// docs).
pub struct TransportServer<I, M> {
    shared: Arc<ServerShared<I, M>>,
    addr: SocketAddr,
}

impl<I, M> fmt::Debug for TransportServer<I, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.shared.stats();
        f.debug_struct("TransportServer")
            .field("addr", &self.addr)
            .field("connections", &stats.connections)
            .field("sessions", &stats.sessions)
            .field("cached_answers", &stats.cached_answers)
            .finish()
    }
}

impl<I, M> TransportServer<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Clone + Send + Sync + 'static,
{
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `inner` with the [`DEFAULT_LEASE`]. The hub registers
    /// itself as `inner`'s fault observer to stream fault events to
    /// subscribed clients and to enact connection faults.
    ///
    /// The hub runs on the process's I/O thread, which must not block,
    /// so it serves blocking operations solely through
    /// [`Transport::submit_send`] / [`Transport::submit_select`]: an
    /// `inner` that declines them has every remote `send` and `select`
    /// answered [`ChanError::Aborted`]. For the same reason `inner` must
    /// not itself be a [`SocketTransport`](crate::SocketTransport) of
    /// this process: its calls would wait, on the I/O thread, for
    /// answers only the I/O thread can read (no in-repo caller stacks
    /// them so).
    ///
    /// # Errors
    ///
    /// Any socket-binding error.
    pub fn bind<A: ToSocketAddrs>(addr: A, inner: Arc<dyn Transport<I, M>>) -> io::Result<Self> {
        Self::bind_with_lease(addr, inner, DEFAULT_LEASE)
    }

    /// [`TransportServer::bind`] with an explicit session lease: how
    /// long a severed session's bound performances survive awaiting a
    /// resume before degrading to crashed-peer semantics.
    ///
    /// # Errors
    ///
    /// Any socket-binding error.
    pub fn bind_with_lease<A: ToSocketAddrs>(
        addr: A,
        inner: Arc<dyn Transport<I, M>>,
        lease: Duration,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        reactor::deepen_backlog(&listener)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            inner,
            connections: AtomicUsize::new(0),
            sessions: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            lease,
            notify: Arc::default(),
        });
        // Weak: the inner transport must not keep the hub alive through
        // its own observer slots. Rendezvous observation: the hub-side
        // labeler is authoritative (spokes forward opaque messages),
        // starting label-less until
        // [`TransportServer::set_message_labeler`] installs one.
        let weak: Weak<ServerShared<I, M>> = Arc::downgrade(&shared);
        shared.inner.observe(Observers {
            fault: Some(Arc::new(move |rec| {
                if let Some(sh) = weak.upgrade() {
                    sh.handle_fault(rec);
                }
            })),
            rendezvous: Some(shared.rendezvous_slot(no_label::<M>)),
            ..Observers::default()
        });
        reactor::register(
            Box::new(HubIo::new(Arc::clone(&shared), listener)),
            Arc::clone(&shared.notify),
        );
        Ok(Self { shared, addr })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session lease this hub grants.
    pub fn lease(&self) -> Duration {
        self.shared.lease
    }

    /// The transport the hub serves — hub-local participants use it
    /// directly, with zero socket hops.
    pub fn inner(&self) -> Arc<dyn Transport<I, M>> {
        Arc::clone(&self.shared.inner)
    }

    /// Installs the hub-side message labeler: every rendezvous record
    /// streamed to spokes (and observed hub-locally) carries the label
    /// `label_of` extracts from the delivered message. The hub is the
    /// one place the plaintext message is guaranteed to exist, so its
    /// labeler is authoritative for the whole performance.
    pub fn set_message_labeler(&self, label_of: LabelFn<M>) {
        self.shared.inner.observe(Observers {
            rendezvous: Some(self.shared.rendezvous_slot(label_of)),
            ..Observers::default()
        });
    }

    /// This hub's live connections, sessions and replay-cache size.
    /// Scoped to the instance, so tests and soaks can audit one hub
    /// while others run in the same process.
    pub fn stats(&self) -> HubStats {
        self.shared.stats()
    }

    /// Stops accepting, notifies every spoke with [`Event::Closing`],
    /// severs every client connection and discards every session,
    /// finishing its bound participants on the inner transport exactly
    /// as if their processes had died. Idempotent: repeated calls (or
    /// a close racing a drop) are no-ops.
    pub fn shutdown(&self) {
        self.shared.shutdown_hub();
    }
}

impl<I, M> Drop for TransportServer<I, M> {
    fn drop(&mut self) {
        self.shared.shutdown_hub();
    }
}

impl<I, M> ServerShared<I, M> {
    fn stats(&self) -> HubStats {
        let sessions = self.sessions.lock();
        HubStats {
            connections: self.connections.load(Ordering::Relaxed),
            sessions: sessions.len(),
            cached_answers: sessions
                .values()
                .map(|s| s.state.lock().answers.values().flatten().count())
                .sum(),
            spare_arm_lists: sessions
                .values()
                .map(|s| s.state.lock().spare_arms.len())
                .sum(),
        }
    }

    /// The answer to a hello or a heartbeat: the session and its lease.
    fn hello(&self, session: u64) -> Resp<I, M> {
        let lease_ms = self.lease.as_millis().min(u64::MAX as u128) as u64;
        Resp::Session { session, lease_ms }
    }

    fn shutdown_hub(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The hub's source sees the flag on its next turn, says goodbye
        // to every spoke and closes the sockets.
        self.notify.wake();
        // Hub death is final for every session: finish the bound ids so
        // hub-local participants observe crashed peers, not a hang.
        let sessions: Vec<Arc<Session<I, M>>> =
            self.sessions.lock().drain().map(|(_, s)| s).collect();
        for sess in sessions {
            let bound = {
                let mut st = sess.state.lock();
                st.writer = None;
                st.stream = None;
                std::mem::take(&mut st.bound)
            };
            for id in bound {
                self.inner.finish(id);
            }
        }
    }
}

/// Per-connection routing state on the I/O thread.
enum ConnMode<I, M> {
    /// No frame seen yet: the first one must be a session handshake.
    Fresh,
    /// Attached to a session at a given epoch.
    Session {
        sess: Arc<Session<I, M>>,
        epoch: u64,
    },
}

/// One connection owned by the hub's source.
struct Conn<I, M> {
    stream: TcpStream,
    dec: FrameDecoder,
    tx: Arc<ConnTx>,
    mode: ConnMode<I, M>,
    /// Close once the output buffer drains (rejected handshakes answer
    /// before the socket goes).
    closing: bool,
    /// This connection's slot in the persistent poll set.
    tok: usize,
    /// The write-interest bit currently registered for `tok`; a flush
    /// patches the poller only when the desired bit differs.
    want_write: bool,
}

/// The listener's key in the poll set; connections use their ids, which
/// count up from 0.
const LISTENER: u64 = u64::MAX;

/// How long the listener rests after a failed accept.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// The hub as the I/O thread turns it (see the module docs).
struct HubIo<I, M> {
    shared: Arc<ServerShared<I, M>>,
    listener: TcpListener,
    listener_tok: usize,
    conns: HashMap<u64, Conn<I, M>>,
    next_sweep: Instant,
    sweep_tick: Duration,
    /// Scratch list of connections to tear down, reused turn after turn.
    dead: Vec<u64>,
    /// The list a [`Req::Cast`] run is decoded into, handed back once applied.
    cast_room: Vec<CastStep<I>>,
    /// The list a [`Req::Select`]'s arms are decoded into; once a decode
    /// took it, the next request's session refills it from its spares.
    arms_room: Vec<Arm<I, M>>,
}

impl<I, M> Source for HubIo<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Clone + Send + Sync + 'static,
{
    fn turn(&mut self, io: &mut Io<'_>, cause: Cause) -> Turn {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Turn::Done;
        }
        match cause {
            // The poll set is persistent: the listener registers once
            // here, connections register on accept and deregister on
            // teardown.
            Cause::Attached => {
                self.listener_tok = io.register(fd_of(&self.listener), LISTENER, true, false);
            }
            Cause::Woken => self.flush_all(io),
            Cause::Ready { key: LISTENER, .. } => self.accept_ready(io),
            Cause::Ready { key: id, readiness } => {
                // Reads: drain the connection and route its complete
                // frames. The answers are written by the flush their
                // doorbell asks for, all of a connection's in one write.
                if (readiness.readable || readiness.hangup) && !self.service_read(id) {
                    self.teardown(io, id);
                } else if readiness.writable {
                    // A partial write's remainder can go now.
                    self.shared.notify.wake();
                }
            }
            Cause::Due => {
                // A listener resting after a failed accept listens again
                // (no syscall when it was not resting).
                io.set_interest(self.listener_tok, true, false);
                self.shared.sweep_expired();
                self.next_sweep = Instant::now() + self.sweep_tick;
            }
        }
        Turn::Until(Some(self.next_sweep))
    }

    /// Shutdown — or a panicked turn, which shuts the hub down the same
    /// way: behind whatever answers are still queued, every connection
    /// whose spoke is still there gets an [`Event::Closing`] — best
    /// effort, so spokes fail fast instead of entering their redial
    /// loops — and then everything is closed. Queued here, by the owner
    /// of the connections, so no connection can close before its
    /// goodbye is in its buffer. A connection is read dry first: one
    /// whose spoke already hung up gets no goodbye (the write would
    /// only be answered with a reset). The one place the I/O thread
    /// lets a write wait: up to 100 ms for a spoke whose receive buffer
    /// is full.
    fn close(&mut self, io: &mut Io<'_>, _panicked: bool) {
        self.shared.shutdown_hub();
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in &ids {
            if let Some(conn) = self.conns.get_mut(id) {
                // Two passes: the first may stop at a short read just
                // ahead of the end.
                let mut hung_up = || {
                    !matches!(
                        conn.dec.read_from(&mut conn.stream),
                        Ok(ReadStatus::Blocked)
                    )
                };
                if hung_up() || hung_up() {
                    continue;
                }
                let mut buf = conn.tx.buf.lock();
                let _ = buf.push_with(|out| {
                    EVENT_REQ_ID.encode(out);
                    Event::<u64>::Closing.encode(out);
                });
                if let Ok(false) = buf.flush_to(&mut conn.stream) {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn
                        .stream
                        .set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = buf.flush_to(&mut conn.stream);
                }
            }
        }
        for id in ids {
            self.teardown(io, id);
        }
    }
}

impl<I, M> HubIo<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Clone + Send + Sync + 'static,
{
    fn new(shared: Arc<ServerShared<I, M>>, listener: TcpListener) -> Self {
        let sweep_tick =
            (shared.lease / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
        Self {
            shared,
            listener,
            listener_tok: 0,
            conns: HashMap::new(),
            next_sweep: Instant::now() + sweep_tick,
            sweep_tick,
            dead: Vec::new(),
            cast_room: Vec::new(),
            arms_room: Vec::new(),
        }
    }

    /// The last thing before the I/O thread blocks: one coalesced write
    /// per connection with queued output (a nonblocking partial write
    /// leaves the rest, and write interest, for a later turn), and the
    /// write-interest bit patched in place where it changed. Tears down
    /// the connections whose write failed, or whose close-after-flush
    /// drained.
    fn flush_all(&mut self, io: &mut Io<'_>) {
        let mut dead = std::mem::take(&mut self.dead);
        for (id, conn) in &mut self.conns {
            let drained = match conn.tx.buf.lock().flush_to(&mut conn.stream) {
                Ok(drained) => drained,
                Err(_) => {
                    dead.push(*id);
                    continue;
                }
            };
            if conn.closing && drained {
                dead.push(*id);
            }
            if conn.want_write == drained {
                conn.want_write = !drained;
                io.set_interest(conn.tok, true, conn.want_write);
            }
        }
        for id in dead.drain(..) {
            self.teardown(io, id);
        }
        self.dead = dead;
    }

    /// Accepts every pending connection. An accept failing otherwise than
    /// on an empty queue — out of descriptors, most likely — leaves the
    /// listener readable: rather than spin the I/O thread, it rests for
    /// [`ACCEPT_PAUSE`], and the established connections stay.
    fn accept_ready(&mut self, io: &mut Io<'_>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
                    let tx = Arc::new(ConnTx {
                        buf: Mutex::new(WriteBuf::new()),
                        hub: Arc::clone(&self.shared.notify),
                    });
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    let tok = io.register(fd_of(&stream), id, true, false);
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            dec: FrameDecoder::new(),
                            tx,
                            mode: ConnMode::Fresh,
                            closing: false,
                            tok,
                            want_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    io.set_interest(self.listener_tok, false, false);
                    self.next_sweep = self.next_sweep.min(Instant::now() + ACCEPT_PAUSE);
                    return;
                }
            }
        }
    }

    /// Reads whatever the socket has and routes every complete frame.
    /// Returns `false` once the connection is finished (EOF, I/O error,
    /// or protocol corruption).
    fn service_read(&mut self, id: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        let status = match conn.dec.read_from(&mut conn.stream) {
            Ok(s) => s,
            Err(_) => ReadStatus::Eof,
        };
        loop {
            // Decoded where it was read: the request owns what it keeps,
            // and the frame goes back to the decoder.
            let (req_id, req) = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return true;
                };
                match conn.dec.next_frame() {
                    Ok(Some(frame)) => {
                        let mut r = Reader::new(frame);
                        let req_id = u64::decode(&mut r);
                        match (
                            req_id,
                            Req::decode_with(&mut r, &mut self.cast_room, &mut self.arms_room),
                        ) {
                            (Ok(req_id), Ok(req)) => (req_id, req),
                            _ => return false, // protocol corruption
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return false, // oversized prefix: corruption
                }
            };
            if !self.handle_request(id, req_id, req) {
                return false;
            }
        }
        status == ReadStatus::Blocked
    }

    /// Routes one decoded request according to the connection's mode.
    /// Returns `false` to sever the connection.
    fn handle_request(&mut self, id: u64, req_id: u64, req: Req<I, M>) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        if conn.closing {
            // A rejected handshake's connection takes no further
            // requests; it is only waiting for its answer to flush.
            return true;
        }
        match &conn.mode {
            ConnMode::Fresh => self.handle_first(id, req_id, req),
            ConnMode::Session { .. } => self.handle_session(id, req_id, req),
        }
    }

    /// The connection's first frame: a session handshake, or the
    /// connection is severed.
    fn handle_first(&mut self, id: u64, req_id: u64, req: Req<I, M>) -> bool {
        match req {
            Req::HelloNew => {
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    return false;
                }
                let conn = self.conns.get_mut(&id).expect("routed conn");
                let sid = self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
                let sess = Arc::new(Session {
                    id: sid,
                    state: Mutex::new(SessionState {
                        bound: Vec::new(),
                        subscribed: false,
                        event_resync: false,
                        writer: Some(Arc::clone(&conn.tx)),
                        stream: conn.stream.try_clone().ok(),
                        epoch: 1,
                        last_seen: Instant::now(),
                        partitioned_until: None,
                        answers: HashMap::new(),
                        next_event_seq: 0,
                        events: VecDeque::new(),
                        spare_arms: Vec::new(),
                    }),
                });
                self.shared.sessions.lock().insert(sid, Arc::clone(&sess));
                conn.mode = ConnMode::Session {
                    sess: Arc::clone(&sess),
                    epoch: 1,
                };
                sess.state.lock().record(req_id, self.shared.hello(sid));
                true
            }
            Req::HelloResume(sid) => self.handle_resume(id, req_id, sid),
            // No session, no service: nothing is applied, nothing is
            // answered.
            _ => false,
        }
    }

    fn handle_resume(&mut self, id: u64, req_id: u64, sid: u64) -> bool {
        let conn = self.conns.get_mut(&id).expect("routed conn");
        let sess = self.shared.sessions.lock().get(&sid).cloned();
        let Some(sess) = sess else {
            // Expired (or never existed): the spoke must degrade to
            // crashed-peer semantics. Answer, flush, then close.
            conn.tx.answer(req_id, &Resp::<I, M>::SessionExpired);
            conn.closing = true;
            return true;
        };
        let epoch = {
            let mut st = sess.state.lock();
            let now = Instant::now();
            if let Some(until) = st.partitioned_until {
                if until > now {
                    // The spoke is provably alive — keep its lease warm
                    // while the partition embargo holds, but refuse the
                    // attach.
                    st.last_seen = now;
                    let remaining_ms = (until - now).as_millis().min(u64::MAX as u128);
                    drop(st);
                    conn.tx.answer(
                        req_id,
                        &Resp::<I, M>::Partitioned {
                            remaining_ms: remaining_ms as u64,
                        },
                    );
                    conn.closing = true;
                    return true;
                }
                st.partitioned_until = None;
            }
            // A stale connection still attached loses to the newcomer;
            // its teardown observes the bumped epoch and leaves the
            // session alone.
            if let Some(old) = st.stream.take() {
                let _ = old.shutdown(Shutdown::Both);
            }
            st.epoch += 1;
            st.writer = Some(Arc::clone(&conn.tx));
            st.stream = conn.stream.try_clone().ok();
            st.last_seen = now;
            // A resumed subscriber holds event writes until its
            // `SubscribeFrom` replay re-syncs the stream.
            st.event_resync = st.subscribed;
            st.epoch
        };
        conn.mode = ConnMode::Session {
            sess: Arc::clone(&sess),
            epoch,
        };
        sess.state.lock().record(req_id, self.shared.hello(sid));
        let bound = sess.state.lock().bound.clone();
        for bid in bound {
            self.shared
                .inner
                .note_session_event(&SessionEvent::PeerResumed(bid));
        }
        true
    }

    /// One request on a session connection: every answer is kept in the
    /// session's exactly-once table (idempotent by request id); blocking
    /// operations are submitted to the inner transport, which answers
    /// them through the session to whatever connection is attached then.
    fn handle_session(&mut self, id: u64, req_id: u64, req: Req<I, M>) -> bool {
        let Some(ConnMode::Session { sess, .. }) = self.conns.get(&id).map(|c| &c.mode) else {
            return true;
        };
        let sess = Arc::clone(sess);
        let shared = &self.shared;
        {
            let mut st = sess.state.lock();
            st.last_seen = Instant::now();
            if let Some(answer) = st.answers.get(&req_id) {
                // Replayed and already applied: the recorded answer is
                // re-encoded, the same bytes. Replayed while the
                // submitted operation still runs: it will answer the
                // current connection on completion. Never applied twice;
                // a replayed selection's arms go back to the room.
                if let Some(resp) = answer {
                    st.answer(req_id, resp);
                }
                if let Req::Select { arms, .. } = req {
                    self.arms_room = arms;
                }
                return true;
            }
            if matches!(req, Req::Send { .. } | Req::Select { .. }) {
                st.answers.insert(req_id, None);
            }
            if self.arms_room.capacity() == 0 {
                self.arms_room = st.spare_arms.pop().unwrap_or_default();
            }
        }
        match req {
            // A second handshake mid-session is protocol corruption.
            Req::HelloNew | Req::HelloResume(_) => return false,
            Req::Heartbeat { acked } => {
                let mut st = sess.state.lock();
                st.answers.retain(|k, v| *k >= acked || v.is_none());
                // Unrecorded: heartbeats are never replayed, and the
                // answer doubles as the hub → spoke lease renewal.
                st.answer(req_id, &shared.hello(sess.id));
            }
            Req::SubscribeFrom { seq } => {
                // Atomically: mark subscribed, replay the buffered tail
                // in as few frames as fit it, ack — all under the state
                // lock, so no event broadcast can interleave and break
                // gaplessness.
                let mut st = sess.state.lock();
                st.subscribed = true;
                st.event_resync = false;
                // The buffer is in sequence order: the tail is a suffix.
                let skip = st.events.partition_point(|(s, _)| *s <= seq);
                if let Some(tx) = &st.writer {
                    tx.push_stream(&st.events, skip);
                }
                st.answer(req_id, &Resp::<I, M>::Unit);
            }
            Req::Cast(steps) => {
                // The ids a run activates are this session's to finish
                // if its lease lapses.
                let mut st = sess.state.lock();
                for step in &steps {
                    match step {
                        CastStep::Activate(bid) if !st.bound.contains(bid) => {
                            st.bound.push(bid.clone());
                        }
                        CastStep::Finish(bid) => st.bound.retain(|b| b != bid),
                        CastStep::Activate(_) | CastStep::Declare(_) | CastStep::Seal => {}
                    }
                }
                drop(st);
                shared.inner.cast(&steps);
                sess.state.lock().record(req_id, Resp::Unit);
                // Kept no larger than a decode reserves up front.
                if steps.capacity() <= 64 {
                    self.cast_room = steps;
                }
            }
            Req::Send {
                from,
                to,
                msg,
                timeout_ms,
            } => {
                let done = Completion {
                    to: sess,
                    tag: req_id,
                };
                let (inner, deadline) = (Arc::clone(&shared.inner), deadline_of(timeout_ms));
                if let Err((_, done)) = inner.submit_send(&from, &to, msg, deadline, done) {
                    // Declined: fail closed (see `bind`).
                    done.sent(Err(ChanError::Aborted));
                }
            }
            Req::Select {
                me,
                arms,
                timeout_ms,
            } => {
                let done = Completion {
                    to: sess,
                    tag: req_id,
                };
                let (inner, deadline) = (Arc::clone(&shared.inner), deadline_of(timeout_ms));
                if let Err((arms, done)) = inner.submit_select(&me, arms, deadline, done) {
                    done.selected(Err(ChanError::Aborted), arms);
                }
            }
            other => {
                let resp = shared.apply_simple(other);
                sess.state.lock().record(req_id, resp);
            }
        }
        true
    }

    /// Removes a connection. Its session, if it opened one, merely
    /// detaches and awaits resume or lease expiry.
    fn teardown(&mut self, io: &mut Io<'_>, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        io.deregister(conn.tok);
        self.shared.connections.fetch_sub(1, Ordering::Relaxed);
        let _ = conn.stream.shutdown(Shutdown::Both);
        match conn.mode {
            ConnMode::Fresh => {}
            ConnMode::Session { sess, epoch } => {
                // Detach, not death: the session (and its bound
                // performances) stays alive until the lease expires or
                // a resume re-attaches.
                let mut st = sess.state.lock();
                if st.epoch == epoch {
                    st.writer = None;
                    st.stream = None;
                    st.last_seen = Instant::now();
                    let bound = st.bound.clone();
                    drop(st);
                    if !self.shared.shutdown.load(Ordering::SeqCst) {
                        for bid in bound {
                            self.shared
                                .inner
                                .note_session_event(&SessionEvent::PeerDisconnected(bid));
                        }
                    }
                }
            }
        }
    }
}

impl<I, M> ServerShared<I, M>
where
    I: Wire + Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Wire + Clone + Send + Sync + 'static,
{
    /// Executes one of the nonblocking, connection-agnostic requests.
    /// Blocking ops, handshakes and connection-scoped requests never
    /// reach here.
    fn apply_simple(&self, req: Req<I, M>) -> Resp<I, M> {
        match req {
            Req::Abort => {
                self.inner.abort();
                Resp::Unit
            }
            Req::IsAborted => Resp::Bool(self.inner.is_aborted()),
            Req::PeerStateOf(id) => Resp::State(self.inner.peer_state(&id)),
            Req::Activity => Resp::Counter(self.inner.activity()),
            Req::Reseed(seed) => {
                self.inner.reseed(seed);
                Resp::Unit
            }
            Req::EnsurePeer(id) => match self.inner.ensure_peer(&id) {
                Ok(()) => Resp::Unit,
                Err(e) => Resp::ChanErr(e),
            },
            Req::SetFaultPlan(plan) => {
                self.inner.set_fault_plan(plan, clone_of::<M>);
                Resp::Unit
            }
            Req::ClearFaultPlan => {
                self.inner.clear_fault_plan();
                Resp::Unit
            }
            Req::GetFaultPlan => Resp::Plan(self.inner.fault_plan()),
            Req::TryRecv { me, from } => match self.inner.try_recv(&me, &from) {
                Ok(msg) => Resp::Msg(msg),
                Err(e) => Resp::ChanErr(e),
            },
            // Routed before apply_simple; answering Unit would be a
            // protocol lie, so make the bug loud.
            Req::Cast(_)
            | Req::SubscribeFrom { .. }
            | Req::Send { .. }
            | Req::Select { .. }
            | Req::HelloNew
            | Req::HelloResume(_)
            | Req::Heartbeat { .. } => unreachable!("request routed before apply_simple"),
        }
    }

    /// Appends one item to every subscribed session's sequenced event
    /// stream — buffered for gapless resume replay — and pushes it to
    /// the attached connection as a run of one, encoded from the
    /// buffered copy. `item` builds that owned copy of the record, once
    /// per subscriber. Sequencing and queueing happen under the session
    /// state lock, so concurrent events cannot reorder on the wire. The
    /// session table is walked under its own lock (order: table →
    /// session state, as in the lease sweep), so a hub nobody
    /// subscribed to pays two uncontended locks per record and no
    /// allocation.
    fn stream(&self, item: impl Fn() -> StreamItem<I>) {
        for sess in self.sessions.lock().values() {
            let mut st = sess.state.lock();
            if !st.subscribed {
                continue;
            }
            st.next_event_seq += 1;
            let seq = st.next_event_seq;
            st.events.push_back((seq, item()));
            if st.events.len() > EVENT_BUFFER_CAP {
                st.events.pop_front();
            }
            if let (false, Some(tx)) = (st.event_resync, &st.writer) {
                tx.push_stream(&st.events, st.events.len() - 1);
            }
        }
    }

    /// The inner transport's fault observer: streams the record to
    /// every subscriber, then *enacts* connection faults by severing
    /// the session carrying the faulted edge. Runs on whatever thread
    /// injected the fault — the I/O thread itself for spoke-submitted
    /// operations — so it only touches the cross-thread state
    /// ([`ConnTx`], session state, raw stream handles), never the
    /// hub source's own maps.
    fn handle_fault(&self, rec: &FaultRecord<I>) {
        self.stream(|| StreamItem::Fault(rec.clone()));
        // Enact connection faults: tear down the connection of the
        // session animating the faulted edge (sender side first; a
        // hub-local sender severs the remote receiver instead). The
        // *decision* was made by the inner transport, so the chaos
        // schedule replays identically on any transport — only the
        // enactment is connection-specific.
        if matches!(rec.kind, FaultKind::Sever | FaultKind::Partition) {
            let sessions: Vec<Arc<Session<I, M>>> =
                self.sessions.lock().values().cloned().collect();
            let target = sessions
                .iter()
                .find(|s| s.state.lock().bound.contains(&rec.from))
                .or_else(|| {
                    sessions
                        .iter()
                        .find(|s| s.state.lock().bound.contains(&rec.to))
                });
            if let Some(sess) = target {
                let mut st = sess.state.lock();
                if rec.kind == FaultKind::Partition {
                    let dur = self
                        .inner
                        .fault_plan()
                        .map(|p| p.partition_duration())
                        .unwrap_or_default();
                    st.partitioned_until = Some(Instant::now() + dur);
                }
                st.last_seen = Instant::now();
                st.writer = None;
                if let Some(stream) = st.stream.take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
    }

    /// The inner transport's rendezvous observer: streams the record to
    /// every subscriber, in the same sequence space as faults. Runs on
    /// the delivering thread *under the receiving endpoint's lock*,
    /// which is exactly what guarantees the stream order matches pickup
    /// order; it must therefore never call back into the inner
    /// transport.
    fn handle_rendezvous(&self, rec: &RendezvousRecord<I>) {
        self.stream(|| StreamItem::Rendezvous(rec.clone()));
    }

    /// The inner transport's rendezvous slot: [`Self::handle_rendezvous`]
    /// through a weak reference, labeled by `label_of`.
    fn rendezvous_slot(
        self: &Arc<Self>,
        label_of: LabelFn<M>,
    ) -> (RendezvousObserver<I>, LabelFn<M>) {
        let weak = Arc::downgrade(self);
        let observer = Arc::new(move |rec: &RendezvousRecord<I>| {
            if let Some(sh) = weak.upgrade() {
                sh.handle_rendezvous(rec);
            }
        });
        (observer, label_of)
    }

    /// Expires sessions whose lease lapsed while severed: their bound
    /// ids are finished — the pre-session crashed-peer semantics —
    /// and the expiry is surfaced to hub-local session observers.
    fn sweep_expired(&self) {
        let now = Instant::now();
        let expired: Vec<Arc<Session<I, M>>> = self
            .sessions
            .lock()
            .extract_if(|_, s| {
                let st = s.state.lock();
                st.writer.is_none()
                    && st.partitioned_until.is_none_or(|t| t <= now)
                    && now.duration_since(st.last_seen) > self.lease
            })
            .map(|(_, s)| s)
            .collect();
        for sess in expired {
            let bound = sess.state.lock().bound.clone();
            for id in bound {
                // Event before effect: anyone unblocked by the finish
                // (Terminated errors surfacing) must already be able to
                // observe the expiry on the session-event plane.
                self.inner
                    .note_session_event(&SessionEvent::LeaseExpired(id.clone()));
                self.inner.finish(id);
            }
        }
    }
}

impl<I, M> Complete<I, M> for Session<I, M>
where
    I: Wire + Send + Sync,
    M: Wire + Send + Sync,
{
    fn sent(&self, tag: u64, result: Result<(), ChanError<I>>) {
        let resp = result.map_or_else(Resp::ChanErr, |()| Resp::Unit);
        self.state.lock().record(tag, resp);
    }

    /// Answers, and keeps the list — no larger than a decode reserves
    /// up front — for a later selection while there is room.
    fn selected(
        &self,
        tag: u64,
        result: Result<Outcome<I, M>, ChanError<I>>,
        mut arms: Vec<Arm<I, M>>,
    ) {
        arms.clear();
        let mut st = self.state.lock();
        st.record(tag, result.map_or_else(Resp::ChanErr, Resp::Selected));
        if st.spare_arms.len() < SPARE_ARM_LISTS && arms.capacity() <= 64 {
            st.spare_arms.push(arms);
        }
    }
}

impl<I: Wire, M: Wire> SessionState<I, M> {
    /// Queues one answer on the attached connection, if any.
    fn answer(&self, req_id: u64, resp: &Resp<I, M>) {
        if let Some(tx) = &self.writer {
            tx.answer(req_id, resp);
        }
    }

    /// Queues `resp` on the attached connection, if any, and records it
    /// in the exactly-once table: a severed session simply accumulates
    /// answers for the eventual replay.
    fn record(&mut self, req_id: u64, resp: Resp<I, M>) {
        self.answer(req_id, &resp);
        self.answers.insert(req_id, Some(resp));
    }
}

fn clone_of<M: Clone>(m: &M) -> M {
    m.clone()
}

/// The label-less default labeler installed at bind.
fn no_label<M>(_: &M) -> Option<String> {
    None
}
