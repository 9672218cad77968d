//! The federated control plane: a placement service and a byte relay.
//!
//! A [`HubFleet`] is one table — registered data nodes and the
//! placements made on them — behind `n` listening addresses, any of
//! which serves every request. It *places*; it does not enroll or
//! match. A participant registers data nodes, asks for a performance
//! to be placed, and gets back one signed [`PerfDescriptor`] naming the
//! performance's *home node*. From then on the fleet is out of the data
//! path: participants dial the home node directly and run sends/selects
//! over the ordinary [`SocketTransport`](crate::SocketTransport) RPC.
//!
//! When a direct dial fails (NAT, firewall, injected fault), a spoke
//! falls back to [`relay_connect`]: it dials any fleet address, sends a
//! [`FleetReq::RelayConnect`] preamble, and the fleet splices bytes
//! both ways between spoke and target. After the preamble the relayed
//! stream is indistinguishable from a direct connection — sessions,
//! resumption, and event streams work unchanged — and the fleet counts
//! every relayed byte so tests can prove which plane traffic used.
//!
//! The fleet speaks its own append-only tag space ([`FleetReq`] /
//! [`FleetResp`]) over the same 4-byte length-prefixed framing as the
//! data plane. A control connection is one frame in, one frame out,
//! then close, all within `CONTROL_READ_DEADLINE` of the accept; only
//! `RelayConnect` keeps its connection, as the splice.
//!
//! # Who owns a connection
//!
//! The fleet owns no thread. Like a hub it is a source on the process's
//! one `script-net-io` thread ([`reactor`]), and a
//! connection has at most three owners in turn:
//!
//! 1. **The fleet's source** holds the `n` nonblocking listeners and
//!    every control connection not answered yet — at most `CONTROL_CAP`,
//!    the oldest closed for one more. `Place` and `RegisterNode` are
//!    table work: answered on the turn that completes their frame,
//!    closed once the answer has flushed.
//! 2. **A `fleet-dial` thread**, short-lived, takes a `RelayConnect`
//!    connection out of the poll set: dialing the target (bounded by
//!    `RELAY_DIAL_DEADLINE`) is the one thing here that blocks. It
//!    answers `RelayOk` / `NotFound` and ends.
//! 3. **A splice source**, one per relayed connection, carries the
//!    bytes: both streams nonblocking, a `QUEUE`-byte buffer per
//!    direction, read interest on an end only while the buffer toward
//!    the other is empty, write interest only while its own is not; what
//!    the client pipelined behind its preamble goes first. A process's
//!    relays share the I/O thread with its hubs and spokes, and outlive
//!    the [`HubFleet`] that made them.
//!
//! Nothing running on the I/O thread — an observer, a completion
//! callback — may call [`FleetClient`] or [`relay_connect`] on a fleet
//! of its own process: they block on an answer that thread would have
//! to write.
//!
//! Both tables are bounded. At `NODE_CAP` the oldest registration is
//! evicted (registering a node again refreshes it); at `PLACEMENT_CAP`
//! the oldest placement is. A `Place` for an evicted key is a fresh
//! placement with a higher [`epoch`](PerfDescriptor::epoch): telling a
//! re-placement from a descriptor still held is what the epoch is for.
//!
//! Tag numbers are never reused. The retired forms — nothing emits or
//! accepts them, and their numbers stay reserved — are `FleetReq` tags
//! 2 (placement lookup), 4 (address list) and 5 (relay byte count), and
//! `FleetResp` tags 1 (redirect to another address), 5 (address list)
//! and 6 (byte count).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::descriptor::PerfDescriptor;
use crate::frame::{read_frame, write_frame, FrameDecoder, ReadStatus, WriteBuf};
use crate::reactor::{self, fd_of, Cause, Io, Notify, Source, Turn};
use crate::wire::{Reader, Wire, WireError};

/// Most placements the fleet remembers; one more evicts the oldest
/// (lowest epoch).
const PLACEMENT_CAP: usize = 4096;

/// Most data nodes the fleet remembers; one more evicts the oldest
/// registration.
const NODE_CAP: usize = 256;

/// How long after the accept a control connection may take to send its
/// one request frame and read its answer before the fleet closes it. A
/// splice has none: it may idle for as long as its session does.
const CONTROL_READ_DEADLINE: Duration = Duration::from_secs(2);

/// Most control connections the fleet holds unanswered; one more closes
/// the oldest.
const CONTROL_CAP: usize = 256;

/// How long a `fleet-dial` thread waits for a relay target to accept,
/// and for the client to take the answer.
const RELAY_DIAL_DEADLINE: Duration = Duration::from_secs(2);

/// Most bytes a splice holds per direction (beyond whatever one read
/// pass took behind a preamble).
const QUEUE: usize = 16 * 1024;

/// One control-plane request. Append-only tag space: never renumber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetReq {
    /// Registers a data node (tag 0): `addr` is a dialable
    /// `host:port` the fleet may choose as a performance's home node.
    RegisterNode {
        /// The node's dialable address.
        addr: String,
    },
    /// Places a performance (tag 1). Idempotent — the first call for a
    /// `(family, perf)` mints the descriptor, later calls merge unseen
    /// roles and return the same placement.
    Place {
        /// Role family; with `perf`, the placement's key.
        family: String,
        /// The performance to place.
        perf: u64,
        /// `(role, address)` pairs this participant enrolls.
        roles: Vec<(String, String)>,
        /// Chaos seed the data plane must replay, if any.
        chaos_seed: Option<u64>,
    },
    /// Switches this connection into relay mode (tag 3): the fleet
    /// dials `addr`, answers [`FleetResp::RelayOk`], then splices bytes
    /// both ways until either side closes.
    RelayConnect {
        /// The data-plane address to relay to.
        addr: String,
    },
}

/// One control-plane response. Append-only tag space: never renumber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetResp {
    /// The request succeeded with nothing to return (tag 0).
    Unit,
    /// A placement (tag 2), signed by the fleet.
    Descriptor(PerfDescriptor),
    /// The request named something the fleet does not know (tag 3): an
    /// undialable relay target, a placement attempt with no data nodes
    /// registered.
    NotFound,
    /// The relay is up (tag 4); every byte after this frame is spliced
    /// verbatim to the target.
    RelayOk,
}

impl Wire for FleetReq {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FleetReq::RegisterNode { addr } => {
                out.push(0);
                addr.encode(out);
            }
            FleetReq::Place {
                family,
                perf,
                roles,
                chaos_seed,
            } => {
                out.push(1);
                family.encode(out);
                perf.encode(out);
                roles.encode(out);
                chaos_seed.encode(out);
            }
            // 2 is retired.
            FleetReq::RelayConnect { addr } => {
                out.push(3);
                addr.encode(out);
            } // 4 and 5 are retired.
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => FleetReq::RegisterNode {
                addr: String::decode(r)?,
            },
            1 => FleetReq::Place {
                family: String::decode(r)?,
                perf: u64::decode(r)?,
                roles: Vec::<(String, String)>::decode(r)?,
                chaos_seed: Option::<u64>::decode(r)?,
            },
            3 => FleetReq::RelayConnect {
                addr: String::decode(r)?,
            },
            _ => return Err(WireError::Invalid("fleet request tag")),
        })
    }
}

impl Wire for FleetResp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FleetResp::Unit => out.push(0),
            // 1 is retired.
            FleetResp::Descriptor(d) => {
                out.push(2);
                d.encode(out);
            }
            FleetResp::NotFound => out.push(3),
            FleetResp::RelayOk => out.push(4),
            // 5 and 6 are retired.
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => FleetResp::Unit,
            2 => FleetResp::Descriptor(PerfDescriptor::decode(r)?),
            3 => FleetResp::NotFound,
            4 => FleetResp::RelayOk,
            _ => return Err(WireError::Invalid("fleet response tag")),
        })
    }
}

/// FNV-1a over a role family name: spreads a family's performances
/// over the registered nodes.
fn family_hash(family: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in family.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A placement's key: role family and performance id.
type PlacementKey = (String, u64);

/// The fleet's two tables, under one lock.
#[derive(Debug, Default)]
struct Tables {
    /// Registered data nodes, oldest registration first.
    nodes: VecDeque<String>,
    placements: HashMap<PlacementKey, PerfDescriptor>,
    /// The keys of `placements`, oldest (lowest epoch) first: epochs
    /// are handed out in insertion order and a merge keeps its epoch.
    placed: VecDeque<PlacementKey>,
    /// The last epoch handed out.
    epoch: u64,
}

/// The state every listening address serves.
#[derive(Debug)]
struct FleetState {
    secret: u64,
    tables: Mutex<Tables>,
    relayed: AtomicU64,
    shutdown: AtomicBool,
    /// The fleet source's doorbell, rung once `shutdown` is set.
    notify: Arc<Notify>,
}

impl FleetState {
    fn new(secret: u64) -> Self {
        Self {
            secret,
            tables: Mutex::default(),
            relayed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            notify: Arc::default(),
        }
    }

    /// Answers one table request.
    fn handle(&self, req: FleetReq) -> FleetResp {
        let mut guard = self.tables.lock().unwrap();
        let t = &mut *guard;
        match req {
            FleetReq::RegisterNode { addr } => {
                // Registering again moves the node to the young end.
                t.nodes.retain(|n| *n != addr);
                if t.nodes.len() == NODE_CAP {
                    t.nodes.pop_front();
                }
                t.nodes.push_back(addr);
                FleetResp::Unit
            }
            FleetReq::Place {
                family,
                perf,
                roles,
                chaos_seed,
            } => {
                let key = (family, perf);
                if let Some(d) = t.placements.get_mut(&key) {
                    // Idempotent: merge roles this participant enrolls
                    // that the first placement did not know about.
                    let mut merged = false;
                    for (role, addr) in roles {
                        if !d.peers.iter().any(|(r, _)| *r == role) {
                            d.peers.push((role, addr));
                            merged = true;
                        }
                    }
                    if merged {
                        *d = d.clone().sign(self.secret);
                    }
                    return FleetResp::Descriptor(d.clone());
                }
                if t.nodes.is_empty() {
                    return FleetResp::NotFound;
                }
                let pick = family_hash(&key.0) ^ perf.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let home = t.nodes[(pick % t.nodes.len() as u64) as usize].clone();
                t.epoch += 1;
                let mut d = PerfDescriptor::new(perf, t.epoch, chaos_seed, home);
                d.peers = roles;
                let d = d.sign(self.secret);
                if t.placed.len() == PLACEMENT_CAP {
                    if let Some(oldest) = t.placed.pop_front() {
                        t.placements.remove(&oldest);
                    }
                }
                t.placed.push_back(key.clone());
                t.placements.insert(key, d.clone());
                FleetResp::Descriptor(d)
            }
            // Relay mode belongs to the connection, not the tables.
            FleetReq::RelayConnect { .. } => FleetResp::NotFound,
        }
    }
}

/// The federated control plane: one placement table and a byte relay
/// behind a set of listening addresses.
///
/// The addresses are loopback ports; every one serves every request
/// against the same state, all of them as one source on the process's
/// I/O thread (see the module docs). Dropping the fleet stops them all.
#[derive(Debug)]
pub struct HubFleet {
    state: Arc<FleetState>,
    addrs: Vec<SocketAddr>,
}

impl HubFleet {
    /// Binds `addrs` listening addresses (at least one) on loopback and
    /// serves them, with `secret` as the descriptor-signing key.
    ///
    /// # Errors
    ///
    /// Any socket bind failure.
    pub fn launch(addrs: usize, secret: u64) -> io::Result<Self> {
        let listeners = (0..addrs.max(1))
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<Vec<_>>>()?;
        for listener in &listeners {
            listener.set_nonblocking(true)?;
        }
        let state = Arc::new(FleetState::new(secret));
        let source = FleetIo {
            state: Arc::clone(&state),
            next_id: listeners.len() as u64,
            listeners,
            conns: BTreeMap::new(),
        };
        reactor::register(Box::new(source), Arc::clone(&state.notify));
        Ok(Self { state, addrs })
    }

    /// Every listening address.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// One dialable address (the first) — any of them serves every
    /// request.
    pub fn any_addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// Total bytes this fleet has relayed between spokes (both
    /// directions). Zero proves the data plane ran peer-to-peer.
    pub fn relayed_bytes(&self) -> u64 {
        self.state.relayed.load(Ordering::Relaxed)
    }

    /// How many placements the fleet holds.
    pub fn placements(&self) -> usize {
        self.state.tables.lock().unwrap().placements.len()
    }

    /// Stops serving: the listeners and the unanswered control
    /// connections close on the fleet source's next turn. Existing
    /// relay splices keep running until their endpoints close.
    pub fn shutdown(&self) {
        if !self.state.shutdown.swap(true, Ordering::SeqCst) {
            self.state.notify.wake();
        }
    }
}

impl Drop for HubFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One control connection not finished yet. Once `out` holds its answer
/// it only flushes.
struct Control {
    stream: TcpStream,
    dec: FrameDecoder,
    out: WriteBuf,
    deadline: Instant,
    tok: usize,
}

/// The fleet as the I/O thread turns it (see the module docs). Poll
/// keys below `listeners.len()` are the listeners; connection ids count
/// up from there, so the map's first entry is the oldest connection and
/// the earliest deadline.
struct FleetIo {
    state: Arc<FleetState>,
    listeners: Vec<TcpListener>,
    conns: BTreeMap<u64, Control>,
    next_id: u64,
}

impl Source for FleetIo {
    fn turn(&mut self, io: &mut Io<'_>, cause: Cause) -> Turn {
        if self.state.shutdown.load(Ordering::SeqCst) {
            return Turn::Done;
        }
        match cause {
            Cause::Attached => {
                for (i, listener) in self.listeners.iter().enumerate() {
                    io.register(fd_of(listener), i as u64, true, false);
                }
            }
            Cause::Ready { key, .. } if key < self.listeners.len() as u64 => {
                self.accept_ready(io, key as usize);
            }
            Cause::Ready { key, .. } => self.serve(io, key),
            Cause::Due => {
                let now = Instant::now();
                while self.oldest_deadline().is_some_and(|at| at <= now) {
                    self.hang_up_oldest(io);
                }
            }
            Cause::Woken => {}
        }
        Turn::Until(self.oldest_deadline())
    }

    /// The listeners and connections close as the source is dropped.
    fn close(&mut self, _io: &mut Io<'_>, _panicked: bool) {}
}

impl FleetIo {
    fn oldest_deadline(&self) -> Option<Instant> {
        self.conns.values().next().map(|conn| conn.deadline)
    }

    fn hang_up_oldest(&mut self, io: &mut Io<'_>) {
        if let Some((_, conn)) = self.conns.pop_first() {
            io.deregister(conn.tok);
        }
    }

    /// Accepts every pending connection on listener `i`.
    fn accept_ready(&mut self, io: &mut Io<'_>, i: usize) {
        loop {
            match self.listeners[i].accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self.conns.len() == CONTROL_CAP {
                        self.hang_up_oldest(io);
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    let control = Control {
                        tok: io.register(fd_of(&stream), id, true, false),
                        stream,
                        dec: FrameDecoder::new(),
                        out: WriteBuf::new(),
                        deadline: Instant::now() + CONTROL_READ_DEADLINE,
                    };
                    self.conns.insert(id, control);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Out of descriptors, most likely, with the listener
                    // still readable: give one back rather than spin.
                    if e.kind() != io::ErrorKind::WouldBlock {
                        self.hang_up_oldest(io);
                    }
                    return;
                }
            }
        }
    }

    /// One ready control connection: reads toward its one request frame,
    /// answers it and flushes the answer. Finished — answered, closed, or
    /// corrupt and severed unanswered, as the data plane does — it leaves
    /// the poll set and closes as it drops; a `RelayConnect` leaves for
    /// its dial thread instead.
    fn serve(&mut self, io: &mut Io<'_>, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        if conn.out.is_empty() {
            let status = conn.dec.read_from(&mut conn.stream);
            let frame = conn.dec.next_frame();
            match frame.map(|f| f.map(|f| FleetReq::from_bytes(&f))) {
                Ok(Some(Ok(FleetReq::RelayConnect { addr }))) => {
                    io.deregister(conn.tok);
                    let state = Arc::clone(&self.state);
                    let (client, first) = (conn.stream, conn.dec.into_remainder());
                    // A failed spawn drops the closure, and the
                    // connection with it.
                    let _ = thread::Builder::new()
                        .name(String::from("fleet-dial"))
                        .spawn(move || dial(state, client, first, &addr));
                    return;
                }
                Ok(Some(Ok(req))) => {
                    let _ = conn.out.push_frame(&self.state.handle(req).to_bytes());
                }
                Ok(None) if matches!(status, Ok(ReadStatus::Blocked)) => {
                    self.conns.insert(id, conn);
                    return;
                }
                _ => return io.deregister(conn.tok),
            }
        }
        match conn.out.flush_to(&mut conn.stream) {
            Ok(false) => {
                io.set_interest(conn.tok, false, true);
                self.conns.insert(id, conn);
            }
            Ok(true) | Err(_) => io.deregister(conn.tok),
        }
    }
}

/// The `fleet-dial` thread: dials the relay target, answers the client,
/// and hands both streams to the I/O thread as a [`Splice`]. `first` is
/// what the client sent behind its preamble: counted, and sent on first.
fn dial(
    state: Arc<FleetState>,
    mut client: TcpStream,
    mut first: Vec<u8>,
    addr: &str,
) -> io::Result<()> {
    client.set_nonblocking(false)?;
    client.set_write_timeout(Some(RELAY_DIAL_DEADLINE))?;
    let upstream = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut resolved| resolved.next())
        .and_then(|target| TcpStream::connect_timeout(&target, RELAY_DIAL_DEADLINE).ok());
    let Some(upstream) = upstream else {
        return write_frame(&mut client, &FleetResp::NotFound.to_bytes());
    };
    let _ = upstream.set_nodelay(true);
    write_frame(&mut client, &FleetResp::RelayOk.to_bytes())?;
    client.set_nonblocking(true)?;
    upstream.set_nonblocking(true)?;
    let held = first.len();
    state.relayed.fetch_add(held as u64, Ordering::Relaxed);
    first.resize(held.max(QUEUE), 0);
    let splice = Splice {
        state,
        ends: [client, upstream],
        bufs: [first, vec![0; QUEUE]],
        live: [0..held, 0..0],
        toks: [None; 2],
    };
    reactor::register(Box::new(splice), Arc::default());
    Ok(())
}

/// One relayed connection as the I/O thread turns it: the client is
/// end 0, the target end 1, and `bufs[i][live[i]]` is what was read from
/// end `i` and not yet written to the other. Every byte read is counted
/// into the fleet's relay counter. The splice is over when either end
/// closes or fails — once what was read before that has been written —
/// and then both ends are shut.
struct Splice {
    state: Arc<FleetState>,
    ends: [TcpStream; 2],
    bufs: [Vec<u8>; 2],
    live: [Range<usize>; 2],
    /// Poll tokens by end; `None` once the end has hung up.
    toks: [Option<usize>; 2],
}

impl Splice {
    /// Moves bytes from end `from` to the other for as long as neither
    /// would block: writes what is queued, then reads straight into the
    /// empty queue. A short read has emptied the socket and ends the
    /// pass, as [`FrameDecoder::read_from`] does — except on an end that
    /// has hung up, which poll will not report again: that one is read
    /// to its EOF. Returns `true` when the splice is over.
    fn pump(&mut self, from: usize) -> bool {
        let polled = self.toks[from].is_some();
        let (buf, live) = (&mut self.bufs[from], &mut self.live[from]);
        let mut dry = false;
        loop {
            if live.start == live.end {
                if dry {
                    return false;
                }
                match (&self.ends[from]).read(buf) {
                    Ok(0) => return true,
                    Ok(n) => {
                        self.state.relayed.fetch_add(n as u64, Ordering::Relaxed);
                        *live = 0..n;
                        dry = polled && n < buf.len();
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock && polled => return false,
                    Err(_) => return true,
                }
            }
            match (&self.ends[1 - from]).write(&buf[live.clone()]) {
                Ok(0) => return true,
                Ok(n) => live.start += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(_) => return true,
            }
        }
    }
}

impl Source for Splice {
    fn turn(&mut self, io: &mut Io<'_>, cause: Cause) -> Turn {
        let over = match cause {
            Cause::Attached => {
                for end in 0..2 {
                    let fd = fd_of(&self.ends[end]);
                    self.toks[end] = Some(io.register(fd, end as u64, true, false));
                }
                // What came in behind the preamble goes first.
                !self.live[0].is_empty() && self.pump(0)
            }
            Cause::Ready { key, readiness } => {
                let end = key as usize;
                // poll(2) reports a hangup whatever the interest bits:
                // left in the set while the queue toward a slow peer is
                // full, this end would bring the I/O thread out of
                // `poll` in a loop.
                if let Some(tok) = self.toks[end].take_if(|_| readiness.hangup) {
                    io.deregister(tok);
                }
                ((readiness.readable || readiness.hangup) && self.pump(end))
                    || (readiness.writable && self.pump(1 - end))
            }
            Cause::Woken | Cause::Due => false,
        };
        if over {
            return Turn::Done;
        }
        for end in 0..2 {
            if let Some(tok) = self.toks[end] {
                let (read, write) = (self.live[end].is_empty(), !self.live[1 - end].is_empty());
                io.set_interest(tok, read, write);
            }
        }
        Turn::Until(None)
    }

    /// Both ends close as the source is dropped: nobody else holds them.
    fn close(&mut self, _io: &mut Io<'_>, _panicked: bool) {}
}

/// A control-plane client: one fleet address, and the secret to verify
/// descriptor signatures with before trusting a placement.
#[derive(Debug, Clone)]
pub struct FleetClient {
    addr: SocketAddr,
    secret: u64,
}

impl FleetClient {
    /// A client of the fleet listening at `addr` (any of its
    /// addresses), keeping `secret` for signature verification. Dials
    /// nothing: each request is its own connection.
    ///
    /// # Errors
    ///
    /// `addr` does not resolve to a socket address.
    pub fn connect(addr: &str, secret: u64) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| protocol_err("fleet address resolves to nothing"))?;
        Ok(Self { addr, secret })
    }

    /// Registers a data node the fleet may pick as a home node.
    ///
    /// # Errors
    ///
    /// Dial or protocol failure.
    pub fn register_node(&self, addr: &str) -> io::Result<()> {
        match one_shot(
            self.addr,
            &FleetReq::RegisterNode {
                addr: addr.to_string(),
            },
        )? {
            FleetResp::Unit => Ok(()),
            _ => Err(protocol_err("unexpected response to RegisterNode")),
        }
    }

    /// Places (or joins) performance `perf` in `family`, enrolling
    /// `roles`, and returns the fleet's signed descriptor.
    ///
    /// # Errors
    ///
    /// Dial failure, no registered data nodes (`NotFound`), or a
    /// descriptor whose signature does not verify under this client's
    /// secret.
    pub fn place(
        &self,
        family: &str,
        perf: u64,
        roles: &[(String, String)],
        chaos_seed: Option<u64>,
    ) -> io::Result<PerfDescriptor> {
        match one_shot(
            self.addr,
            &FleetReq::Place {
                family: family.to_string(),
                perf,
                roles: roles.to_vec(),
                chaos_seed,
            },
        )? {
            FleetResp::Descriptor(d) if d.verify(self.secret) => Ok(d),
            FleetResp::Descriptor(_) => {
                Err(protocol_err("descriptor signature failed verification"))
            }
            FleetResp::NotFound => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "fleet has no placement (no data nodes registered?)",
            )),
            _ => Err(protocol_err("unexpected response to placement request")),
        }
    }
}

/// Opens a relayed connection to `target` through the fleet address
/// `hub`: after the preamble handshake the returned stream behaves
/// exactly like a direct connection to `target`.
///
/// # Errors
///
/// Dial failure to the fleet, or `NotFound` (as `ConnectionRefused`) if
/// the fleet cannot dial the target.
pub fn relay_connect(hub: &str, target: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(hub)?;
    stream.set_nodelay(true)?;
    let preamble = FleetReq::RelayConnect {
        addr: target.to_string(),
    };
    match exchange(&mut stream, &preamble)? {
        FleetResp::RelayOk => Ok(stream),
        FleetResp::NotFound => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "fleet could not dial the relay target",
        )),
        _ => Err(protocol_err("unexpected relay preamble response")),
    }
}

/// One request, one response, one connection.
fn one_shot(addr: SocketAddr, req: &FleetReq) -> io::Result<FleetResp> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    exchange(&mut stream, req)
}

/// Writes `req` and reads the one frame that answers it.
fn exchange(stream: &mut TcpStream, req: &FleetReq) -> io::Result<FleetResp> {
    write_frame(stream, &req.to_bytes())?;
    match read_frame(stream)? {
        Some(frame) => {
            FleetResp::from_bytes(&frame).map_err(|_| protocol_err("undecodable fleet response"))
        }
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "fleet closed before responding",
        )),
    }
}

fn protocol_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn roles(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(r, a)| (r.to_string(), a.to_string()))
            .collect()
    }

    fn place_req(family: &str, perf: u64) -> FleetReq {
        FleetReq::Place {
            family: family.to_string(),
            perf,
            roles: Vec::new(),
            chaos_seed: None,
        }
    }

    /// A socketless fleet with one registered node.
    fn state_with_node() -> FleetState {
        let state = FleetState::new(7);
        let addr = String::from("127.0.0.1:7000");
        state.handle(FleetReq::RegisterNode { addr });
        state
    }

    fn placed(state: &FleetState, family: &str, perf: u64) -> PerfDescriptor {
        match state.handle(place_req(family, perf)) {
            FleetResp::Descriptor(d) => d,
            other => panic!("not placed: {other:?}"),
        }
    }

    #[test]
    fn retired_fleet_tags_stay_reserved() {
        // Written out by hand against the layouts the retired forms
        // had, so re-adding a decode arm — or reusing a number for
        // something new — fails here.
        // FleetReq 2 (`DescriptorOf`): family, perf. 4 (`Shards`) and 5
        // (`RelayedBytes`) took no payload.
        let mut descriptor_of = vec![2u8];
        String::from("gossip").encode(&mut descriptor_of);
        3u64.encode(&mut descriptor_of);
        for frame in [descriptor_of, vec![4u8], vec![5u8]] {
            assert!(matches!(
                FleetReq::from_bytes(&frame),
                Err(WireError::Invalid("fleet request tag"))
            ));
        }
        // FleetResp 1 (`Redirect`): an address. 5 (`ShardList`): a
        // vector of addresses. 6 (`Bytes`): a count.
        let mut redirect = vec![1u8];
        String::from("127.0.0.1:12").encode(&mut redirect);
        let mut shard_list = vec![5u8];
        vec![String::from("a"), String::from("b")].encode(&mut shard_list);
        let mut bytes = vec![6u8];
        77u64.encode(&mut bytes);
        for frame in [redirect, shard_list, bytes] {
            assert!(matches!(
                FleetResp::from_bytes(&frame),
                Err(WireError::Invalid("fleet response tag"))
            ));
        }
    }

    #[test]
    fn placement_is_idempotent_and_merges_roles() {
        let fleet = HubFleet::launch(3, 42).unwrap();
        let client = FleetClient::connect(&fleet.any_addr().to_string(), 42).unwrap();
        client.register_node("127.0.0.1:7001").unwrap();

        let d = client
            .place("fam", 9, &roles(&[("caster", "127.0.0.1:7002")]), Some(5))
            .unwrap();
        assert_eq!(d.perf, 9);
        assert_eq!(d.chaos_seed, Some(5));
        assert_eq!(d.home, "127.0.0.1:7001");
        assert!(d.verify(42));

        // A second participant joins: same placement, roles merged.
        let d2 = client
            .place(
                "fam",
                9,
                &roles(&[("recipient", "127.0.0.1:7003")]),
                Some(5),
            )
            .unwrap();
        assert_eq!(d2.perf, d.perf);
        assert_eq!(d2.epoch, d.epoch);
        assert_eq!(d2.home, d.home);
        assert_eq!(d2.peers.len(), 2);
        assert!(d2.verify(42));
        assert_eq!(fleet.placements(), 1);
    }

    #[test]
    fn same_perf_id_in_two_families_places_twice() {
        let state = state_with_node();
        let seeded = |family: &str, seed| FleetReq::Place {
            family: family.to_string(),
            perf: 7,
            roles: roles(&[(family, "127.0.0.1:7100")]),
            chaos_seed: Some(seed),
        };
        let a = state.handle(seeded("a", 1));
        let FleetResp::Descriptor(b) = state.handle(seeded("b", 2)) else {
            panic!("b not placed");
        };
        // Family `b` gets its own placement, not family `a`'s.
        assert_eq!(b.chaos_seed, Some(2));
        assert_eq!(b.peers, roles(&[("b", "127.0.0.1:7100")]));
        assert_eq!(state.tables.lock().unwrap().placements.len(), 2);
        // And `a`'s is untouched by it.
        assert_eq!(state.handle(seeded("a", 1)), a);
    }

    #[test]
    fn placement_table_is_bounded_and_a_replacement_has_a_higher_epoch() {
        let state = state_with_node();
        let first = placed(&state, "fam", 0);
        let mut newest = first.clone();
        for perf in 1..10_000 {
            newest = placed(&state, "fam", perf);
            assert!(state.tables.lock().unwrap().placements.len() <= PLACEMENT_CAP);
        }
        {
            let t = state.tables.lock().unwrap();
            assert_eq!(t.placements.len(), PLACEMENT_CAP);
            assert_eq!(t.placed.len(), PLACEMENT_CAP);
        }
        // The newest placement is still there: placing it again mints
        // nothing.
        assert_eq!(placed(&state, "fam", 9_999), newest);
        // The oldest was evicted: placing it again is a fresh placement
        // a holder of the old descriptor can tell from its own.
        let again = placed(&state, "fam", 0);
        assert!(again.epoch > newest.epoch && again.epoch > first.epoch);
    }

    #[test]
    fn node_table_is_bounded_and_registering_again_refreshes() {
        let state = FleetState::new(7);
        let register = |i: usize| {
            let addr = format!("127.0.0.1:{}", 10_000 + i);
            state.handle(FleetReq::RegisterNode { addr });
        };
        (0..NODE_CAP).for_each(register);
        // Node 0 is the oldest; registering it again makes it the
        // youngest, so the next eviction takes node 1.
        register(0);
        register(NODE_CAP);
        let t = state.tables.lock().unwrap();
        assert_eq!(t.nodes.len(), NODE_CAP);
        assert_eq!(t.nodes.front().unwrap(), "127.0.0.1:10002");
        assert_eq!(
            t.nodes.iter().filter(|n| *n == "127.0.0.1:10000").count(),
            1
        );
    }

    #[test]
    fn every_address_serves_every_family() {
        let fleet = HubFleet::launch(3, 42).unwrap();
        assert_eq!(fleet.addrs().len(), 3);
        let client = FleetClient::connect(&fleet.addrs()[2].to_string(), 42).unwrap();
        client.register_node("127.0.0.1:7001").unwrap();
        client.register_node("127.0.0.1:7002").unwrap();
        for family in ["star", "commit", "gossip", "family-3", "family-4"] {
            // One connection per address, and the answer on it is the
            // placement itself.
            let answers: Vec<PerfDescriptor> = fleet
                .addrs()
                .iter()
                .map(|addr| {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    match exchange(&mut stream, &place_req(family, 9)).unwrap() {
                        FleetResp::Descriptor(d) => d,
                        other => panic!("{family} at {addr}: {other:?}"),
                    }
                })
                .collect();
            assert!(answers[0].verify(42));
            assert!(answers.iter().all(|d| *d == answers[0]), "{family}");
        }
        assert_eq!(fleet.placements(), 5);
    }

    #[test]
    fn wrong_secret_rejects_the_descriptor() {
        let fleet = HubFleet::launch(1, 42).unwrap();
        let client = FleetClient::connect(&fleet.any_addr().to_string(), 43).unwrap();
        client.register_node("127.0.0.1:7004").unwrap();
        let err = client
            .place("fam", 1, &roles(&[("caster", "127.0.0.1:7005")]), None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn placement_without_data_nodes_is_not_found() {
        let fleet = HubFleet::launch(1, 1).unwrap();
        let client = FleetClient::connect(&fleet.any_addr().to_string(), 1).unwrap();
        let err = client.place("fam", 1, &[], None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn control_connection_is_one_frame_under_a_deadline() {
        let fleet = HubFleet::launch(1, 1).unwrap();
        let client = FleetClient::connect(&fleet.any_addr().to_string(), 1).unwrap();
        client.register_node("127.0.0.1:7006").unwrap();
        let dial = || {
            let stream = TcpStream::connect(fleet.any_addr()).unwrap();
            let patience = Some(CONTROL_READ_DEADLINE * 4);
            stream.set_read_timeout(patience).unwrap();
            stream
        };
        // A connection that says nothing meets EOF — the fleet hung up
        // — not its own, longer, timeout.
        let mut silent = dial();
        let t0 = Instant::now();
        assert_eq!(silent.read(&mut [0u8; 1]).unwrap(), 0);
        assert!(t0.elapsed() >= CONTROL_READ_DEADLINE / 2);

        let mut stream = dial();
        let first = exchange(&mut stream, &place_req("fam", 1)).unwrap();
        assert!(matches!(first, FleetResp::Descriptor(_)));
        // The second write may land in a closed socket's buffer or
        // fail; what must not happen is a second answer.
        let _ = write_frame(&mut stream, &place_req("fam", 2).to_bytes());
        assert!(!matches!(read_frame(&mut stream), Ok(Some(_))));
        assert_eq!(fleet.placements(), 1);
    }

    #[test]
    fn relay_splices_bytes_both_ways_and_counts_them() {
        let fleet = HubFleet::launch(1, 1).unwrap();
        // A one-connection echo server standing in for a home node.
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let echo_addr = echo.local_addr().unwrap().to_string();
        let echoer = thread::spawn(move || {
            let (mut s, _) = echo.accept().unwrap();
            let _ = io::copy(&mut s.try_clone().unwrap(), &mut s);
        });

        let mut relayed = relay_connect(&fleet.any_addr().to_string(), &echo_addr).unwrap();
        let ping = |relayed: &mut TcpStream| {
            relayed.write_all(b"ping-through-the-hub").unwrap();
            let mut got = [0u8; 20];
            relayed.read_exact(&mut got).unwrap();
            assert_eq!(&got, b"ping-through-the-hub");
        };
        ping(&mut relayed);
        // The control deadline does not apply to a splice: idle past
        // it, the stream still carries bytes both ways.
        thread::sleep(CONTROL_READ_DEADLINE + Duration::from_millis(300));
        ping(&mut relayed);
        drop(relayed);
        echoer.join().unwrap();

        // Twice 20 bytes out plus 20 echoed back, both directions
        // counted.
        assert_eq!(fleet.relayed_bytes(), 80);
    }

    #[test]
    fn relay_to_an_undialable_target_is_refused() {
        let fleet = HubFleet::launch(1, 1).unwrap();
        // Grab a port and close it so the dial fails fast.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let err = relay_connect(&fleet.any_addr().to_string(), &dead_addr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    /// Readiness is a hint: `poll(2)` may report an end that then has
    /// nothing to read, and a polled end takes the `WouldBlock` for "not
    /// now", not for the end (an unpolled one is read to its EOF) — as a
    /// hub or spoke connection does through `FrameDecoder::read_from`
    /// (`frame.rs`, `read_from_stops_at_a_short_read`). Driven by hand.
    #[test]
    fn a_splice_pumped_with_nothing_to_read_is_not_over() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pair = || {
            let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let accepted = listener.accept().unwrap().0;
            accepted.set_nonblocking(true).unwrap();
            (dialed, accepted)
        };
        let ((mut client, near_client), (mut target, near_target)) = (pair(), pair());
        let state = Arc::new(FleetState::new(7));
        let mut splice = Splice {
            state: Arc::clone(&state),
            ends: [near_client, near_target],
            bufs: [vec![0; QUEUE], vec![0; QUEUE]],
            live: [0..0, 0..0],
            toks: [Some(0), Some(1)],
        };
        assert!(!splice.pump(0) && !splice.pump(1));
        assert_eq!(state.relayed.load(Ordering::Relaxed), 0);

        client.write_all(b"ping").unwrap();
        let mut poller = reactor::Poller::new();
        poller.register(fd_of(&splice.ends[0]), true, false);
        poller.wait(Some(Duration::from_secs(10))).unwrap();
        assert!(!splice.pump(0), "moved, and the socket is dry again");
        assert_eq!(state.relayed.load(Ordering::Relaxed), 4);
        let mut got = [0u8; 4];
        target.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping");
    }

    /// A one-connection echo server standing in for a home node.
    fn echo_server() -> (String, thread::JoinHandle<()>) {
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = echo.local_addr().unwrap().to_string();
        let echoer = thread::spawn(move || {
            let (mut s, _) = echo.accept().unwrap();
            let _ = io::copy(&mut s.try_clone().unwrap(), &mut s);
        });
        (addr, echoer)
    }

    fn ping(relayed: &mut TcpStream) {
        relayed.write_all(b"ping-through-the-hub").unwrap();
        let mut got = [0u8; 20];
        relayed.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping-through-the-hub");
    }

    /// The byte a pattern stream carries at `offset`: a reader that
    /// knows its own offset checks content and order at once.
    fn pattern(offset: usize) -> u8 {
        (offset ^ (offset >> 8) ^ (offset >> 16)) as u8
    }

    /// Writes the pattern stream from `*offset` on into a nonblocking
    /// `stream` until it has taken nothing for `patience`, or `upto` is
    /// reached.
    fn push_pattern(stream: &mut TcpStream, offset: &mut usize, upto: usize, patience: Duration) {
        let mut progress = Instant::now();
        while *offset < upto && progress.elapsed() < patience {
            let chunk: Vec<u8> = (*offset..upto.min(*offset + 8192)).map(pattern).collect();
            match stream.write(&chunk) {
                Ok(n) => {
                    *offset += n;
                    progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("pattern write: {e}"),
            }
        }
    }

    #[test]
    fn bytes_pipelined_behind_the_preamble_are_relayed() {
        let fleet = HubFleet::launch(1, 1).unwrap();
        let (echo_addr, echoer) = echo_server();
        let mut stream = TcpStream::connect(fleet.any_addr()).unwrap();
        // The preamble and the first data bytes in one segment: the
        // fleet's read of the one takes the other off the socket too.
        let mut bytes = Vec::new();
        let preamble = FleetReq::RelayConnect { addr: echo_addr };
        write_frame(&mut bytes, &preamble.to_bytes()).unwrap();
        bytes.extend_from_slice(b"ping-through-the-hub");
        stream.write_all(&bytes).unwrap();
        let answer = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(FleetResp::from_bytes(&answer), Ok(FleetResp::RelayOk));
        let mut got = [0u8; 20];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping-through-the-hub");
        drop(stream);
        echoer.join().unwrap();
        assert_eq!(fleet.relayed_bytes(), 40);
    }

    #[test]
    fn silent_connections_are_bounded_and_meet_the_deadline() {
        let fleet = HubFleet::launch(2, 1).unwrap();
        let t0 = Instant::now();
        let silent: Vec<TcpStream> = (0..300)
            .map(|i| TcpStream::connect(fleet.addrs()[i % 2]).unwrap())
            .collect();
        // Held or not, none of them is in the way of a request.
        let client = FleetClient::connect(&fleet.any_addr().to_string(), 1).unwrap();
        client.register_node("127.0.0.1:7007").unwrap();
        let asked = Instant::now();
        client.place("fam", 1, &[], None).unwrap();
        assert!(asked.elapsed() < Duration::from_millis(100));
        assert_eq!(crate::io_stats().io_threads, 1, "no thread per connection");
        // The ones over `CONTROL_CAP` were closed to make room, the rest
        // at their deadline: all of them have met EOF by twice that.
        for mut stream in silent {
            let left = (CONTROL_READ_DEADLINE * 2).saturating_sub(t0.elapsed());
            let patience = left.max(Duration::from_millis(1));
            stream.set_read_timeout(Some(patience)).unwrap();
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0);
        }
    }

    /// Sharing a thread is fair: a relay whose far end stalls holds one
    /// queue and no more, and holds nobody else up.
    #[test]
    fn a_stalled_relay_backs_up_into_its_writer_alone() {
        use script_chan::{Arm, Outcome, ShardedTransport, Transport};
        const MIB: usize = 1 << 20;

        let fleet = HubFleet::launch(1, 1).unwrap();
        let fleet_addr = fleet.any_addr().to_string();
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink.local_addr().unwrap().to_string();
        let mut stalled = relay_connect(&fleet_addr, &sink_addr).unwrap();
        let (mut sunk, _) = sink.accept().unwrap();
        stalled.set_nonblocking(true).unwrap();

        // The writer pushes until nothing has moved for a while: the
        // socket buffers on both hops and one queue are full.
        let mut written = 0;
        let patience = Duration::from_millis(200);
        push_pattern(&mut stalled, &mut written, 256 * MIB, patience);
        assert!(written < 256 * MIB, "the relay never pushed back");
        let held = fleet.relayed_bytes();
        assert!(held <= written as u64);

        // Meanwhile a hub and a spoke, and a second relay, take their
        // turns on the same thread.
        let inner: Arc<dyn Transport<String, u64>> =
            Arc::new(ShardedTransport::new(false, Some(7)));
        let server = crate::TransportServer::bind("127.0.0.1:0", inner).unwrap();
        let spoke = crate::SocketTransport::<String, u64>::connect(server.local_addr()).unwrap();
        let (a, b) = ("a".to_string(), "b".to_string());
        spoke.activate(a.clone());
        spoke.activate(b.clone());
        let (echo_addr, echoer) = echo_server();
        let mut second = relay_connect(&fleet_addr, &echo_addr).unwrap();
        for round in 0..20u64 {
            let asked = Instant::now();
            let far = Some(asked + Duration::from_secs(10));
            thread::scope(|s| {
                s.spawn(|| spoke.send(&a, &b, round, far).unwrap());
                let got = spoke.select(&b, vec![Arm::recv_any()], far);
                assert!(matches!(got, Ok(Outcome::Received { msg, .. }) if msg == round));
            });
            ping(&mut second);
            assert!(asked.elapsed() < Duration::from_secs(1));
        }
        // Twenty echoed pings, both directions; not a byte of the
        // stalled stream.
        assert_eq!(fleet.relayed_bytes(), held + 20 * 40);

        // The far end resumes: everything offered arrives, in order.
        let total = (4 * MIB).max(written + MIB);
        let reader = thread::spawn(move || {
            let (mut seen, mut buf) = (0usize, vec![0u8; 64 * 1024]);
            loop {
                let n = sunk.read(&mut buf).unwrap();
                if n == 0 {
                    return seen;
                }
                for (i, byte) in buf[..n].iter().enumerate() {
                    assert_eq!(*byte, pattern(seen + i), "at offset {}", seen + i);
                }
                seen += n;
            }
        });
        push_pattern(&mut stalled, &mut written, total, Duration::from_secs(10));
        assert_eq!(written, total);
        drop(stalled);
        assert_eq!(reader.join().unwrap(), total);
        drop(second);
        echoer.join().unwrap();
    }
}
