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
//! data plane. A control connection is one frame in (read under
//! `CONTROL_READ_DEADLINE`), one frame out, then close; only
//! `RelayConnect` keeps its connection, as the splice.
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

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::descriptor::PerfDescriptor;
use crate::frame::{read_frame, write_frame};
use crate::wire::{Reader, Wire, WireError};

/// Most placements the fleet remembers; one more evicts the oldest
/// (lowest epoch).
const PLACEMENT_CAP: usize = 4096;

/// Most data nodes the fleet remembers; one more evicts the oldest
/// registration.
const NODE_CAP: usize = 256;

/// How long the fleet waits on a read for a control connection's one
/// request frame before closing it. Relay mode clears it: a spliced
/// stream may idle for as long as its session does.
const CONTROL_READ_DEADLINE: Duration = Duration::from_secs(2);

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
}

impl FleetState {
    fn new(secret: u64) -> Self {
        Self {
            secret,
            tables: Mutex::default(),
            relayed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
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
/// against the same state, a thread per connection (control traffic is
/// sparse). Dropping the fleet stops them all.
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
        let state = Arc::new(FleetState::new(secret));
        for (i, listener) in listeners.into_iter().enumerate() {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name(format!("fleet-hub-{i}"))
                .spawn(move || accept_loop(state, listener))
                .expect("spawn fleet listener");
        }
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

    /// Stops every accept loop. Existing relay splices keep running
    /// until their endpoints close.
    pub fn shutdown(&self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock each accept(2) with a throwaway dial.
        for addr in &self.addrs {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(100));
        }
    }
}

impl Drop for HubFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pause after a failed `accept(2)` before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

fn accept_loop(state: Arc<FleetState>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accepted {
            Ok((s, _)) => s,
            Err(_) => {
                // `EMFILE`/`ENFILE` fail at once and keep failing until
                // descriptors free up: back off instead of spinning.
                thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        let state = Arc::clone(&state);
        let _ = thread::Builder::new()
            .name(String::from("fleet-conn"))
            .spawn(move || serve_conn(&state, stream));
    }
}

/// Serves one control connection: one request frame, one answer, close
/// — or, for `RelayConnect`, the splice. An error closes it unanswered.
fn serve_conn(state: &Arc<FleetState>, mut stream: TcpStream) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(CONTROL_READ_DEADLINE))?;
    let Some(frame) = read_frame(&mut stream)? else {
        return Ok(());
    };
    // Protocol corruption: sever, like the data plane does.
    let req =
        FleetReq::from_bytes(&frame).map_err(|_| protocol_err("undecodable fleet request"))?;
    match req {
        FleetReq::RelayConnect { addr } => relay(state, stream, &addr),
        req => write_frame(&mut stream, &state.handle(req).to_bytes()),
    }
}

/// Dials `addr` and splices `client` ↔ target until either side
/// closes, counting every byte into the fleet's relay counter.
fn relay(state: &Arc<FleetState>, mut client: TcpStream, addr: &str) -> io::Result<()> {
    let Ok(upstream) = TcpStream::connect(addr) else {
        return write_frame(&mut client, &FleetResp::NotFound.to_bytes());
    };
    let _ = upstream.set_nodelay(true);
    // The control deadline ends here; clones share the setting.
    client.set_read_timeout(None)?;
    write_frame(&mut client, &FleetResp::RelayOk.to_bytes())?;
    let (client_r, upstream_r) = (client.try_clone()?, upstream.try_clone()?);
    let back = Arc::clone(state);
    thread::Builder::new()
        .name(String::from("fleet-relay"))
        .spawn(move || splice(upstream_r, client, &back.relayed))?;
    splice(client_r, upstream, &state.relayed);
    Ok(())
}

/// Copies bytes `from` → `to` until EOF or error, then propagates the
/// shutdown so the opposite splice direction unblocks too.
fn splice(mut from: TcpStream, mut to: TcpStream, counter: &AtomicU64) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                counter.fetch_add(n as u64, Ordering::Relaxed);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
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
}
