//! The federated control plane: a fleet of matcher hubs sharded by
//! role-family hash.
//!
//! A [`HubFleet`] owns *matching and placement*, nothing else. Spokes
//! dial any shard; requests that carry a role family are routed to the
//! owning shard (`fnv(family) % shards`) with a [`FleetResp::Redirect`]
//! the client follows. The owning shard registers data nodes, picks a
//! *home node* per performance, and mints one signed
//! [`PerfDescriptor`] per placement. From then on the fleet is out of
//! the data path: participants dial the descriptor's home node
//! directly and run sends/selects over the ordinary
//! [`SocketTransport`](crate::SocketTransport) framed RPC.
//!
//! When a direct dial fails (NAT, firewall, injected fault), a spoke
//! falls back to [`relay_connect`]: it dials any fleet shard, sends a
//! [`FleetReq::RelayConnect`] preamble, and the hub splices bytes both
//! ways between spoke and target. After the preamble the relayed
//! stream is indistinguishable from a direct connection — sessions,
//! resumption, and event streams work unchanged — and the hub counts
//! every relayed byte so tests can prove which plane traffic used.
//!
//! The fleet speaks its own append-only tag space ([`FleetReq`] /
//! [`FleetResp`]), one frame per request over the same 4-byte
//! length-prefixed framing as the data plane. Control calls are
//! one-shot connections: the control plane is low-traffic by design,
//! and one-shot keeps shard fail-over trivial.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::descriptor::PerfDescriptor;
use crate::frame::{read_frame, write_frame};
use crate::wire::{Reader, Wire, WireError};

/// One control-plane request. Append-only tag space: never renumber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetReq {
    /// Registers a data node (tag 0): `addr` is a dialable
    /// `host:port` the fleet may choose as a performance's home node.
    RegisterNode {
        /// The node's dialable address.
        addr: String,
    },
    /// Places a performance (tag 1). Routed to the shard owning
    /// `family`; idempotent — the first call mints the descriptor,
    /// later calls merge unseen roles and return the same placement.
    Place {
        /// Role family, the sharding key.
        family: String,
        /// The performance to place.
        perf: u64,
        /// `(role, address)` pairs this participant enrolls.
        roles: Vec<(String, String)>,
        /// Chaos seed the data plane must replay, if any.
        chaos_seed: Option<u64>,
    },
    /// Looks up an existing placement (tag 2). Routed like
    /// [`FleetReq::Place`].
    DescriptorOf {
        /// Role family, the sharding key.
        family: String,
        /// The performance to look up.
        perf: u64,
    },
    /// Switches this connection into relay mode (tag 3): the hub dials
    /// `addr`, answers [`FleetResp::RelayOk`], then splices bytes both
    /// ways until either side closes.
    RelayConnect {
        /// The data-plane address to relay to.
        addr: String,
    },
    /// Asks for the full shard address list (tag 4). Served by any
    /// shard.
    Shards,
    /// Asks how many bytes this fleet has relayed (tag 5). Served by
    /// any shard.
    RelayedBytes,
}

/// One control-plane response. Append-only tag space: never renumber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetResp {
    /// The request succeeded with nothing to return (tag 0).
    Unit,
    /// The addressed shard does not own the request's family (tag 1);
    /// retry against `addr`.
    Redirect {
        /// The owning shard's address.
        addr: String,
    },
    /// A placement (tag 2), signed by the fleet.
    Descriptor(PerfDescriptor),
    /// The request named something the fleet does not know (tag 3): an
    /// unplaced performance, an undialable relay target, a placement
    /// attempt with no data nodes registered.
    NotFound,
    /// The relay is up (tag 4); every byte after this frame is spliced
    /// verbatim to the target.
    RelayOk,
    /// The shard address list (tag 5), one entry per shard in shard
    /// order.
    ShardList(Vec<String>),
    /// A byte count (tag 6).
    Bytes(u64),
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
            FleetReq::DescriptorOf { family, perf } => {
                out.push(2);
                family.encode(out);
                perf.encode(out);
            }
            FleetReq::RelayConnect { addr } => {
                out.push(3);
                addr.encode(out);
            }
            FleetReq::Shards => out.push(4),
            FleetReq::RelayedBytes => out.push(5),
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
            2 => FleetReq::DescriptorOf {
                family: String::decode(r)?,
                perf: u64::decode(r)?,
            },
            3 => FleetReq::RelayConnect {
                addr: String::decode(r)?,
            },
            4 => FleetReq::Shards,
            5 => FleetReq::RelayedBytes,
            _ => return Err(WireError::Invalid("fleet request tag")),
        })
    }
}

impl Wire for FleetResp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FleetResp::Unit => out.push(0),
            FleetResp::Redirect { addr } => {
                out.push(1);
                addr.encode(out);
            }
            FleetResp::Descriptor(d) => {
                out.push(2);
                d.encode(out);
            }
            FleetResp::NotFound => out.push(3),
            FleetResp::RelayOk => out.push(4),
            FleetResp::ShardList(addrs) => {
                out.push(5);
                addrs.encode(out);
            }
            FleetResp::Bytes(n) => {
                out.push(6);
                n.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u8::decode(r)? {
            0 => FleetResp::Unit,
            1 => FleetResp::Redirect {
                addr: String::decode(r)?,
            },
            2 => FleetResp::Descriptor(PerfDescriptor::decode(r)?),
            3 => FleetResp::NotFound,
            4 => FleetResp::RelayOk,
            5 => FleetResp::ShardList(Vec::<String>::decode(r)?),
            6 => FleetResp::Bytes(u64::decode(r)?),
            _ => return Err(WireError::Invalid("fleet response tag")),
        })
    }
}

/// FNV-1a over a role family name: the sharding hash. Stable across
/// processes and builds — every shard and every client must agree on
/// the owner of a family.
pub fn family_hash(family: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in family.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard index owning `family` in a fleet of `shards` shards.
pub fn owner_shard(family: &str, shards: usize) -> usize {
    (family_hash(family) % shards.max(1) as u64) as usize
}

/// Fleet-wide state shared by every shard.
#[derive(Debug)]
struct FleetState {
    secret: u64,
    shard_addrs: Vec<String>,
    nodes: Mutex<Vec<String>>,
    perfs: Mutex<HashMap<u64, PerfDescriptor>>,
    next_epoch: AtomicU64,
    relayed: AtomicU64,
    shutdown: AtomicBool,
}

impl FleetState {
    /// Handles one non-relay request against the shard at `me`.
    fn handle(&self, me: usize, req: FleetReq) -> FleetResp {
        match req {
            FleetReq::RegisterNode { addr } => {
                let mut nodes = self.nodes.lock().unwrap();
                if !nodes.contains(&addr) {
                    nodes.push(addr);
                }
                FleetResp::Unit
            }
            FleetReq::Place {
                family,
                perf,
                roles,
                chaos_seed,
            } => {
                if let Some(resp) = self.route(me, &family) {
                    return resp;
                }
                let mut perfs = self.perfs.lock().unwrap();
                if let Some(d) = perfs.get_mut(&perf) {
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
                let home = {
                    let nodes = self.nodes.lock().unwrap();
                    if nodes.is_empty() {
                        return FleetResp::NotFound;
                    }
                    let pick = family_hash(&family) ^ perf.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    nodes[(pick % nodes.len() as u64) as usize].clone()
                };
                let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
                let mut d = PerfDescriptor::new(perf, epoch, chaos_seed, home);
                d.peers = roles;
                let d = d.sign(self.secret);
                perfs.insert(perf, d.clone());
                FleetResp::Descriptor(d)
            }
            FleetReq::DescriptorOf { family, perf } => {
                if let Some(resp) = self.route(me, &family) {
                    return resp;
                }
                match self.perfs.lock().unwrap().get(&perf) {
                    Some(d) => FleetResp::Descriptor(d.clone()),
                    None => FleetResp::NotFound,
                }
            }
            FleetReq::Shards => FleetResp::ShardList(self.shard_addrs.clone()),
            FleetReq::RelayedBytes => FleetResp::Bytes(self.relayed.load(Ordering::Relaxed)),
            // Relay mode is handled by the connection loop, never here.
            FleetReq::RelayConnect { .. } => FleetResp::NotFound,
        }
    }

    /// `Some(Redirect)` when shard `me` does not own `family`.
    fn route(&self, me: usize, family: &str) -> Option<FleetResp> {
        let owner = owner_shard(family, self.shard_addrs.len());
        if owner == me {
            None
        } else {
            Some(FleetResp::Redirect {
                addr: self.shard_addrs[owner].clone(),
            })
        }
    }
}

/// A fleet of matcher-hub shards: the federated control plane.
///
/// Shards listen on loopback ports, serve [`FleetReq`] frames with a
/// thread per connection (control traffic is sparse), and share one
/// placement table. Dropping the fleet shuts every shard down.
#[derive(Debug)]
pub struct HubFleet {
    state: Arc<FleetState>,
    addrs: Vec<SocketAddr>,
}

impl HubFleet {
    /// Binds and starts `shards` control hubs on loopback, sharing
    /// `secret` as the descriptor-signing key.
    ///
    /// # Errors
    ///
    /// Any socket bind failure.
    pub fn launch(shards: usize, secret: u64) -> io::Result<Self> {
        let shards = shards.max(1);
        let mut listeners = Vec::with_capacity(shards);
        let mut addrs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        let state = Arc::new(FleetState {
            secret,
            shard_addrs: addrs.iter().map(|a| a.to_string()).collect(),
            nodes: Mutex::new(Vec::new()),
            perfs: Mutex::new(HashMap::new()),
            next_epoch: AtomicU64::new(1),
            relayed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        for (i, listener) in listeners.into_iter().enumerate() {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name(format!("fleet-hub-{i}"))
                .spawn(move || accept_loop(state, listener, i))
                .expect("spawn fleet shard");
        }
        Ok(Self { state, addrs })
    }

    /// Every shard's address, in shard order.
    pub fn shard_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// One dialable shard address (shard 0) — any shard routes.
    pub fn any_addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// The descriptor-signing secret, for handing to trusted spokes.
    pub fn secret(&self) -> u64 {
        self.state.secret
    }

    /// Total bytes this fleet has relayed between spokes (both
    /// directions). Zero proves the data plane ran peer-to-peer.
    pub fn relayed_bytes(&self) -> u64 {
        self.state.relayed.load(Ordering::Relaxed)
    }

    /// How many performances the fleet has placed.
    pub fn placements(&self) -> usize {
        self.state.perfs.lock().unwrap().len()
    }

    /// Stops every shard's accept loop. Existing relay splices keep
    /// running until their endpoints close.
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

fn accept_loop(state: Arc<FleetState>, listener: TcpListener, me: usize) {
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
            .spawn(move || serve_conn(state, stream, me));
    }
}

fn serve_conn(state: Arc<FleetState>, mut stream: TcpStream, me: usize) {
    let _ = stream.set_nodelay(true);
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        let req = match FleetReq::from_bytes(&frame) {
            Ok(r) => r,
            // Protocol corruption: sever, like the data plane does.
            Err(_) => return,
        };
        if let FleetReq::RelayConnect { addr } = req {
            relay(&state, stream, &addr);
            return;
        }
        let resp = state.handle(me, req);
        if write_frame(&mut stream, &resp.to_bytes()).is_err() {
            return;
        }
    }
}

/// Dials `addr` and splices `client` ↔ target until either side
/// closes, counting every byte into the fleet's relay counter.
fn relay(state: &Arc<FleetState>, mut client: TcpStream, addr: &str) {
    let upstream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            let _ = write_frame(&mut client, &FleetResp::NotFound.to_bytes());
            return;
        }
    };
    let _ = upstream.set_nodelay(true);
    if write_frame(&mut client, &FleetResp::RelayOk.to_bytes()).is_err() {
        return;
    }
    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let back = Arc::clone(state);
    let _ = thread::Builder::new()
        .name(String::from("fleet-relay"))
        .spawn(move || splice(upstream_r, client, &back.relayed));
    splice(client_r, upstream, &state.relayed);
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

/// A control-plane client: knows every shard, follows redirects, and
/// verifies descriptor signatures before trusting a placement.
#[derive(Debug, Clone)]
pub struct FleetClient {
    shards: Vec<String>,
    secret: u64,
}

impl FleetClient {
    /// Bootstraps from any one shard address: fetches the full shard
    /// list, keeps `secret` for signature verification.
    ///
    /// # Errors
    ///
    /// Dial or protocol failure against the bootstrap shard.
    pub fn connect(any_shard: &str, secret: u64) -> io::Result<Self> {
        match one_shot(any_shard, &FleetReq::Shards)? {
            FleetResp::ShardList(shards) if !shards.is_empty() => Ok(Self { shards, secret }),
            _ => Err(protocol_err("bootstrap shard returned no shard list")),
        }
    }

    /// Registers a data node the fleet may pick as a home node.
    ///
    /// # Errors
    ///
    /// Dial or protocol failure.
    pub fn register_node(&self, addr: &str) -> io::Result<()> {
        match one_shot(
            &self.shards[0],
            &FleetReq::RegisterNode {
                addr: addr.to_string(),
            },
        )? {
            FleetResp::Unit => Ok(()),
            _ => Err(protocol_err("unexpected response to RegisterNode")),
        }
    }

    /// Places (or joins) performance `perf` in `family`, enrolling
    /// `roles`, and returns the fleet's signed descriptor. The call
    /// deliberately starts at shard 0 and follows redirects, so every
    /// placement exercises the routing seam.
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
        let resp = self.routed(&FleetReq::Place {
            family: family.to_string(),
            perf,
            roles: roles.to_vec(),
            chaos_seed,
        })?;
        self.expect_descriptor(resp)
    }

    /// Fetches an existing placement, `Ok(None)` when `perf` is
    /// unplaced.
    ///
    /// # Errors
    ///
    /// Dial failure or a descriptor failing signature verification.
    pub fn descriptor_of(&self, family: &str, perf: u64) -> io::Result<Option<PerfDescriptor>> {
        match self.routed(&FleetReq::DescriptorOf {
            family: family.to_string(),
            perf,
        })? {
            FleetResp::NotFound => Ok(None),
            resp => self.expect_descriptor(resp).map(Some),
        }
    }

    /// Total bytes the fleet has relayed so far.
    ///
    /// # Errors
    ///
    /// Dial or protocol failure.
    pub fn relayed_bytes(&self) -> io::Result<u64> {
        match one_shot(&self.shards[0], &FleetReq::RelayedBytes)? {
            FleetResp::Bytes(n) => Ok(n),
            _ => Err(protocol_err("unexpected response to RelayedBytes")),
        }
    }

    /// Issues a routed request: start at shard 0, follow redirects, at
    /// most one hop per shard in the fleet.
    fn routed(&self, req: &FleetReq) -> io::Result<FleetResp> {
        let mut addr = self.shards[0].clone();
        for _ in 0..self.shards.len().max(1) {
            match one_shot(&addr, req)? {
                FleetResp::Redirect { addr: next } => addr = next,
                resp => return Ok(resp),
            }
        }
        Err(protocol_err("redirect loop exceeded the shard count"))
    }

    fn expect_descriptor(&self, resp: FleetResp) -> io::Result<PerfDescriptor> {
        match resp {
            FleetResp::Descriptor(d) => {
                if d.verify(self.secret) {
                    Ok(d)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "descriptor signature failed verification",
                    ))
                }
            }
            FleetResp::NotFound => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "fleet has no placement (no data nodes registered?)",
            )),
            _ => Err(protocol_err("unexpected response to placement request")),
        }
    }
}

/// Opens a relayed connection to `target` through the fleet shard at
/// `hub`: after the preamble handshake the returned stream behaves
/// exactly like a direct connection to `target`.
///
/// # Errors
///
/// Dial failure to the hub, or `NotFound` (as `ConnectionRefused`) if
/// the hub cannot dial the target.
pub fn relay_connect(hub: &str, target: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(hub)?;
    stream.set_nodelay(true)?;
    write_frame(
        &mut stream,
        &FleetReq::RelayConnect {
            addr: target.to_string(),
        }
        .to_bytes(),
    )?;
    match read_frame(&mut stream)? {
        Some(frame) => match FleetResp::from_bytes(&frame) {
            Ok(FleetResp::RelayOk) => Ok(stream),
            Ok(FleetResp::NotFound) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "relay hub could not dial the target",
            )),
            _ => Err(protocol_err("unexpected relay preamble response")),
        },
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "relay hub closed during the preamble",
        )),
    }
}

/// One request, one response, one connection.
fn one_shot(addr: &str, req: &FleetReq) -> io::Result<FleetResp> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write_frame(&mut stream, &req.to_bytes())?;
    match read_frame(&mut stream)? {
        Some(frame) => {
            FleetResp::from_bytes(&frame).map_err(|_| protocol_err("undecodable fleet response"))
        }
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard closed before responding",
        )),
    }
}

fn protocol_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roles(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(r, a)| (r.to_string(), a.to_string()))
            .collect()
    }

    #[test]
    fn fleet_frames_roundtrip() {
        for req in [
            FleetReq::RegisterNode {
                addr: String::from("127.0.0.1:9"),
            },
            FleetReq::Place {
                family: String::from("gossip"),
                perf: 3,
                roles: roles(&[("caster", "127.0.0.1:10")]),
                chaos_seed: Some(5),
            },
            FleetReq::DescriptorOf {
                family: String::from("gossip"),
                perf: 3,
            },
            FleetReq::RelayConnect {
                addr: String::from("127.0.0.1:11"),
            },
            FleetReq::Shards,
            FleetReq::RelayedBytes,
        ] {
            assert_eq!(FleetReq::from_bytes(&req.to_bytes()).unwrap(), req);
        }
        for resp in [
            FleetResp::Unit,
            FleetResp::Redirect {
                addr: String::from("127.0.0.1:12"),
            },
            FleetResp::Descriptor(
                PerfDescriptor::new(1, 1, None, String::from("127.0.0.1:13")).sign(9),
            ),
            FleetResp::NotFound,
            FleetResp::RelayOk,
            FleetResp::ShardList(vec![String::from("a"), String::from("b")]),
            FleetResp::Bytes(77),
        ] {
            assert_eq!(FleetResp::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
        assert!(FleetReq::from_bytes(&[200]).is_err());
        assert!(FleetResp::from_bytes(&[200]).is_err());
    }

    #[test]
    fn placement_routes_across_shards_and_is_idempotent() {
        let fleet = HubFleet::launch(3, 42).unwrap();
        let client = FleetClient::connect(&fleet.any_addr().to_string(), 42).unwrap();
        client.register_node("127.0.0.1:7001").unwrap();

        // Pick a family owned by a shard other than 0 so the routed
        // call must follow at least one redirect.
        let family = (0..100)
            .map(|i| format!("family-{i}"))
            .find(|f| owner_shard(f, 3) != 0)
            .unwrap();
        let d = client
            .place(&family, 9, &roles(&[("caster", "127.0.0.1:7002")]), Some(5))
            .unwrap();
        assert_eq!(d.perf, 9);
        assert_eq!(d.chaos_seed, Some(5));
        assert_eq!(d.home, "127.0.0.1:7001");
        assert!(d.verify(42));

        // A second participant joins: same placement, roles merged.
        let d2 = client
            .place(
                &family,
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

        assert_eq!(client.descriptor_of(&family, 9).unwrap().unwrap(), d2);
        assert!(client.descriptor_of(&family, 10).unwrap().is_none());
        assert_eq!(fleet.placements(), 1);
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
    fn relay_splices_bytes_both_ways_and_counts_them() {
        let fleet = HubFleet::launch(1, 1).unwrap();
        // A one-connection echo server standing in for a home node.
        let echo = TcpListener::bind("127.0.0.1:0").unwrap();
        let echo_addr = echo.local_addr().unwrap().to_string();
        let echoer = thread::spawn(move || {
            let (mut s, _) = echo.accept().unwrap();
            let mut buf = [0u8; 64];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });

        let mut relayed = relay_connect(&fleet.any_addr().to_string(), &echo_addr).unwrap();
        relayed.write_all(b"ping-through-the-hub").unwrap();
        let mut got = [0u8; 20];
        relayed.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping-through-the-hub");
        drop(relayed);
        echoer.join().unwrap();

        let client = FleetClient::connect(&fleet.any_addr().to_string(), 1).unwrap();
        // 20 bytes out plus 20 echoed back, both directions counted.
        assert_eq!(client.relayed_bytes().unwrap(), 40);
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
