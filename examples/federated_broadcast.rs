//! A federated performance spanning **three OS processes** — and two
//! *planes*.
//!
//! The parent process is the **fleet**: it launches a [`HubFleet`] —
//! the control plane, a placement service behind two listening
//! addresses — and never touches a data frame. It re-executes itself
//! twice:
//!
//! * the **home spoke** hosts the performance's data node — an
//!   ordinary [`TransportServer`] — registers it with the fleet, and
//!   animates the `caster` locally;
//! * the **peer spoke** asks the fleet to place the performance,
//!   receives a *signed* [`PerfDescriptor`], and dials the home spoke
//!   **directly**: its data-plane bytes flow spoke-to-spoke, never
//!   through the fleet.
//!
//! Each process asserts its own byte counters: the peer proves it
//! moved real frames (`bytes_sent`/`bytes_received` > 0) without a
//! relay dial, and the fleet process proves it relayed **zero**
//! data-plane bytes. A final phase forces the relay fallback — the
//! NAT-less stand-in for an undialable home — and the counters flip:
//! the relay peer records relay dials, the fleet records relayed
//! bytes.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example federated_broadcast
//! ```

use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use script::chan::{Arm, Outcome, PeerState, ShardedTransport, Transport};
use script::core::RetryPolicy;
use script::net::{DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};

/// Shared secret under which the fleet signs placement descriptors.
const SECRET: u64 = 0xFEDE_7A7E;
/// The role family the performance is placed under.
const FAMILY: &str = "broadcast";
/// The performance id every process places/joins.
const PERF: u64 = 1;
const ROUNDS: [u64; 3] = [10, 20, 30];
/// A zero tells a peer its phase of the broadcast is over.
const GOODBYE: u64 = 0;

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(30))
}

fn s(x: &str) -> String {
    x.to_string()
}

/// Places the performance, retrying until the home spoke has
/// registered its data node with the fleet.
fn place_with_retry(ctl: &FleetClient, role: &str, addr: &str) -> script::net::PerfDescriptor {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match ctl.place(FAMILY, PERF, &[(s(role), s(addr))], None) {
            Ok(desc) => return desc,
            Err(e) if Instant::now() < deadline => {
                let _ = e; // home node not registered yet
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("placement never succeeded: {e}"),
        }
    }
}

/// The home spoke: hosts the data node, animates the caster, and
/// broadcasts to each peer in turn.
fn run_home(fleet_addr: &str) {
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(7)));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("home: bind");
    for id in ["caster", "direct-peer", "relay-peer"] {
        inner.declare(s(id));
    }
    inner.activate(s("caster"));

    let ctl = FleetClient::connect(fleet_addr, SECRET).expect("home: fleet connect");
    let addr = server.local_addr().to_string();
    ctl.register_node(&addr).expect("home: register data node");
    let desc = place_with_retry(&ctl, "caster", &addr);
    assert!(desc.verify(SECRET), "home: descriptor must verify");
    assert_eq!(desc.home, addr, "home: the fleet picked this data node");
    println!(
        "home: data node {addr} placed perf {PERF} (epoch {})",
        desc.epoch
    );

    // One broadcast phase per peer, in the order the fleet process runs them.
    for peer in ["direct-peer", "relay-peer"] {
        for v in ROUNDS {
            inner
                .send(&s("caster"), &s(peer), v, far())
                .expect("home: broadcast");
            let outcome = inner
                .select(&s("caster"), vec![Arm::recv_from(s(peer))], far())
                .expect("home: collect ack");
            let Outcome::Received { msg, .. } = outcome else {
                panic!("home: unexpected outcome {outcome:?}");
            };
            assert_eq!(msg, v + 1, "each peer acks value+1");
        }
        inner
            .send(&s("caster"), &s(peer), GOODBYE, far())
            .expect("home: goodbye");
    }
    inner.finish(s("caster"));

    // Outlive the peers: the data node must stay up until both report
    // Done, or their final frames would hit a dead socket.
    let start = Instant::now();
    for peer in ["direct-peer", "relay-peer"] {
        while inner.peer_state(&s(peer)) != Some(PeerState::Done) {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "home: {peer} never reached Done"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    println!("home: done (pid {})", std::process::id());
}

/// A peer spoke: learns the home address from the fleet's signed
/// descriptor, dials it (directly or through the relay), echoes the
/// broadcast, and asserts its own byte counters.
fn run_peer(fleet_addr: &str, role: &str, force_relay: bool) {
    let ctl = FleetClient::connect(fleet_addr, SECRET).expect("peer: fleet connect");
    let desc = place_with_retry(&ctl, role, "spoke");
    assert!(desc.verify(SECRET), "peer: descriptor must verify");
    let home = desc.home.parse().expect("peer: home address");

    let mut plan = DialPlan::direct(home).with_relay(fleet_addr.parse().expect("fleet address"));
    if force_relay {
        plan = plan.with_forced_relay();
    }
    let t = SocketTransport::<String, u64>::with_plan(
        plan,
        RetryPolicy::new(6)
            .with_base(Duration::from_millis(25))
            .with_cap(Duration::from_millis(500)),
    );
    t.activate(s(role));
    loop {
        let outcome = t
            .select(&s(role), vec![Arm::recv_from(s("caster"))], far())
            .expect("peer: receive broadcast");
        let Outcome::Received { msg, .. } = outcome else {
            panic!("peer: unexpected outcome {outcome:?}");
        };
        if msg == GOODBYE {
            break;
        }
        t.send(&s(role), &s("caster"), msg + 1, far())
            .expect("peer: ack");
    }
    t.finish(s(role));

    // The per-process evidence: this spoke moved real data-plane
    // frames, and did (or did not) need the control fleet to carry
    // them.
    let (out, inn, relays) = (t.bytes_sent(), t.bytes_received(), t.relay_dials());
    assert!(out > 0 && inn > 0, "peer: no data-plane traffic counted");
    if force_relay {
        assert!(
            relays >= 1,
            "peer: forced relay must dial through the fleet"
        );
    } else {
        assert_eq!(relays, 0, "peer: direct plan must never touch the relay");
    }
    println!(
        "{role}: {out} bytes out, {inn} bytes in, {relays} relay dials (pid {})",
        std::process::id()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, addr] = args.as_slice() {
        match flag.as_str() {
            "--home" => return run_home(addr),
            "--direct-peer" => return run_peer(addr, "direct-peer", false),
            "--relay-peer" => return run_peer(addr, "relay-peer", true),
            _ => {}
        }
    }

    // The fleet process: control plane only.
    let fleet = HubFleet::launch(2, SECRET).expect("launch fleet");
    let fleet_addr = fleet.any_addr().to_string();
    println!(
        "fleet: {} listening addresses, dialed at {fleet_addr}",
        fleet.addrs().len()
    );

    let exe = std::env::current_exe().expect("own executable path");
    let mut home = Command::new(&exe)
        .args(["--home", &fleet_addr])
        .spawn()
        .expect("spawn home spoke");

    // Phase 1: the direct peer. Its frames go spoke-to-spoke.
    let status = Command::new(&exe)
        .args(["--direct-peer", &fleet_addr])
        .status()
        .expect("run direct peer");
    assert!(status.success(), "direct peer failed: {status:?}");
    assert_eq!(
        fleet.relayed_bytes(),
        0,
        "fleet: the fleet must carry zero data-plane bytes for a direct peer"
    );
    println!("fleet: direct phase relayed 0 bytes through the fleet");

    // Phase 2: the relay fallback. The same traffic, forced through
    // the fleet — the NAT-less stand-in for an undialable home.
    let status = Command::new(&exe)
        .args(["--relay-peer", &fleet_addr])
        .status()
        .expect("run relay peer");
    assert!(status.success(), "relay peer failed: {status:?}");
    let relayed = fleet.relayed_bytes();
    assert!(
        relayed > 0,
        "fleet: a forced-relay peer must route bytes through the fleet"
    );
    println!("fleet: relay phase spliced {relayed} bytes through the fleet");

    let status = home.wait().expect("wait for home spoke");
    assert!(status.success(), "home spoke failed: {status:?}");
    println!("fleet: 3 processes, 2 planes, direct + relay phases — ok");
}
