//! The transport conformance suite, run against every transport the
//! workspace ships:
//!
//! * the in-process [`ShardedTransport`] (the reference
//!   implementation),
//! * the socket-backed [`SocketTransport`] speaking framed RPC to a
//!   [`TransportServer`] hub over real TCP, and
//! * the **federated** transport: a [`HubFleet`] — the control plane,
//!   a placement service behind several listening addresses — places
//!   the performance, mints a signed [`PerfDescriptor`], and the spoke
//!   dials the descriptor's home data node directly — the fleet never
//!   carries data-plane traffic.
//!
//! All must satisfy the identical contract (ordering, fairness,
//! deadlines, termination, chaos determinism) — and a chaos seed must
//! produce the *identical* fault log on all three, because fault
//! decisions are pure functions of `(seed, edge, sequence)` evaluated
//! at the home node's sending edge regardless of where the
//! participants live or how they were placed.
//!
//! One test is genuinely multi-process: the parent re-executes this
//! test binary as a child process that joins the performance over TCP.

use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use script::chan::conformance::{self, ConformanceTransport};
use script::chan::{
    per_edge_fingerprints, Arm, ChanError, FaultPlan, Network, Outcome, PeerState, SessionEvent,
    ShardedTransport, Transport,
};
use script::core::RetryPolicy;
use script::net::{
    DialPlan, FleetClient, HubFleet, PerfDescriptor, SocketTransport, TransportServer,
};

/// Environment variable carrying the hub address to the child process.
const CHILD_ADDR_ENV: &str = "SCRIPT_NET_CHILD_ADDR";

/// Environment variable carrying the hub address to the child that dies
/// without a goodbye (the lease-expiry end-to-end test).
const MORTAL_ADDR_ENV: &str = "SCRIPT_NET_MORTAL_ADDR";

fn sharded(seed: u64) -> ConformanceTransport {
    Arc::new(ShardedTransport::new(false, Some(seed)))
}

/// Hubs outlive the clients handed to the suite (dropping a
/// [`TransportServer`] severs its spokes), so the factory parks them
/// here for the lifetime of the test process.
static SERVERS: Mutex<Vec<TransportServer<String, u64>>> = Mutex::new(Vec::new());

fn socket(seed: u64) -> ConformanceTransport {
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(seed)));
    let server = TransportServer::bind("127.0.0.1:0", inner).expect("bind hub");
    // Spokes forward opaque messages, so rendezvous labels are
    // extracted where delivery happens: on the hub.
    server.set_message_labeler(conformance::reference_label);
    let client: ConformanceTransport =
        Arc::new(SocketTransport::<String, u64>::connect(server.local_addr()).expect("resolve"));
    SERVERS.lock().unwrap().push(server);
    client
}

/// Fleets likewise outlive their spokes (dropping a [`HubFleet`] stops
/// its listeners).
static FLEETS: Mutex<Vec<HubFleet>> = Mutex::new(Vec::new());

/// Shared secret for the conformance fleet's descriptor signatures.
const FLEET_SECRET: u64 = 0xC0DE;

/// The federated factory: control plane and data plane are separate
/// machinery. A fleet behind three addresses owns placement; the
/// performance's rendezvous state lives on a home data node (an
/// ordinary hub); the spoke learns the home address from the fleet's
/// *signed* descriptor and dials it directly, keeping the fleet as
/// relay fallback in its [`DialPlan`].
fn federated(seed: u64) -> ConformanceTransport {
    let fleet = HubFleet::launch(3, FLEET_SECRET).expect("launch fleet");
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(seed)));
    let server = TransportServer::bind("127.0.0.1:0", inner).expect("bind home node");
    server.set_message_labeler(conformance::reference_label);

    let ctl =
        FleetClient::connect(&fleet.any_addr().to_string(), FLEET_SECRET).expect("fleet connect");
    ctl.register_node(&server.local_addr().to_string())
        .expect("register home node");
    let desc: PerfDescriptor = ctl
        .place("conformance", seed, &[], Some(seed))
        .expect("place performance");
    assert!(desc.verify(FLEET_SECRET), "descriptor must verify");
    assert_eq!(desc.chaos_seed, Some(seed), "descriptor carries the seed");

    let home = desc.home.parse().expect("home address");
    let plan = DialPlan::direct(home).with_relay(fleet.any_addr());
    let client: ConformanceTransport = Arc::new(SocketTransport::<String, u64>::with_plan(
        plan,
        RetryPolicy::new(6)
            .with_base(Duration::from_millis(25))
            .with_cap(Duration::from_millis(500)),
    ));
    SERVERS.lock().unwrap().push(server);
    FLEETS.lock().unwrap().push(fleet);
    client
}

#[test]
fn sharded_transport_conforms() {
    conformance::run_all(&sharded);
}

#[test]
fn socket_transport_conforms() {
    conformance::run_all(&socket);
}

/// The tentpole acceptance gate: the full conformance suite — every
/// check, zero check-body changes — against the federated transport.
#[test]
fn federated_transport_conforms() {
    conformance::run_all(&federated);
}

/// The acceptance criterion for chaos parity: one seed, one schedule,
/// byte-identical fault record streams whether the performance is
/// in-process or crosses a socket.
#[test]
fn chaos_seed_produces_identical_fault_records_on_both_transports() {
    let in_process = conformance::chaos_schedule_log(&sharded);
    let over_socket = conformance::chaos_schedule_log(&socket);
    assert!(
        !in_process.is_empty(),
        "the chaos schedule should inject at least one fault"
    );
    assert_eq!(
        in_process, over_socket,
        "fault logs diverged between in-process and socket transports"
    );
}

/// The federated extension of chaos parity: one seed, one schedule,
/// bit-identical fault logs across all three transports — in-process,
/// single-hub socket, and fleet-placed federated.
#[test]
fn chaos_seed_replays_identically_across_all_three_transports() {
    let in_process = conformance::chaos_schedule_log(&sharded);
    let single_hub = conformance::chaos_schedule_log(&socket);
    let fleet_placed = conformance::chaos_schedule_log(&federated);
    assert!(
        !in_process.is_empty(),
        "the chaos schedule should inject at least one fault"
    );
    assert_eq!(
        in_process, single_hub,
        "fault logs diverged between in-process and single-hub transports"
    );
    assert_eq!(
        in_process, fleet_placed,
        "fault logs diverged between in-process and federated transports"
    );
}

/// Per-edge decision sequences: a seeded multi-edge chaos run grouped
/// by directed edge must fingerprint identically on all three
/// transports — the interleaving-free form of chaos parity that holds
/// even where global log order could legally differ.
#[test]
fn per_edge_decision_sequences_agree_across_all_three_transports() {
    fn edge_fingerprints(factory: &dyn Fn(u64) -> ConformanceTransport) -> Vec<String> {
        let far = || Some(Instant::now() + Duration::from_secs(30));
        let net = Network::with_transport(factory(71));
        for id in ["a", "b", "c"] {
            net.activate(id.to_string());
        }
        // Every send below goes through this transport, and an
        // operation's fault records are pushed before it returns.
        let faults = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&faults);
        net.set_fault_observer(move |rec| sink.lock().unwrap().push(rec.clone()));
        net.set_fault_plan(
            FaultPlan::new(73)
                .with_drop(0.3)
                .with_duplicate(0.2)
                .with_sever(0.15),
        );
        let drain = |id: &str| {
            let port = net.port(id.to_string()).unwrap();
            std::thread::spawn(
                move || while port.recv_from_deadline(&"a".to_string(), far()).is_ok() {},
            )
        };
        let rx_b = drain("b");
        let rx_c = drain("c");
        let a = net.port("a".to_string()).unwrap();
        for k in 0..24u64 {
            let to = if k % 2 == 0 { "b" } else { "c" };
            a.send_deadline(&to.to_string(), k, far())
                .expect("receivers drain continuously");
        }
        net.finish("a".to_string());
        rx_b.join().unwrap();
        rx_c.join().unwrap();
        let log = faults.lock().unwrap();
        per_edge_fingerprints(&log)
    }
    let in_process = edge_fingerprints(&sharded);
    let single_hub = edge_fingerprints(&socket);
    let fleet_placed = edge_fingerprints(&federated);
    assert!(
        in_process.len() >= 2,
        "the multi-edge schedule should fault on at least two edges: {in_process:?}"
    );
    assert_eq!(
        in_process, single_hub,
        "per-edge sequences diverged between in-process and single-hub transports"
    );
    assert_eq!(
        in_process, fleet_placed,
        "per-edge sequences diverged between in-process and federated transports"
    );
}

/// Relay fallback: with the dial plan forced through the fleet
/// (the NAT-less stand-in for an undialable home node), the same chaos
/// seed still replays bit-for-bit — the relay is a transparent byte
/// splice — and the fleet's relay counter proves the data actually
/// flowed through it.
#[test]
fn relay_fallback_replays_the_same_chaos_schedule() {
    let fleet = HubFleet::launch(2, FLEET_SECRET).expect("launch fleet");
    let relayed = |seed: u64| -> ConformanceTransport {
        let inner: Arc<dyn Transport<String, u64>> =
            Arc::new(ShardedTransport::new(false, Some(seed)));
        let server = TransportServer::bind("127.0.0.1:0", inner).expect("bind home node");
        server.set_message_labeler(conformance::reference_label);
        let ctl = FleetClient::connect(&fleet.any_addr().to_string(), FLEET_SECRET)
            .expect("fleet connect");
        ctl.register_node(&server.local_addr().to_string())
            .expect("register home node");
        let desc = ctl
            .place("relay-fallback", seed, &[], Some(seed))
            .expect("place performance");
        let home = desc.home.parse().expect("home address");
        let plan = DialPlan::direct(home)
            .with_relay(fleet.any_addr())
            .with_forced_relay();
        let client: ConformanceTransport = Arc::new(SocketTransport::<String, u64>::with_plan(
            plan,
            RetryPolicy::new(6)
                .with_base(Duration::from_millis(25))
                .with_cap(Duration::from_millis(500)),
        ));
        SERVERS.lock().unwrap().push(server);
        client
    };
    let through_relay = conformance::chaos_schedule_log(&relayed);
    assert_eq!(
        through_relay,
        conformance::chaos_schedule_log(&sharded),
        "fault logs diverged between relayed and in-process transports"
    );
    assert!(
        fleet.relayed_bytes() > 0,
        "a forced-relay plan must route data-plane bytes through the fleet"
    );
}

/// The latency half of chaos parity: the same seeded drop+delay
/// schedule must leave the *same* per-operation sample counts on both
/// transports (so adaptive watchdog windows see equivalent evidence
/// wherever the performance lives), and the certain injected delay must
/// dominate the slowest sample on each.
#[test]
fn latency_reports_equivalently_on_both_transports() {
    let (in_process, in_process_max) = conformance::latency_sample_profile(&sharded);
    let (over_socket, over_socket_max) = conformance::latency_sample_profile(&socket);
    assert!(
        !in_process.is_empty(),
        "the latency schedule should record at least one sample"
    );
    assert_eq!(
        in_process, over_socket,
        "latency sample counts diverged between in-process and socket transports"
    );
    let delay = Duration::from_millis(2);
    assert!(
        in_process_max >= delay && over_socket_max >= delay,
        "the seeded delay fault must be visible in both transports' samples \
         (in-process max {in_process_max:?}, socket max {over_socket_max:?})"
    );
}

/// The observability half of chaos parity: one seeded delay schedule,
/// one merged push-delivered event stream — fault records interleaved
/// with send samples in arrival order — identical (modulo timestamps)
/// whether the performance is in-process or crosses a socket. Over TCP
/// the hub writes each event push frame before the operation's
/// response, so the client observes the same interleaving the
/// in-process transport produces.
#[test]
fn event_streams_merge_identically_on_both_transports() {
    conformance::check_event_stream_parity(&sharded, &socket);
}

/// The partition-tolerance half of chaos parity: one seeded schedule
/// that severs a connection mid-performance, one resumed session — the
/// fault-record subsequence of the merged event stream (and the set of
/// completed rendezvous) must be identical whether the performance is
/// in-process (where a sever is recorded but there is no connection to
/// cut) or crosses a socket (where the hub enacts it and the spoke
/// reconnects within its lease).
#[test]
fn sever_and_resume_preserve_stream_parity_across_transports() {
    conformance::check_sever_stream_parity(&sharded, &socket);
}

/// The churn half of chaos parity: the reference open-family schedule —
/// a member that enrolls mid-performance, rendezvouses exactly once,
/// and departs, under seeded sever+delay chaos — leaves identical
/// event streams (lifecycle markers, the fault-record subsequence, and
/// the successful-send count) whether the performance is in-process or
/// crosses a socket, including the `r.terminated` observation of the
/// departed member.
#[test]
fn open_family_churn_streams_agree_across_transports() {
    conformance::check_open_family_churn(&sharded, &socket);
}

/// The conformance-monitoring half of observability parity: for the
/// reference monitored protocol — conforming and each misbehaving
/// variant (wrong peer, wrong label, extra send) — both transports
/// observe byte-identical rendezvous traces, so a protocol monitor
/// reaches the identical verdict at the identical first-divergence
/// position whether the performance is in-process or crosses a socket.
#[test]
fn protocol_monitoring_verdicts_agree_across_transports() {
    conformance::check_monitoring_parity(&sharded, &socket);
}

/// Child half of the multi-process test. Under a normal `cargo test`
/// run (no env var) this is a no-op; the parent test re-executes the
/// test binary with `SCRIPT_NET_CHILD_ADDR` set, and this body then
/// joins the performance over TCP as the `child` participant. Any
/// panic here fails the child process, which the parent asserts on.
#[test]
fn child_echo_process() {
    let Ok(addr) = std::env::var(CHILD_ADDR_ENV) else {
        return;
    };
    let t = SocketTransport::<String, u64>::connect(addr.as_str()).expect("child connect");
    t.activate("child".to_string());
    let far = Some(Instant::now() + Duration::from_secs(30));
    loop {
        let got = t
            .select(
                &"child".to_string(),
                vec![Arm::recv_from("parent".to_string())],
                far,
            )
            .expect("child receive");
        let Outcome::Received { msg, .. } = got else {
            panic!("unexpected outcome: {got:?}");
        };
        if msg == 999 {
            break;
        }
        t.send(&"child".to_string(), &"parent".to_string(), msg + 1, far)
            .expect("child echo");
    }
    t.finish("child".to_string());
}

/// Two OS processes, one performance: the parent animates `parent`
/// directly on the hub's inner transport (zero hops) while a spawned
/// child process animates `child` over TCP.
#[test]
fn performance_spans_two_os_processes() {
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(11)));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind hub");
    for id in ["parent", "child"] {
        inner.declare(id.to_string());
    }
    inner.activate("parent".to_string());

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["child_echo_process", "--exact", "--nocapture"])
        .env(CHILD_ADDR_ENV, server.local_addr().to_string())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn child process");

    let far = Some(Instant::now() + Duration::from_secs(30));
    for v in [1u64, 2, 3] {
        inner
            .send(&"parent".to_string(), &"child".to_string(), v, far)
            .expect("parent send");
        let got = inner
            .select(
                &"parent".to_string(),
                vec![Arm::recv_from("child".to_string())],
                far,
            )
            .expect("parent receive");
        match got {
            Outcome::Received { from, msg, .. } => {
                assert_eq!(from, "child");
                assert_eq!(msg, v + 1, "child echoes each value incremented");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    inner
        .send(&"parent".to_string(), &"child".to_string(), 999, far)
        .expect("parent goodbye");

    let status = child.wait().expect("child wait");
    assert!(status.success(), "child process failed: {status:?}");

    // The child finished cleanly; its role must read Done on the hub.
    let start = Instant::now();
    while inner.peer_state(&"child".to_string()) != Some(PeerState::Done) {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "child role never reached Done"
        );
        std::thread::yield_now();
    }
}

/// Child half of the lease-expiry test: joins over TCP, completes one
/// rendezvous, then exits the process *without* finishing or closing —
/// exactly what a crashed participant looks like from the hub.
#[test]
fn child_mortal_process() {
    let Ok(addr) = std::env::var(MORTAL_ADDR_ENV) else {
        return;
    };
    let t = SocketTransport::<String, u64>::connect(addr.as_str()).expect("mortal connect");
    t.activate("mortal".to_string());
    let far = Some(Instant::now() + Duration::from_secs(30));
    t.send(&"mortal".to_string(), &"parent".to_string(), 7, far)
        .expect("mortal send");
    // Die without a goodbye: no finish, no close, no session teardown.
    std::process::exit(0);
}

/// Two OS processes, one crash: a child joins over TCP, rendezvouses
/// once, then dies without finishing. The hub must hold the session
/// open for exactly one lease (no premature degradation), then expire
/// it — surfacing `Terminated` to the blocked hub-side receiver and
/// emitting the `PeerDisconnected` → `LeaseExpired` lifecycle events.
#[test]
fn lease_expiry_degrades_to_crashed_peer_across_os_processes() {
    let lease = Duration::from_millis(400);
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(13)));
    let server = TransportServer::bind_with_lease("127.0.0.1:0", Arc::clone(&inner), lease)
        .expect("bind hub");
    for id in ["parent", "mortal"] {
        inner.declare(id.to_string());
    }
    inner.activate("parent".to_string());

    let events: Arc<Mutex<Vec<SessionEvent<String>>>> = Arc::new(Mutex::new(Vec::new()));
    inner.set_session_observer({
        let events = Arc::clone(&events);
        Arc::new(move |e: &SessionEvent<String>| events.lock().unwrap().push(e.clone()))
    });

    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .args(["child_mortal_process", "--exact", "--nocapture"])
        .env(MORTAL_ADDR_ENV, server.local_addr().to_string())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn child process");

    let far = Some(Instant::now() + Duration::from_secs(30));
    let got = inner
        .select(
            &"parent".to_string(),
            vec![Arm::recv_from("mortal".to_string())],
            far,
        )
        .expect("parent receive");
    assert!(matches!(got, Outcome::Received { msg: 7, .. }));
    let seen = Instant::now();

    let status = child.wait().expect("child wait");
    assert!(status.success(), "child process failed: {status:?}");

    // The child is dead but its lease is not: the blocked receive must
    // outwait the lease window, then degrade to crashed-peer semantics.
    let err = inner
        .select(
            &"parent".to_string(),
            vec![Arm::recv_from("mortal".to_string())],
            Some(Instant::now() + Duration::from_secs(10)),
        )
        .expect_err("mortal never resumes");
    assert_eq!(err, ChanError::Terminated("mortal".to_string()));
    let elapsed = seen.elapsed();
    assert!(
        elapsed >= lease / 2,
        "termination surfaced before the lease could have expired: {elapsed:?}"
    );
    assert_eq!(
        inner.peer_state(&"mortal".to_string()),
        Some(PeerState::Done)
    );

    let log = events.lock().unwrap();
    assert!(
        log.contains(&SessionEvent::PeerDisconnected("mortal".to_string())),
        "missing PeerDisconnected: {log:?}"
    );
    assert!(
        log.contains(&SessionEvent::LeaseExpired("mortal".to_string())),
        "missing LeaseExpired: {log:?}"
    );
    assert!(
        !log.contains(&SessionEvent::PeerResumed("mortal".to_string())),
        "a dead child cannot resume: {log:?}"
    );
}
