//! End-to-end runtime protocol conformance: a [`ConformanceMonitor`]
//! subscribed to a live instance checks the performance's rendezvous
//! trace against a [`GlobalType`] while the performance runs — in
//! process and over a TCP hub, under chaos delays and a sever/resume.
//!
//! The acceptance criteria pinned here:
//!
//! 1. a conforming distributed performance under chaos — including at
//!    least one connection sever and session resume — yields **no**
//!    verdict, and the resume replay introduces no duplicate or
//!    reordered [`TelemetryPayload::Rendezvous`] records (per-edge delivery
//!    seqs stay gapless from 0);
//! 2. a deliberately misbehaving role is flagged at the first
//!    divergent rendezvous with the **same verdict** — role, expected,
//!    observed, and telemetry seq — whether the performance runs in
//!    process or crosses a socket.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use script::chan::{Network, ShardedTransport, Transport};
use script::core::{
    FaultKind, FaultPlan, Initiation, NetworkFactory, Observer, PerformanceNet, RoleId, Script,
    TelemetryEvent, TelemetryPayload, Termination,
};
use script::net::{SocketTransport, TransportServer};
use script::proto::{ConformanceMonitor, GlobalType, Verdict};

const ROUNDS: u64 = 8;

/// Labels the ping/pong payload convention: ping sends even values,
/// pong replies odd.
fn label_of(m: &u64) -> Option<String> {
    Some(if m.is_multiple_of(2) { "ping" } else { "pong" }.to_string())
}

/// `rounds` of ping → pong: "ping"; pong → ping: "pong".
fn ping_pong_type(rounds: u64) -> GlobalType {
    (0..rounds).rev().fold(GlobalType::End, |acc, _| {
        GlobalType::msg(
            "ping",
            "pong",
            "ping",
            GlobalType::msg("pong", "ping", "pong", acc),
        )
    })
}

/// A subscriber that records the stream in arrival order.
#[derive(Default)]
struct Collect(Mutex<Vec<TelemetryEvent>>);

impl Observer for Collect {
    fn on_event(&self, event: TelemetryEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// A hub plus a factory routing every performance of an instance onto
/// it over TCP. The hub labels messages at the delivery point (spokes
/// forward opaque payloads).
fn hub() -> (TransportServer<RoleId, u64>, Arc<NetworkFactory<u64>>) {
    let inner: Arc<dyn Transport<RoleId, u64>> = Arc::new(ShardedTransport::new(false, None));
    let server = TransportServer::bind("127.0.0.1:0", inner).expect("bind hub");
    server.set_message_labeler(label_of);
    let addr = server.local_addr();
    let factory: Arc<NetworkFactory<u64>> = Arc::new(move |_ctx: &PerformanceNet| {
        let spoke: Arc<dyn Transport<RoleId, u64>> =
            Arc::new(SocketTransport::<RoleId, u64>::connect(addr).expect("spoke connect"));
        Network::with_transport(spoke)
    });
    (server, factory)
}

type Role = script::core::RoleHandle<u64, (), u64>;

/// The conforming ping/pong script: ping sends `2k`, pong echoes
/// `2k + 1`.
fn conforming_script() -> (Script<u64>, Role, Role) {
    let mut b = Script::<u64>::builder("conformance_e2e");
    let ping = b.role("ping", |ctx, ()| {
        for k in 0..ROUNDS {
            ctx.send(&RoleId::new("pong"), 2 * k)?;
            assert_eq!(ctx.recv_from(&RoleId::new("pong"))?, 2 * k + 1);
        }
        Ok(0u64)
    });
    let pong = b.role("pong", |ctx, ()| {
        for _ in 0..ROUNDS {
            let v = ctx.recv_from(&RoleId::new("ping"))?;
            ctx.send(&RoleId::new("ping"), v + 1)?;
        }
        Ok(0u64)
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    (b.build().unwrap(), ping, pong)
}

#[test]
fn monitored_chaos_performance_over_tcp_stays_conforming_across_resume() {
    let (script, ping, pong) = conforming_script();
    let (_server, factory) = hub();
    let inst = script.instance();
    inst.set_network_factory(factory);
    inst.set_chaos_seed(29);
    // Certain 2ms delay on every message plus seeded severs: the
    // session must resume and the monitor must see the trace exactly
    // once, in order, despite the replay.
    inst.set_fault_plan(
        FaultPlan::new(41)
            .with_delay(1.0, Duration::from_millis(2))
            .with_sever(0.25),
    );
    let collect = Arc::new(Collect::default());
    let monitor = Arc::new(
        ConformanceMonitor::new(&ping_pong_type(ROUNDS))
            .unwrap()
            .with_downstream(Arc::clone(&collect) as Arc<dyn Observer>),
    );
    inst.set_observer(Arc::clone(&monitor) as Arc<dyn Observer>);

    std::thread::scope(|s| {
        let h = s.spawn(|| inst.enroll(&pong, ()));
        inst.enroll(&ping, ()).unwrap();
        h.join().unwrap().unwrap();
    });
    assert_eq!(inst.completed_performances(), 1);

    let stream = collect.0.lock().unwrap().clone();

    // The chaos schedule actually exercised the resume path.
    let severs = stream
        .iter()
        .filter(|e| {
            matches!(
                &e.payload,
                TelemetryPayload::Fault(fault) if fault.kind == FaultKind::Sever
            )
        })
        .count();
    assert!(severs >= 1, "the seeded plan must sever at least once");

    // No duplicate, no reorder: per directed edge, the rendezvous
    // delivery seqs are exactly 0..n in arrival order, resume replay
    // notwithstanding.
    let mut per_edge: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    for e in &stream {
        if let TelemetryPayload::Rendezvous(rec) = &e.payload {
            per_edge
                .entry((rec.from.to_string(), rec.to.to_string()))
                .or_default()
                .push(rec.seq);
        }
    }
    assert_eq!(per_edge.len(), 2, "two directed edges: {per_edge:?}");
    for ((from, to), seqs) in &per_edge {
        assert!(
            seqs.iter().copied().eq(0..ROUNDS),
            "edge {from}->{to}: rendezvous seqs must be gapless from 0 \
             (no duplicates, no reorders), got {seqs:?}"
        );
    }

    // And the monitor agrees: a conforming complete run, no verdict.
    assert!(
        monitor.verdicts().is_empty(),
        "conforming run flagged: {:?}",
        monitor.verdicts()
    );
    let perf = stream
        .iter()
        .find_map(|e| e.performance)
        .expect("performance-scoped events");
    assert!(monitor.is_complete(perf), "protocol must be complete");
}

/// The misbehaving ping/pong: on round 1, pong replies with an even
/// value — labeled "ping" where its local type says send "pong".
fn misbehaving_run(over_socket: bool) -> (Option<Verdict>, Vec<TelemetryEvent>) {
    let mut b = Script::<u64>::builder("misbehaving_e2e");
    let rounds = 3u64;
    let ping = b.role("ping", move |ctx, ()| {
        for k in 0..rounds {
            ctx.send(&RoleId::new("pong"), 2 * k)?;
            ctx.recv_from(&RoleId::new("pong"))?;
        }
        Ok(0u64)
    });
    let pong = b.role("pong", move |ctx, ()| {
        for k in 0..rounds {
            let v = ctx.recv_from(&RoleId::new("ping"))?;
            // Round 1 replies even: the wrong label, mid-protocol.
            ctx.send(&RoleId::new("ping"), if k == 1 { v + 2 } else { v + 1 })?;
        }
        Ok(0u64)
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();

    let _server; // keeps the hub alive through the performance
    let inst = script.instance();
    if over_socket {
        let (server, factory) = hub();
        inst.set_network_factory(factory);
        _server = Some(server);
    } else {
        _server = None;
    }
    inst.set_message_labeler(label_of);
    let collect = Arc::new(Collect::default());
    let monitor = Arc::new(
        ConformanceMonitor::new(&ping_pong_type(rounds))
            .unwrap()
            .with_downstream(Arc::clone(&collect) as Arc<dyn Observer>),
    );
    inst.set_observer(Arc::clone(&monitor) as Arc<dyn Observer>);

    std::thread::scope(|s| {
        let h = s.spawn(|| inst.enroll(&pong, ()));
        inst.enroll(&ping, ()).unwrap();
        h.join().unwrap().unwrap();
    });

    let verdicts = monitor.verdicts();
    assert_eq!(verdicts.len(), 1, "exactly one (first) divergence");
    let stream = collect.0.lock().unwrap().clone();
    (verdicts.into_iter().next(), stream)
}

#[test]
fn misbehaving_role_yields_identical_verdict_in_process_and_over_tcp() {
    let (local, local_stream) = misbehaving_run(false);
    let (remote, remote_stream) = misbehaving_run(true);
    let local = local.unwrap();
    let remote = remote.unwrap();

    // The verdict is flagged at the divergent rendezvous and attributed
    // to the sender of the wrong label.
    assert_eq!(local.role, RoleId::new("pong"));
    assert!(
        local.observed.contains("ping"),
        "observed the mislabeled send: {}",
        local.observed
    );

    // Identical on both transports, telemetry seq included: the
    // per-performance stream is gapless and identically ordered
    // wherever the performance runs.
    assert_eq!(local, remote, "verdicts must agree across transports");

    // The divergent event is the same rendezvous in both streams: the
    // fourth of the performance (round 1's reply).
    for stream in [&local_stream, &remote_stream] {
        let ordinal = stream
            .iter()
            .filter(|e| {
                matches!(e.payload, TelemetryPayload::Rendezvous(_)) && e.seq < local.at_seq
            })
            .count();
        assert_eq!(ordinal, 3, "divergence at the fourth rendezvous");
    }

    // The downstream plane saw the synthesized violation on both runs.
    for stream in [&local_stream, &remote_stream] {
        let violations = stream
            .iter()
            .filter(|e| matches!(e.payload, TelemetryPayload::ProtocolViolation { .. }))
            .count();
        assert_eq!(violations, 1, "one synthesized ProtocolViolation event");
    }
}
