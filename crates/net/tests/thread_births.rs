//! Steady state births no thread: hubs and spokes come and go on the
//! process's one I/O thread. The counters read here
//! ([`script_net::io_stats`]) are process-wide, so this file is one test
//! in a process of its own.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{Arm, CastStep, Outcome, ShardedTransport, Transport};
use script_core::RetryPolicy;
use script_net::{io_stats, DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};

type Hub = TransportServer<String, u64>;
type Spoke = SocketTransport<String, u64>;

fn hub() -> Hub {
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(7)));
    TransportServer::bind("127.0.0.1:0", inner).expect("bind")
}

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(10))
}

/// Sources leave on the I/O thread, a moment after the drop that told
/// them to.
fn wait_for_sources(want: usize) {
    let until = Instant::now() + Duration::from_secs(10);
    while io_stats().sources != want && Instant::now() < until {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(io_stats().sources, want);
}

/// Descriptors leave with their sources, on the I/O thread.
fn wait_for_descriptors(want: usize) {
    let until = Instant::now() + Duration::from_secs(10);
    while io_stats().descriptors != want && Instant::now() < until {
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(io_stats().descriptors, want, "a registration leaked");
}

#[test]
fn sessions_come_and_go_on_one_io_thread() {
    let (a, b) = ("a".to_string(), "b".to_string());
    assert_eq!(io_stats().io_threads, 0, "nothing bound or dialed yet");

    // Session churn: 100 × (bind, dial, one cast, one rendezvous, drop).
    for round in 0..100u64 {
        let server = hub();
        let spoke = Spoke::connect(server.local_addr()).expect("resolve");
        spoke.cast(&[CastStep::Activate(a.clone()), CastStep::Activate(b.clone())]);
        thread::scope(|s| {
            s.spawn(|| spoke.send(&a, &b, round, far()).expect("send"));
            let got = spoke.select(&b, vec![Arm::recv_any()], far());
            assert!(matches!(got, Ok(Outcome::Received { msg, .. }) if msg == round));
        });
        assert_eq!(io_stats().sources, 2, "one hub, one spoke connection");
        drop(spoke);
        drop(server);
        wait_for_sources(0);
        wait_for_descriptors(0);
    }
    let churned = io_stats();
    assert_eq!(churned.io_threads, 1, "{churned:?}");
    assert_eq!(churned.redial_threads, 0, "{churned:?}");

    // Fan-in: 64 spokes on one hub cost 64 sources, and no thread.
    let server = hub();
    let inner = server.inner();
    inner.activate(b.clone());
    for i in 0..64 {
        // Expected from the start: the sink is never without a sender.
        inner.declare(format!("s{i}"));
    }
    let spokes: Vec<Spoke> = (0..64)
        .map(|_| Spoke::connect(server.local_addr()).expect("resolve"))
        .collect();
    thread::scope(|s| {
        for (i, spoke) in spokes.iter().enumerate() {
            let b = &b;
            s.spawn(move || {
                let me = format!("s{i}");
                spoke.activate(me.clone());
                spoke.send(&me, b, i as u64, far()).expect("send");
            });
        }
        for _ in 0..spokes.len() {
            let got = inner.select(&b, vec![Arm::recv_any()], far());
            assert!(matches!(got, Ok(Outcome::Received { .. })), "{got:?}");
        }
    });
    assert_eq!(io_stats().sources, 65);
    assert_eq!(
        io_stats().descriptors,
        1 + 2 * 64,
        "a listener, both ends of 64"
    );
    drop(spokes);
    drop(server);
    wait_for_sources(0);
    wait_for_descriptors(0);

    // The fleet: its doors and every control connection are one source,
    // a relayed connection is one more — and no thread outlives a dial.
    let fleet = HubFleet::launch(2, 9).expect("launch");
    let ctl = FleetClient::connect(&fleet.any_addr().to_string(), 9).expect("resolve");
    let server = hub();
    ctl.register_node(&server.local_addr().to_string())
        .expect("register");
    for perf in 0..200 {
        ctl.place("births", perf, &[], None).expect("place");
    }
    assert_eq!(
        io_stats().sources,
        2,
        "a fleet and a hub, whatever was placed"
    );
    let inner = server.inner();
    inner.activate(b.clone());
    for i in 0..16 {
        inner.declare(format!("r{i}"));
    }
    let plan = DialPlan::direct(server.local_addr())
        .with_relay(fleet.any_addr())
        .with_forced_relay();
    let spokes: Vec<Spoke> = (0..16)
        .map(|_| Spoke::with_plan(plan, RetryPolicy::new(6)))
        .collect();
    thread::scope(|s| {
        for (i, spoke) in spokes.iter().enumerate() {
            let b = &b;
            s.spawn(move || {
                let me = format!("r{i}");
                spoke.activate(me.clone());
                spoke.send(&me, b, i as u64, far()).expect("send");
            });
        }
        for _ in 0..spokes.len() {
            let got = inner.select(&b, vec![Arm::recv_any()], far());
            assert!(matches!(got, Ok(Outcome::Received { .. })), "{got:?}");
        }
    });
    assert!(spokes.iter().all(|spoke| spoke.relay_dials() == 1));
    assert_eq!(
        io_stats().sources,
        1 + 1 + 16 + 16,
        "fleet, hub, spokes, splices"
    );
    drop(spokes);
    drop(server);
    drop(fleet);
    wait_for_sources(0);
    wait_for_descriptors(0);

    let end = io_stats();
    println!("{end:?}");
    assert_eq!(end.io_threads, 1, "{end:?}");
    assert_eq!(end.redial_threads, 0, "{end:?}");
    assert!(end.wakes > 0 && end.events > 0, "{end:?}");
}
