//! End-to-end acceptance for adaptive quiescence windows: one instance,
//! one `WatchdogPolicy::Adaptive` setting, **no per-transport tuning** —
//! yet the watchdog
//!
//! * does not stall a healthy socket-backed performance whose every
//!   rendezvous is (by construction) more than 10× slower than the
//!   in-process baseline, and
//! * still aborts genuinely deadlocked performances on both transports,
//!   with [`ScriptEvent::PerformanceStalled`] carrying the observed p99
//!   and the window the watchdog had armed.
//!
//! The slow transport is real: a TCP hub ([`TransportServer`]) with
//! per-performance [`SocketTransport`] spokes, plus a certain
//! (probability-1) injected delay on every send, sized from a measured
//! in-process baseline so the 10× relation cannot flake.

use std::sync::Arc;
use std::time::{Duration, Instant};

use script::chan::{FaultPlan, Network, ShardedTransport, Transport};
use script::core::{
    AdaptiveWindow, Initiation, NetworkFactory, PerformanceNet, RingObserver, RoleId, Script,
    ScriptError, ScriptEvent, TelemetryPayload, Termination, WatchdogPolicy,
};
use script::net::{SocketTransport, TransportServer};

/// A role taking `(rounds, hang)` and yielding nothing.
type PingPongRole = script::core::RoleHandle<u64, (u64, bool), ()>;

/// Ping-pong with a deadlock switch: both roles run `rounds` request/
/// reply rounds; with `hang` set they then both issue one more receive —
/// a genuine deadlock, reached only *after* the estimator has samples.
fn ping_pong_script(name: &str) -> (Script<u64>, PingPongRole, PingPongRole) {
    let mut b = Script::<u64>::builder(name);
    let ping = b.role("ping", |ctx, (rounds, hang): (u64, bool)| {
        for k in 0..rounds {
            ctx.send(&RoleId::new("pong"), k)?;
            ctx.recv_from(&RoleId::new("pong"))?;
        }
        if hang {
            ctx.recv_from(&RoleId::new("pong"))?;
        }
        Ok(())
    });
    let pong = b.role("pong", |ctx, (rounds, hang): (u64, bool)| {
        for _ in 0..rounds {
            let v = ctx.recv_from(&RoleId::new("ping"))?;
            ctx.send(&RoleId::new("ping"), v + 1)?;
        }
        if hang {
            ctx.recv_from(&RoleId::new("ping"))?;
        }
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    (b.build().unwrap(), ping, pong)
}

/// Runs one two-role performance, returning the two enrollment results.
fn run_performance(
    inst: &script::core::Instance<u64>,
    ping: &PingPongRole,
    pong: &PingPongRole,
    rounds: u64,
    hang: bool,
) -> (Result<(), ScriptError>, Result<(), ScriptError>) {
    std::thread::scope(|s| {
        let i = inst.clone();
        let ping = ping.clone();
        let h = s.spawn(move || i.enroll(&ping, (rounds, hang)));
        let pong_result = inst.enroll(pong, (rounds, hang));
        (h.join().unwrap(), pong_result)
    })
}

#[test]
fn adaptive_policy_handles_both_transports_untuned() {
    let (script, ping, pong) = ping_pong_script("adaptive_e2e");
    let inst = script.instance();
    let ring = Arc::new(RingObserver::new(256));
    inst.set_observer(Arc::clone(&ring) as _);
    // The one and only watchdog setting in this test: stock adaptive
    // defaults, never re-tuned as the transport changes underneath it.
    inst.set_watchdog_policy(WatchdogPolicy::Adaptive);

    // Phase 1 — in-process baseline: a healthy performance, timed, to
    // size the socket-side delay so that every later socket rendezvous
    // is provably >10× slower than the in-process p99.
    let rounds = 24u64;
    let start = Instant::now();
    let (a, b) = run_performance(&inst, &ping, &pong, rounds, false);
    a.unwrap();
    b.unwrap();
    // Each round is two rendezvous; the mean over-estimates the p99 of
    // a single op only under pathological skew, and the 10× factor plus
    // the 20 ms floor give generous margin either way.
    let per_op = start.elapsed() / (rounds as u32 * 2);
    let delay = (per_op * 10).max(Duration::from_millis(20));

    // Phases 2–3 run on a real TCP hub; every spoke network carries a
    // certain injected delay on each send, so every rendezvous costs at
    // least `delay` — >10× the in-process per-op latency by construction.
    let inner: Arc<dyn Transport<RoleId, u64>> = Arc::new(ShardedTransport::new(false, None));
    let server = TransportServer::bind("127.0.0.1:0", inner).expect("bind hub");
    let addr = server.local_addr();
    let factory: Arc<NetworkFactory<u64>> = Arc::new(move |_ctx: &PerformanceNet| {
        let spoke: Arc<dyn Transport<RoleId, u64>> =
            Arc::new(SocketTransport::<RoleId, u64>::connect(addr).expect("spoke connect"));
        let net = Network::with_transport(spoke);
        net.set_fault_plan(FaultPlan::new(5).with_delay(1.0, delay));
        net
    });
    inst.set_network_factory(factory);

    // Phase 2 — healthy but slow: the same adaptive policy must ride
    // out rendezvous >10× the in-process baseline without a stall. The
    // initial window covers the cold start; once samples arrive the
    // window tracks the observed socket p99.
    let (a, b) = run_performance(&inst, &ping, &pong, 12, false);
    a.expect("healthy slow ping must not be stalled");
    b.expect("healthy slow pong must not be stalled");

    // Phase 3 — genuine deadlock over the socket, after three healthy
    // rounds so the estimator holds real socket samples. The watchdog
    // must abort it (the hub is poisoned by the abort, so this is the
    // hub's last performance).
    let (a, b) = run_performance(&inst, &ping, &pong, 3, true);
    assert_eq!(a.unwrap_err(), ScriptError::Stalled);
    assert_eq!(b.unwrap_err(), ScriptError::Stalled);

    // Phase 4 — genuine deadlock in-process: same instance, same
    // policy, back on the default transport.
    inst.clear_network_factory();
    let (a, b) = run_performance(&inst, &ping, &pong, 3, true);
    assert_eq!(a.unwrap_err(), ScriptError::Stalled);
    assert_eq!(b.unwrap_err(), ScriptError::Stalled);

    // Exactly the two deadlocked performances stalled — the slow
    // healthy one did not — and each stall event carries the estimator
    // evidence it was decided on.
    let stalls: Vec<(Option<Duration>, Duration)> = ring
        .drain()
        .into_iter()
        .filter_map(|e| match e.payload {
            TelemetryPayload::Script(ScriptEvent::PerformanceStalled {
                observed_p99,
                window,
                ..
            }) => Some((observed_p99, window)),
            _ => None,
        })
        .collect();
    assert_eq!(
        stalls.len(),
        2,
        "exactly the two deadlocks must stall, got {stalls:?}"
    );
    for (observed_p99, window) in &stalls {
        let p99 = observed_p99.expect("both deadlocks completed rendezvous before hanging");
        assert!(
            *window >= AdaptiveWindow::MIN_WINDOW,
            "armed window {window:?} below the policy floor"
        );
        assert!(
            *window > p99,
            "armed window {window:?} must exceed the observed p99 {p99:?}"
        );
    }
    // The first stall is the socket-backed one: its p99 must reflect
    // the injected delay, proving hub-side time was attributed to the
    // performance that paid for it.
    let (socket_p99, socket_window) = &stalls[0];
    assert!(
        socket_p99.unwrap() >= delay,
        "socket p99 {socket_p99:?} must include the {delay:?} injected delay"
    );
    assert!(
        *socket_window >= delay,
        "socket window {socket_window:?} must dominate the injected delay"
    );
    drop(server);
}
