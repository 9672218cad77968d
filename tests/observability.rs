//! End-to-end check of the unified observability plane across every
//! layer: an engine-local performance whose network is a socket spoke
//! to a TCP hub, running under a chaos plan and an adaptive watchdog,
//! must deliver ONE merged telemetry stream to a subscribed
//! [`Observer`] — lifecycle events, rendezvous latency samples,
//! watchdog arms, and the hub-side fault injections forwarded back over
//! the wire — with gapless, strictly increasing per-performance
//! sequence numbers (the acceptance criterion for the plane).

use std::sync::{Arc, Barrier, Mutex};

use script::chan::{Network, ShardedTransport, Transport};
use script::core::{
    FaultPlan, Initiation, MultiObserver, NetworkFactory, Observer, PerformanceNet, RingObserver,
    RoleId, Script, ScriptEvent, TelemetryEvent, TelemetryPayload, Termination, WatchdogPolicy,
};
use script::net::{SocketTransport, TransportServer};

use std::time::Duration;

/// A subscriber that records the stream in arrival order.
#[derive(Default)]
struct Collect(Mutex<Vec<TelemetryEvent>>);

impl Observer for Collect {
    fn on_event(&self, event: TelemetryEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// A hub plus a factory routing every performance of an instance onto
/// it over TCP (engine local, shard's network on the hub).
fn hub() -> (TransportServer<RoleId, u64>, Arc<NetworkFactory<u64>>) {
    let inner: Arc<dyn Transport<RoleId, u64>> = Arc::new(ShardedTransport::new(false, None));
    let server = TransportServer::bind("127.0.0.1:0", inner).expect("bind hub");
    let addr = server.local_addr();
    let factory: Arc<NetworkFactory<u64>> = Arc::new(move |_ctx: &PerformanceNet| {
        let spoke: Arc<dyn Transport<RoleId, u64>> =
            Arc::new(SocketTransport::<RoleId, u64>::connect(addr).expect("spoke connect"));
        Network::with_transport(spoke)
    });
    (server, factory)
}

#[test]
fn distributed_performance_yields_one_gapless_merged_stream() {
    const ROUNDS: u64 = 4;
    let mut b = Script::<u64>::builder("obs_e2e");
    let ping = b.role("ping", |ctx, ()| {
        for k in 0..ROUNDS {
            ctx.send(&RoleId::new("pong"), k)?;
            assert_eq!(ctx.recv_from(&RoleId::new("pong"))?, k + 1);
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
    let script = b.build().unwrap();

    let (_server, factory) = hub();
    let inst = script.instance();
    inst.set_network_factory(factory);
    inst.set_chaos_seed(11);
    // A certain delay on every message: each rendezvous pays it at the
    // hub, and each injection must stream back to this process.
    inst.set_fault_plan(FaultPlan::new(13).with_delay(1.0, Duration::from_millis(2)));
    inst.set_watchdog_policy(WatchdogPolicy::Adaptive);
    // Two subscribers on the one observer slot: a `MultiObserver` fans
    // out.
    let collect = Arc::new(Collect::default());
    let ring = Arc::new(RingObserver::new(1024));
    inst.set_observer(Arc::new(MultiObserver::with(vec![
        Arc::clone(&collect) as _,
        Arc::clone(&ring) as _,
    ])));

    std::thread::scope(|s| {
        let h = s.spawn(|| inst.enroll(&pong, ()));
        inst.enroll(&ping, ()).unwrap();
        h.join().unwrap().unwrap();
    });
    assert_eq!(inst.completed_performances(), 1);

    let stream = collect.0.lock().unwrap().clone();

    // One merged stream: per-performance seqs are gapless and strictly
    // increasing in arrival order (the events of the one performance
    // interleave engine-thread emissions with hub-forwarded faults
    // arriving on the socket reader thread), and instance-scoped
    // events are numbered on their own gapless sequence.
    let mut perf_ids: Vec<_> = stream.iter().filter_map(|e| e.performance).collect();
    perf_ids.dedup();
    assert_eq!(perf_ids.len(), 1, "one performance, one sequence");
    let perf_seqs: Vec<u64> = stream
        .iter()
        .filter(|e| e.performance.is_some())
        .map(|e| e.seq)
        .collect();
    assert!(
        perf_seqs.iter().copied().eq(0..perf_seqs.len() as u64),
        "per-performance seqs must be gapless from 0 in arrival order: {perf_seqs:?}"
    );
    let inst_seqs: Vec<u64> = stream
        .iter()
        .filter(|e| e.performance.is_none())
        .map(|e| e.seq)
        .collect();
    assert!(
        inst_seqs.iter().copied().eq(0..inst_seqs.len() as u64),
        "instance-scoped seqs must be gapless from 0: {inst_seqs:?}"
    );
    // Timestamps of one performance's events never run backwards.
    let stamps: Vec<_> = stream
        .iter()
        .filter(|e| e.performance.is_some())
        .map(|e| e.timestamp)
        .collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "per-performance timestamps must be nondecreasing"
    );

    // Every layer reported in: engine lifecycle, transport latency,
    // watchdog arming, and the hub's chaos layer.
    assert!(
        stream.iter().any(|e| matches!(
            &e.payload,
            TelemetryPayload::Script(ScriptEvent::PerformanceStarted { .. })
        )),
        "lifecycle events must be on the plane"
    );
    assert!(
        stream
            .iter()
            .any(|e| matches!(&e.payload, TelemetryPayload::Latency(_))),
        "socket-transport latency samples must be on the plane"
    );
    assert!(
        stream.iter().any(
            |e| matches!(&e.payload, TelemetryPayload::WatchdogArmed { window, .. } if *window > Duration::ZERO)
        ),
        "watchdog arms must be on the plane"
    );
    assert!(
        stream.iter().any(|e| matches!(
            &e.payload,
            TelemetryPayload::Script(ScriptEvent::FaultInjected { fault, .. }) if fault.contains("delay")
        )),
        "hub-side fault injections must stream back into the merged plane: {stream:?}"
    );

    // The ring saw the same traffic (fan-out), through to completion.
    assert!(
        stream.iter().any(|e| matches!(
            &e.payload,
            TelemetryPayload::Script(ScriptEvent::PerformanceCompleted { .. })
        )),
        "the completion must be on the plane"
    );
    assert_eq!(ring.dropped(), 0);
    assert_eq!(ring.drain(), stream);
}

/// An observer installed *after* a chaos performance opened still
/// receives that performance's fault injections — live, as the roles
/// communicate, not in a batch at completion — and every one of them
/// before `PerformanceCompleted`.
fn late_observer_sees_faults_live(factory: Option<Arc<NetworkFactory<u64>>>) {
    const ROUNDS: u64 = 4;
    // The sender stops here twice: once to say its body is running
    // (the performance is open), once to be let go.
    let gate = Arc::new(Barrier::new(2));
    let mut b = Script::<u64>::builder("obs_late");
    let ping = b.role("ping", {
        let gate = Arc::clone(&gate);
        move |ctx, ()| {
            gate.wait();
            gate.wait();
            for k in 0..ROUNDS {
                ctx.send(&RoleId::new("pong"), k)?;
                ctx.recv_from(&RoleId::new("pong"))?;
            }
            Ok(())
        }
    });
    let pong = b.role("pong", |ctx, ()| {
        for _ in 0..ROUNDS {
            let v = ctx.recv_from(&RoleId::new("ping"))?;
            ctx.send(&RoleId::new("ping"), v + 1)?;
        }
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    if let Some(factory) = factory {
        inst.set_network_factory(factory);
    }
    inst.set_chaos_seed(17);
    // A certain delay: exactly one fault record per send.
    inst.set_fault_plan(FaultPlan::new(19).with_delay(1.0, Duration::from_micros(200)));

    let collect = Arc::new(Collect::default());
    std::thread::scope(|s| {
        let hp = s.spawn(|| inst.enroll(&pong, ()));
        let hi = s.spawn(|| inst.enroll(&ping, ()));
        gate.wait();
        inst.set_observer(Arc::clone(&collect) as _);
        gate.wait();
        hi.join().unwrap().unwrap();
        hp.join().unwrap().unwrap();
    });

    let stream = collect.0.lock().unwrap().clone();
    let position = |want: &dyn Fn(&ScriptEvent) -> bool| {
        stream
            .iter()
            .position(|e| matches!(&e.payload, TelemetryPayload::Script(ev) if want(ev)))
    };
    let faults: Vec<usize> = (0..stream.len())
        .filter(|&i| {
            matches!(
                &stream[i].payload,
                TelemetryPayload::Script(ScriptEvent::FaultInjected { .. })
            )
        })
        .collect();
    assert_eq!(
        faults.len() as u64,
        2 * ROUNDS,
        "one delay record per send must reach the late observer: {stream:?}"
    );
    let finished = position(&|ev| matches!(ev, ScriptEvent::RoleFinished { .. }))
        .expect("the roles finish after the observer is installed");
    assert!(
        faults[0] < finished,
        "faults stream as they are injected, not once the roles are done: {stream:?}"
    );
    let completed = position(&|ev| matches!(ev, ScriptEvent::PerformanceCompleted { .. }))
        .expect("the completion is on the plane");
    assert!(
        faults.iter().all(|&i| i < completed),
        "every fault precedes the completion: {stream:?}"
    );
}

#[test]
fn late_observer_sees_in_process_faults_live() {
    late_observer_sees_faults_live(None);
}

#[test]
fn late_observer_sees_hub_side_faults_live() {
    let (_server, factory) = hub();
    late_observer_sees_faults_live(Some(factory));
}
