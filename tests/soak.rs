//! Long-running soak tests, ignored by default:
//!
//! ```sh
//! cargo test --release --test soak -- --ignored
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use script::chan::{
    Arm, FaultPlan, FaultRecord, Network, Observers, Outcome, ShardedTransport, Transport,
};
use script::core::{
    Initiation, NetworkFactory, Observer, PerformanceNet, RetryPolicy, RingObserver, RoleId,
    Script, ScriptError, ScriptEvent, TelemetryEvent, TelemetryPayload, Termination,
    WatchdogPolicy,
};
use script::lib::broadcast::{self, Order};
use script::lib::gossip::{self, Delivery};
use script::lockmgr::script::Cluster;
use script::lockmgr::strategy::Strategy;
use script::lockmgr::workload::{self, WorkloadSpec};
use script::net::{DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};

#[test]
#[ignore = "soak test: run explicitly"]
fn thousand_broadcast_performances() {
    let b = broadcast::star::<u64>(4, Order::NonDeterministic);
    let inst = b.script.instance();
    for v in 0..1_000 {
        let got = broadcast::run_on(&inst, &b, v).unwrap();
        assert_eq!(got, vec![v; 4]);
    }
    assert_eq!(inst.completed_performances(), 1_000);
}

/// Regime-shift soak for adaptive watchdog windows: 200 healthy
/// performances alternate — by performance-id parity — between the fast
/// in-process transport and a slow socket transport (TCP hub plus a
/// certain 2 ms injected delay per send). One untouched
/// [`WatchdogPolicy::Adaptive`] setting must produce **zero** spurious
/// stalls across every regime flip, then still detect one genuine
/// deadlock per regime.
#[test]
#[ignore = "soak test: run explicitly"]
fn adaptive_watchdog_regime_shift() {
    let mut b = Script::<u64>::builder("regime_shift");
    let ping = b.role("ping", |ctx, hang: bool| {
        for k in 0..3u64 {
            ctx.send(&RoleId::new("pong"), k)?;
            ctx.recv_from(&RoleId::new("pong"))?;
        }
        if hang {
            ctx.recv_from(&RoleId::new("pong"))?;
        }
        Ok(())
    });
    let pong = b.role("pong", |ctx, hang: bool| {
        for _ in 0..3u64 {
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
    let script = b.build().unwrap();
    let inst = script.instance();
    let ring = Arc::new(RingObserver::new(8192));
    inst.set_observer(Arc::clone(&ring) as _);
    inst.set_watchdog_policy(WatchdogPolicy::Adaptive);

    let inner: Arc<dyn Transport<RoleId, u64>> = Arc::new(ShardedTransport::new(false, None));
    let server = TransportServer::bind("127.0.0.1:0", inner).expect("bind hub");
    let addr = server.local_addr();
    // Route by parity: even-numbered performances stay in-process,
    // odd-numbered ones cross the TCP hub with a certain injected
    // delay — so consecutive performances flip regimes every time.
    let factory: Arc<NetworkFactory<u64>> = Arc::new(move |ctx: &PerformanceNet| {
        if ctx.performance.0.is_multiple_of(2) {
            Network::new()
        } else {
            let spoke: Arc<dyn Transport<RoleId, u64>> =
                Arc::new(SocketTransport::<RoleId, u64>::connect(addr).expect("spoke connect"));
            let net = Network::with_transport(spoke);
            net.set_fault_plan(FaultPlan::new(7).with_delay(1.0, Duration::from_millis(2)));
            net
        }
    });
    inst.set_network_factory(factory);

    let run = |hang: bool| -> (Result<(), ScriptError>, Result<(), ScriptError>) {
        std::thread::scope(|s| {
            let i = inst.clone();
            let ping = ping.clone();
            let h = s.spawn(move || i.enroll(&ping, hang));
            let pong_result = inst.enroll(&pong, hang);
            (h.join().unwrap(), pong_result)
        })
    };

    for seq in 0..200u64 {
        let (a, b) = run(false);
        a.unwrap_or_else(|e| panic!("spurious failure on performance {seq} (ping): {e:?}"));
        b.unwrap_or_else(|e| panic!("spurious failure on performance {seq} (pong): {e:?}"));
    }

    // One genuine deadlock per regime. Sequence numbers continue from
    // the healthy run: 200 is even (in-process), 201 odd (socket). The
    // socket deadlock goes last because aborting it poisons the shared
    // hub for any performance after it.
    let (a, b) = run(true);
    assert_eq!(a.unwrap_err(), ScriptError::Stalled);
    assert_eq!(b.unwrap_err(), ScriptError::Stalled);
    let (a, b) = run(true);
    assert_eq!(a.unwrap_err(), ScriptError::Stalled);
    assert_eq!(b.unwrap_err(), ScriptError::Stalled);

    let stalls = ring
        .drain()
        .iter()
        .filter(|e| {
            matches!(
                e.payload,
                TelemetryPayload::Script(ScriptEvent::PerformanceStalled { .. })
            )
        })
        .count();
    assert_eq!(
        stalls, 2,
        "exactly the two seeded deadlocks may stall — anything more is spurious"
    );
    assert_eq!(inst.completed_performances(), 202);
    drop(server);
}

/// A telemetry collector for the reconnect-storm tests: records every
/// event so the caller can audit per-performance sequence gaplessness
/// and session-lifecycle pairing after the storm.
struct Collect(Mutex<Vec<TelemetryEvent>>);

impl Observer for Collect {
    fn on_event(&self, event: TelemetryEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// The reconnect storm: `performances` sequential ping/pong
/// performances, every one animated over a TCP spoke against a hub
/// whose chaos plan severs connections and imposes short partitions.
/// Every sever must heal by session resumption inside the lease —
/// zero lost or duplicated rendezvous (the role bodies verify every
/// echoed value), zero telemetry gaps (per-performance `seq` audited
/// to be contiguous from 0), zero lease expiries, and every
/// disconnect paired with a resume.
fn reconnect_storm(performances: u64) {
    let mut b = Script::<u64>::builder("reconnect_storm");
    let ping = b.role("ping", |ctx, base: u64| {
        for k in 0..3u64 {
            ctx.send(&RoleId::new("pong"), base + k)?;
            let v = ctx.recv_from(&RoleId::new("pong"))?;
            assert_eq!(v, base + k + 1, "lost or duplicated rendezvous");
        }
        Ok(())
    });
    let pong = b.role("pong", |ctx, base: u64| {
        for k in 0..3u64 {
            let v = ctx.recv_from(&RoleId::new("ping"))?;
            assert_eq!(v, base + k, "lost or duplicated rendezvous");
            ctx.send(&RoleId::new("ping"), v + 1)?;
        }
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    inst.set_watchdog_policy(WatchdogPolicy::Adaptive);
    let collect = Arc::new(Collect(Mutex::new(Vec::new())));
    inst.set_observer(Arc::clone(&collect) as Arc<dyn Observer>);

    let inner: Arc<dyn Transport<RoleId, u64>> = Arc::new(ShardedTransport::new(false, None));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind hub");
    let addr = server.local_addr();
    // Every send decision has a 35% chance of severing the sending
    // session's connection and a 15% chance of a 40 ms partition that
    // stonewalls the reconnect — both well inside the 1 s lease.
    inner.set_fault_plan(
        FaultPlan::new(0x5708)
            .with_sever(0.35)
            .with_partition(0.15, Duration::from_millis(40)),
        |m| *m,
    );
    type Spoke = SocketTransport<RoleId, u64>;
    let latest: Arc<Mutex<Option<Arc<Spoke>>>> = Arc::default();
    let factory: Arc<NetworkFactory<u64>> = Arc::new({
        let latest = Arc::clone(&latest);
        move |_ctx: &PerformanceNet| {
            let spoke = Arc::new(Spoke::connect(addr).expect("spoke connect"));
            *latest.lock().unwrap() = Some(Arc::clone(&spoke));
            Network::with_transport(spoke)
        }
    });
    inst.set_network_factory(factory);

    for seq in 0..performances {
        let base = seq * 100;
        let (a, b) = std::thread::scope(|s| {
            let i = inst.clone();
            let ping = ping.clone();
            let h = s.spawn(move || i.enroll(&ping, base));
            let pong_result = inst.enroll(&pong, base);
            (h.join().unwrap(), pong_result)
        });
        a.unwrap_or_else(|e| panic!("performance {seq} lost (ping): {e:?}"));
        b.unwrap_or_else(|e| panic!("performance {seq} lost (pong): {e:?}"));
        // Nothing is left in flight: behind one durable query — the hub
        // answers a connection in order, across any resume — every
        // lifecycle command the performance posted has been answered.
        let spoke = latest
            .lock()
            .unwrap()
            .take()
            .expect("placed by the factory");
        assert_eq!(spoke.ensure_peer(&RoleId::new("ping")), Ok(()));
        assert_eq!(spoke.unanswered(), (0, 0), "performance {seq}");
    }
    assert_eq!(inst.completed_performances(), performances);

    let events = collect.0.lock().unwrap();
    let mut disconnects = 0u64;
    let mut resumes = 0u64;
    let mut streams: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    for e in events.iter() {
        streams.entry(e.performance).or_default().push(e.seq);
        match &e.payload {
            TelemetryPayload::PeerDisconnected { .. } => disconnects += 1,
            TelemetryPayload::PeerResumed { .. } => resumes += 1,
            TelemetryPayload::LeaseExpired { peer } => {
                panic!("lease expired for {peer:?} — a resume was lost")
            }
            TelemetryPayload::Script(ScriptEvent::PerformanceStalled { .. }) => {
                panic!("spurious stall during the storm")
            }
            _ => {}
        }
    }
    // Zero telemetry gaps: within every stream (per performance, plus
    // the instance-scoped stream) `seq` is contiguous from 0.
    for (perf, seqs) in &streams {
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(*s, i as u64, "telemetry gap in stream {perf:?}");
        }
    }
    assert!(
        disconnects > 0,
        "the storm never severed a connection — the plan is inert"
    );
    assert_eq!(
        disconnects, resumes,
        "every disconnect must pair with exactly one resume"
    );
    drop(server);
}

/// CI-sized storm: a handful of performances, same invariants.
#[test]
fn reconnect_storm_smoke() {
    reconnect_storm(10);
}

/// The full storm from the robustness acceptance criteria: 100
/// performances under sever+partition chaos, zero lost or duplicated
/// rendezvous, zero telemetry gaps.
#[test]
#[ignore = "soak test: run explicitly"]
fn reconnect_storm_soak() {
    reconnect_storm(100);
}

/// Which transport a churn run places its performances on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnMode {
    /// The in-process reference transport.
    Sharded,
    /// Every rendezvous crosses a loopback TCP hub.
    Socket,
    /// The federated stack: a matcher fleet places each performance,
    /// mints a signed descriptor, and the spoke dials the descriptor's
    /// home node directly (relay fallback armed but unused).
    Federated,
}

/// The membership-churn harness: `performances` sequential epidemic
/// gossip performances on one instance, with the member pool churning
/// continuously — after every performance one node retires and a fresh
/// one enlists, so enrollments and departures overlap dissemination —
/// under seeded sever+delay chaos. Verified invariants:
///
/// * **zero lost rumors, exactly once** — every performance delivers
///   its rumor to exactly its `N` cast members, each exactly once, and
///   every rumor lands in exactly one performance;
/// * **gapless telemetry** — within every per-performance stream `seq`
///   is contiguous from 0, and no lease ever expires;
/// * **bit-identical replay** — the returned fingerprint covers the
///   delivery audit, the full seeded `PeerView` overlay schedule, and
///   the chaos decision schedule (pure functions of `(seed, edge,
///   sequence)`); two runs with one seed must return identical
///   fingerprints, on any transport. CSP selection order is free to
///   vary between runs; everything the seed promises is pinned here.
fn membership_churn(performances: u64, mode: ChurnMode, seed: u64) -> Vec<String> {
    const N: usize = 5;
    const FANOUT: usize = 2;
    let g = Arc::new(gossip::gossip::<u64>(N, FANOUT, seed));
    let inst = g.script.instance();
    let collect = Arc::new(Collect(Mutex::new(Vec::new())));
    inst.set_observer(Arc::clone(&collect) as Arc<dyn Observer>);

    let plan = FaultPlan::new(seed)
        .with_sever(0.3)
        .with_delay(0.5, Duration::from_micros(50));
    // Hubs of the socket arm, parked so they outlive their performance
    // (dropping a TransportServer severs its spokes). Each performance
    // gets its *own* hub: performances overlap (the next cast gathers
    // while the previous one drains), and member role ids repeat per
    // performance, so a shared hub namespace would collide.
    let servers: Arc<Mutex<VecDeque<TransportServer<RoleId, u64>>>> =
        Arc::new(Mutex::new(VecDeque::new()));
    // Matcher fleets of the federated arm, parked for the same reason
    // (dropping a HubFleet shuts its shards down while a spoke may
    // still hold them as relay fallback).
    let fleets: Arc<Mutex<VecDeque<HubFleet>>> = Arc::new(Mutex::new(VecDeque::new()));
    match mode {
        ChurnMode::Socket => {
            let plan = plan.clone();
            let servers = Arc::clone(&servers);
            let factory: Arc<NetworkFactory<u64>> = Arc::new(move |ctx: &PerformanceNet| {
                // Open inner transport: gossip casts reference members
                // that have not enrolled yet, exactly like the engine's
                // default open-family network.
                let inner: Arc<dyn Transport<RoleId, u64>> =
                    Arc::new(ShardedTransport::new(true, None));
                inner.set_fault_plan(plan.reseeded(plan.seed() ^ ctx.performance.0), |m| *m);
                let hub =
                    TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind hub");
                let spoke: Arc<dyn Transport<RoleId, u64>> = Arc::new(
                    SocketTransport::<RoleId, u64>::connect(hub.local_addr())
                        .expect("spoke connect"),
                );
                servers.lock().unwrap().push_back(hub);
                Network::with_transport(spoke)
            });
            inst.set_network_factory(factory);
        }
        ChurnMode::Federated => {
            const SECRET: u64 = 0xC0DE;
            let plan = plan.clone();
            let servers = Arc::clone(&servers);
            let fleets = Arc::clone(&fleets);
            let family = "churn";
            let factory: Arc<NetworkFactory<u64>> = Arc::new(move |ctx: &PerformanceNet| {
                // One matcher shard + one home node per performance
                // (role ids repeat across performances, so homes cannot
                // be shared). The control plane places; the spoke dials
                // the signed descriptor's home directly.
                let fleet = HubFleet::launch(1, SECRET).expect("launch fleet");
                let inner: Arc<dyn Transport<RoleId, u64>> =
                    Arc::new(ShardedTransport::new(true, None));
                inner.set_fault_plan(plan.reseeded(plan.seed() ^ ctx.performance.0), |m| *m);
                let hub =
                    TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind hub");
                let ctl = FleetClient::connect(&fleet.any_addr().to_string(), SECRET)
                    .expect("fleet connect");
                ctl.register_node(&hub.local_addr().to_string())
                    .expect("register home");
                let desc = ctl
                    .place(family, ctx.performance.0, &[], ctx.seed)
                    .expect("place performance");
                assert!(desc.verify(SECRET), "descriptor must verify");
                assert_eq!(desc.chaos_seed, ctx.seed, "descriptor carries the seed");
                let home = desc.home.parse().expect("home address");
                let spoke: Arc<dyn Transport<RoleId, u64>> =
                    Arc::new(SocketTransport::<RoleId, u64>::with_plan(
                        DialPlan::direct(home).with_relay(fleet.any_addr()),
                        RetryPolicy::new(6)
                            .with_base(Duration::from_millis(25))
                            .with_cap(Duration::from_millis(500)),
                    ));
                servers.lock().unwrap().push_back(hub);
                fleets.lock().unwrap().push_back(fleet);
                Network::with_transport(spoke)
            });
            inst.set_network_factory(factory);
        }
        ChurnMode::Sharded => {
            let plan = plan.clone();
            let factory: Arc<NetworkFactory<u64>> = Arc::new(move |ctx: &PerformanceNet| {
                let net = Network::new_open();
                net.set_fault_plan(plan.reseeded(plan.seed() ^ ctx.performance.0));
                net
            });
            inst.set_network_factory(factory);
        }
    }

    let receipts: Arc<Mutex<Vec<Delivery<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|s| {
        // A node enrolls into performance after performance until its
        // retire flag is raised (checked between performances) or the
        // instance shuts down beneath it.
        let spawn_node = |retire: Arc<AtomicBool>| {
            let inst = inst.clone();
            let g = Arc::clone(&g);
            let receipts = Arc::clone(&receipts);
            s.spawn(move || loop {
                if retire.load(Ordering::SeqCst) {
                    break;
                }
                match inst.enroll_auto(&g.member, ()) {
                    Ok(d) => receipts.lock().unwrap().push(d),
                    Err(ScriptError::InstanceClosed | ScriptError::PerformanceAborted) => break,
                    Err(e) => panic!("member lost to churn: {e:?}"),
                }
            })
        };
        // One spare over the cast size: the freeze caps each cast at
        // N, the spare gathers for the next performance, and the pool
        // never dips below N live nodes mid-retirement.
        let mut handles = Vec::new();
        let mut flags: VecDeque<Arc<AtomicBool>> = VecDeque::new();
        for _ in 0..=N {
            let retire = Arc::new(AtomicBool::new(false));
            handles.push(spawn_node(Arc::clone(&retire)));
            flags.push_back(retire);
        }
        for p in 0..performances {
            inst.enroll(&g.seeder, p)
                .unwrap_or_else(|e| panic!("seeder lost performance {p}: {e:?}"));
            // The seeder departs as soon as its own pushes land
            // (immediate termination); wait for the rest of the cast to
            // drain before judging the performance complete.
            let deadline = Instant::now() + Duration::from_secs(120);
            while inst.completed_performances() < p + 1 {
                assert!(
                    Instant::now() < deadline,
                    "churn wedged at {} of {performances} performances",
                    inst.completed_performances()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // Only the newest hub can still be live (the gathering for
            // the next performance); retire the rest.
            {
                let mut parked = servers.lock().unwrap();
                while parked.len() > 1 {
                    parked.pop_front();
                }
                let mut parked = fleets.lock().unwrap();
                while parked.len() > 1 {
                    parked.pop_front();
                }
            }
            // Churn: enlist a replacement, then retire the oldest node.
            let retire = Arc::new(AtomicBool::new(false));
            handles.push(spawn_node(Arc::clone(&retire)));
            flags.push_back(retire);
            flags.pop_front().unwrap().store(true, Ordering::SeqCst);
        }
        for retire in flags {
            retire.store(true, Ordering::SeqCst);
        }
        // Unblock the nodes gathered for the performance that will
        // never get a seeder.
        inst.close();
        for h in handles {
            h.join().unwrap();
        }
    });
    // The close-aborted final gathering also counts as a (failed)
    // performance, so the counter may run one past the seeded total;
    // the delivery audit below pins the exact seeded count.
    assert!(inst.completed_performances() >= performances);

    // Zero lost rumors, exactly once: every performance delivered its
    // rumor to exactly N members, each member of its cast exactly once,
    // and the rumors are in bijection with the performances.
    let receipts = receipts.lock().unwrap();
    let mut by_perf: BTreeMap<u64, Vec<&Delivery<u64>>> = BTreeMap::new();
    for d in receipts.iter() {
        by_perf.entry(d.performance.0).or_default().push(d);
    }
    assert_eq!(
        by_perf.len() as u64,
        performances,
        "a performance delivered nothing"
    );
    let mut fingerprint = Vec::new();
    let mut rumors = BTreeSet::new();
    for (perf, ds) in &by_perf {
        assert_eq!(
            ds.len(),
            N,
            "performance {perf}: a live member lost the rumor"
        );
        let rumor = ds[0].rumor;
        assert!(
            ds.iter().all(|d| d.rumor == rumor),
            "performance {perf}: diverging rumors"
        );
        let cast: BTreeSet<usize> = ds.iter().map(|d| d.member).collect();
        assert_eq!(
            cast.len(),
            N,
            "performance {perf}: duplicate delivery to a member"
        );
        assert!(
            rumors.insert(rumor),
            "rumor {rumor} delivered by two performances"
        );
        fingerprint.push(format!("perf {perf}: rumor {rumor} cast {cast:?}"));
    }
    assert_eq!(rumors, (0..performances).collect(), "a rumor went missing");

    // Gapless telemetry: contiguous `seq` per stream, no lease expiry.
    let events = collect.0.lock().unwrap();
    let mut streams: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    for e in events.iter() {
        streams.entry(e.performance).or_default().push(e.seq);
        if let TelemetryPayload::LeaseExpired { peer } = &e.payload {
            panic!("lease expired for {peer:?} — a resume was lost");
        }
    }
    for (perf, seqs) in &streams {
        for (i, q) in seqs.iter().enumerate() {
            assert_eq!(*q, i as u64, "telemetry gap in stream {perf:?}");
        }
    }

    // The deterministic layers, for the bit-identical-replay assertion:
    // the seeded overlay schedule and the chaos decision schedule.
    let view = g.view();
    let members: Vec<usize> = (0..N).collect();
    for p in 0..performances {
        fingerprint.push(format!(
            "seed targets p{p}: {:?}",
            view.seed_targets(p, &members)
        ));
        for i in 0..N {
            fingerprint.push(format!("view p{p} m{i}: {:?}", view.view(p, i, &members)));
        }
    }
    for a in 0..N {
        for b in 0..N {
            for q in 0..8u64 {
                fingerprint.push(format!(
                    "chaos {a}->{b} #{q}: sever {} delay {}",
                    plan.decide_sever(&a, &b, q),
                    plan.decide_delay(&a, &b, q),
                ));
            }
        }
    }
    servers.lock().unwrap().clear();
    fleets.lock().unwrap().clear();
    fingerprint
}

/// CI-sized churn: a handful of performances per transport, every
/// invariant, plus bit-identical replay per seed — and the fingerprint
/// (delivery audit + overlay schedule + chaos schedule) is transport-
/// independent, so both transports must agree on it too.
#[test]
fn membership_churn_smoke() {
    const SEED: u64 = 0x6055;
    let sharded_run = membership_churn(8, ChurnMode::Sharded, SEED);
    assert_eq!(
        sharded_run,
        membership_churn(8, ChurnMode::Sharded, SEED),
        "sharded replay is not bit-identical"
    );
    let socket_run = membership_churn(8, ChurnMode::Socket, SEED);
    assert_eq!(
        socket_run,
        membership_churn(8, ChurnMode::Socket, SEED),
        "socket replay is not bit-identical"
    );
    assert_eq!(
        sharded_run, socket_run,
        "transports disagree on the seeded schedules or the delivery audit"
    );
    let federated_run = membership_churn(8, ChurnMode::Federated, SEED);
    assert_eq!(
        federated_run,
        membership_churn(8, ChurnMode::Federated, SEED),
        "federated replay is not bit-identical"
    );
    assert_eq!(
        sharded_run, federated_run,
        "the federated transport disagrees on the seeded schedules or the delivery audit"
    );
}

/// The full churn soak: thousands of performances with the cast
/// churning after every one — the workload shape the federation
/// north-star must survive (see the ROADMAP triage table).
#[test]
#[ignore = "soak test: run explicitly"]
fn membership_churn_soak() {
    membership_churn(2_000, ChurnMode::Sharded, 0x6055);
    membership_churn(500, ChurnMode::Socket, 0x6055);
    membership_churn(500, ChurnMode::Federated, 0x6055);
}

/// The fan-in test: `spokes` concurrent TCP spokes each stream `per`
/// values to one hub-local sink. Verified invariants:
///
/// * **zero lost or duplicated rendezvous** — the sink receives every
///   sender's values exactly once, in per-sender order;
/// * **one hub, every spoke** — at peak topology the hub's own
///   [`TransportServer::stats`] count exactly one connection and one
///   session per spoke plus the observer's (that one I/O thread
///   serves them all, and every spoke's read side too, is structural:
///   neither the hub nor a connected spoke has a spawn site);
/// * **gapless telemetry** — a certain delay fault plan stamps every
///   send with one fault record, and a spoke observer subscribed
///   before any traffic must collect exactly one record per send,
///   contiguous on every edge: nothing missing, nothing duplicated.
fn fan_in(spokes: usize, per: u64) {
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, None));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind hub");
    let addr = server.local_addr();
    // Delay-only chaos: probability 1 means exactly one Delay record
    // per send — full telemetry coverage with zero message loss.
    inner.set_fault_plan(
        FaultPlan::new(0xFA41).with_delay(1.0, Duration::from_micros(50)),
        |m| *m,
    );

    // The observer spoke subscribes before any traffic exists, so the
    // hub's sequenced event stream owes it every record from seq 1.
    let observer = SocketTransport::<String, u64>::connect(addr).expect("observer spoke");
    let seen: Arc<Mutex<Vec<FaultRecord<String>>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&seen);
        observer.observe(Observers {
            fault: Some(Arc::new(move |rec| {
                seen.lock().unwrap().push(rec.clone());
            })),
            ..Observers::default()
        });
    }

    let sink = "sink".to_string();
    inner.activate(sink.clone());
    // Pre-declare every sender so the sink's first recv-any blocks on
    // Expected peers instead of failing AllTerminated before any spoke
    // has finished its handshake.
    for i in 0..spokes {
        inner.declare(format!("s{i:04}"));
    }
    let total = spokes as u64 * per;
    let hold = Barrier::new(spokes + 1);
    let mut got: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut audit = None;

    std::thread::scope(|s| {
        for i in 0..spokes {
            let hold = &hold;
            let sink = sink.clone();
            s.spawn(move || {
                let t = SocketTransport::<String, u64>::connect(addr).expect("spoke connect");
                let me = format!("s{i:04}");
                t.activate(me.clone());
                for k in 0..per {
                    t.send(
                        &me,
                        &sink,
                        i as u64 * per + k,
                        Some(Instant::now() + Duration::from_secs(120)),
                    )
                    .expect("fan-in send");
                }
                // Stay connected until the hub audit has run.
                hold.wait();
            });
        }
        for _ in 0..total {
            match inner
                .select(
                    &sink,
                    vec![Arm::recv_any()],
                    Some(Instant::now() + Duration::from_secs(120)),
                )
                .expect("fan-in recv")
            {
                Outcome::Received { from, msg, .. } => got.entry(from).or_default().push(msg),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        // Peak topology: every spoke still connected, every rendezvous
        // done. Measure now, assert after the scope so a failure can't
        // deadlock the parked senders.
        audit = Some(server.stats());
        hold.wait();
    });

    let stats = audit.expect("audit ran");
    assert_eq!(stats.connections, spokes + 1, "hub connections at peak");
    assert_eq!(stats.sessions, spokes + 1, "hub sessions at peak");

    // Exactly-once, in-order delivery per sender.
    assert_eq!(got.len(), spokes, "a sender never reached the sink");
    for (from, values) in &got {
        let i: u64 = from[1..].parse().expect("sender id");
        let want: Vec<u64> = (i * per..(i + 1) * per).collect();
        assert_eq!(
            values, &want,
            "lost/duplicated/reordered values from {from}"
        );
    }

    // Gapless telemetry: the observer's stream must converge on one
    // record per send.
    let wait_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if seen.lock().unwrap().len() as u64 >= total {
            break;
        }
        assert!(
            Instant::now() < wait_deadline,
            "observer saw {}/{total} fault events",
            seen.lock().unwrap().len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut ours = seen.lock().unwrap().clone();
    ours.sort_by_key(|r| (r.from.clone(), r.seq));
    assert_eq!(ours.len() as u64, total, "unexpected telemetry volume");
    // Per-edge contiguity: no silent gap hides inside the totals.
    let mut by_edge: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in &ours {
        by_edge.entry(r.from.as_str()).or_default().push(r.seq);
    }
    for (edge, seqs) in by_edge {
        for w in seqs.windows(2) {
            assert_eq!(w[1], w[0] + 1, "telemetry gap on edge {edge}");
        }
    }
    drop(observer);
    drop(server);
}

/// CI-sized fan-in: 64 spokes, one I/O thread, gapless telemetry.
#[test]
fn fan_in_smoke() {
    fan_in(64, 4);
}

/// The 1024-spoke fan-in soak from the scalability acceptance criteria
/// (see the ROADMAP triage table): the hub must hold ≥ 1k concurrent
/// sessions on the process's one I/O thread. Needs ~7k file descriptors
/// and ~1k client-side threads (one sender per spoke; the spokes
/// themselves have none since PR 19); run explicitly.
#[test]
#[ignore = "soak test: run explicitly"]
fn fan_in_soak() {
    fan_in(1024, 2);
}

#[test]
#[ignore = "soak test: run explicitly"]
fn lock_manager_workload_soak() {
    let cluster = Cluster::new(3, Strategy::majority(3));
    let spec = WorkloadSpec {
        operations: 500,
        read_ratio: 0.7,
        items: 8,
        clients: 4,
    };
    let ops = workload::generate(&spec, 1234);
    let stats = workload::run(&cluster, &ops).unwrap();
    assert_eq!(stats.total(), 500);
    // Sequential lock cycles never contend with themselves.
    assert_eq!(stats.reads_denied + stats.writes_denied, 0);
}
