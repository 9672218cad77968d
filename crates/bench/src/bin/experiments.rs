//! The experiment harness: runs every experiment of DESIGN.md §6 and
//! prints a claim-versus-measured table (the data behind EXPERIMENTS.md).
//! It exits 1 when a claim differs.
//!
//! ```sh
//! cargo run --release -p script-bench --bin experiments
//! ```
//!
//! The paper reports no absolute numbers; each row verifies the *shape*
//! of one of its qualitative claims. A count (grants, tasks) is checked
//! exactly. A timing is checked as the ratio of two medians, the arms
//! sampled in alternation, against a margin the program held in every
//! one of 20 consecutive runs on a 2-CPU machine (EXPERIMENTS.md).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use script_bench::{compare, measure, measure_custom, ratio, timed, verdict, Measurement};
use script_chan::{Arm, FaultPlan, ShardedTransport, Transport};
use script_core::{
    Enrollment, Initiation, ProcessSel, RetryPolicy, RoleId, Script, Termination, WatchdogPolicy,
};
use script_lib::broadcast::{self, Broadcast, Order};
use script_lib::gather;
use script_lockmgr::script::{Cluster, Outcome};
use script_lockmgr::strategy::Strategy;
use script_monitor::{PerMailbox, SharedMailboxes};
use script_net::{DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};
use script_proto::{GlobalType, Session};

/// Samples per arm of a timing verdict.
const RUNS: usize = 101;

struct Row {
    id: &'static str,
    claim: String,
    measured: String,
    verdict: &'static str,
}

fn row(id: &'static str, claim: impl Into<String>, measured: impl Into<String>, ok: bool) -> Row {
    Row {
        id,
        claim: claim.into(),
        measured: measured.into(),
        verdict: verdict(ok),
    }
}

/// E1: consecutive performances are serialized; turnaround is measured.
fn e1() -> Row {
    let mut b = Script::<u8>::builder("ping_pong");
    let ping = b.role("ping", |ctx, ()| ctx.send(&RoleId::new("pong"), 1));
    let pong = b.role("pong", |ctx, ()| {
        ctx.recv_from(&RoleId::new("ping"))?;
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    let m = measure(50, || {
        std::thread::scope(|s| {
            let i2 = inst.clone();
            let ping = ping.clone();
            let h = s.spawn(move || i2.enroll(&ping, ()));
            inst.enroll(&pong, ()).unwrap();
            h.join().unwrap().unwrap();
        });
    });
    let serialized = inst.completed_performances() == 51;
    row(
        "E1 (Fig 1)",
        "successive performances strictly serialized",
        format!("51/51 serialized; {m} per performance"),
        serialized,
    )
}

/// One synchronized broadcast of `bc` per call, on an instance of its own.
fn broadcasts(bc: Broadcast<u64>) -> impl FnMut() -> Duration {
    let inst = bc.script.instance();
    timed(move || {
        broadcast::run_on(&inst, &bc, 1).unwrap();
    })
}

/// E3: star broadcast latency grows with fan-out.
fn e3() -> Row {
    const MARGIN: f64 = 2.25;
    let (small, large) = compare(
        RUNS,
        broadcasts(broadcast::star(4, Order::Sequential)),
        broadcasts(broadcast::star(16, Order::Sequential)),
    );
    let r = ratio(large, small);
    row(
        "E3 (Fig 3)",
        format!("star latency grows with recipients (4 → 16, ≥ {MARGIN}×)"),
        format!("n=4: {small}, n=16: {large} ({r:.2}×)"),
        r >= MARGIN,
    )
}

/// E4: pipeline's time-in-script ≪ star's under staggered arrivals.
fn e4() -> Row {
    const MARGIN: f64 = 1.6;
    const N: usize = 8;
    const STAGGER: Duration = Duration::from_micros(300);
    fn time_in_script(b: &Broadcast<u64>) -> Duration {
        let instance = b.script.instance();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|i| {
                    let instance = &instance;
                    let recipient = &b.recipient;
                    s.spawn(move || {
                        std::thread::sleep(STAGGER * i as u32);
                        let t0 = Instant::now();
                        instance.enroll_member(recipient, i, ()).unwrap();
                        t0.elapsed()
                    })
                })
                .collect();
            let sender = &b.sender;
            let i2 = &instance;
            let sh = s.spawn(move || i2.enroll(sender, 1).unwrap());
            let total: Duration = handles.into_iter().map(|h| h.join().unwrap()).sum();
            sh.join().unwrap();
            total / N as u32
        })
    }
    let star = broadcast::star::<u64>(N, Order::Sequential);
    let pipe = broadcast::pipeline::<u64>(N);
    let (star_m, pipe_m) = compare(RUNS, || time_in_script(&star), || time_in_script(&pipe));
    let r = ratio(star_m, pipe_m);
    row(
        "E4 (Fig 4)",
        format!("pipeline time-in-script ≪ star (≥ {MARGIN}×)"),
        format!("star: {star_m}, pipeline: {pipe_m} ({r:.1}×)"),
        r >= MARGIN,
    )
}

/// Acquires `x` on `cluster`, shared or exclusive, and releases it
/// again; returns how many managers granted it.
fn lock_cycle(cluster: &Cluster, exclusive: bool) -> usize {
    let outcome = if exclusive {
        cluster.acquire_exclusive("w", "x")
    } else {
        cluster.acquire_shared("r", "x")
    };
    let Ok(Outcome::Granted { at }) = outcome else {
        panic!("an uncontended lock was not granted: {outcome:?}");
    };
    if exclusive {
        cluster.release_exclusive("w", "x")
    } else {
        cluster.release_shared("r", "x")
    }
    .unwrap();
    at.len()
}

/// Times lock cycles on a fresh cluster; returns the timing and every
/// grant count seen.
fn lock_cycles(strategy: Strategy, exclusive: bool) -> (Measurement, BTreeSet<usize>) {
    let cluster = Cluster::new(strategy.managers(), strategy);
    let mut grants = BTreeSet::new();
    let m = measure(25, || {
        grants.insert(lock_cycle(&cluster, exclusive));
    });
    (m, grants)
}

/// E5: a read takes one grant, a write all k (Figure 5).
fn e5() -> Row {
    const K: usize = 4;
    let (read, read_grants) = lock_cycles(Strategy::one_read_all_write(K), false);
    let (write, write_grants) = lock_cycles(Strategy::one_read_all_write(K), true);
    row(
        "E5 (Fig 5)",
        "a read takes 1 grant, a write all k",
        format!(
            "k = {K}: grants read {read_grants:?} / write {write_grants:?}; read {read}, write {write}"
        ),
        read_grants == BTreeSet::from([1]) && write_grants == BTreeSet::from([K]),
    )
}

/// E6: the CSP translation costs more than the native script.
fn e6() -> Row {
    const MARGIN: f64 = 1.3;
    const N: usize = 4;
    let native = {
        let bc = broadcast::star::<u64>(N, Order::NonDeterministic);
        let inst = bc.script.instance();
        measure(25, || {
            broadcast::run_on(&inst, &bc, 7).unwrap();
        })
    };
    let direct = timed(|| {
        script_csp::broadcast::run(N, 7u64, Duration::from_secs(10)).unwrap();
    });
    let translated = timed(|| {
        use script_csp::translate::{enroll, supervisor, supervisor_name, TMsg};
        use script_csp::{proc_name, Parallel};
        const SCRIPT: &str = "bcast";
        let mut roles = vec!["transmitter".to_string()];
        roles.extend((0..N).map(|i| format!("recipient[{i}]")));
        let mut cmd = Parallel::<TMsg<u64>, ()>::new("fig7")
            .timeout(Duration::from_secs(10))
            .process(supervisor_name(SCRIPT), move |ctx| {
                supervisor(ctx, &roles, 1)
            })
            .process("T", |ctx| {
                let binding: HashMap<String, String> = (0..N)
                    .map(|i| (format!("recipient[{i}]"), proc_name("q", i)))
                    .collect();
                enroll(ctx, SCRIPT, "transmitter", binding, |env| {
                    for i in 0..N {
                        env.send_role(&format!("recipient[{i}]"), 7)?;
                    }
                    Ok(())
                })
            });
        cmd = cmd.process_array("q", N, |ctx, i| {
            let binding: HashMap<String, String> =
                [("transmitter".to_string(), "T".to_string())].into();
            enroll(ctx, SCRIPT, &format!("recipient[{i}]"), binding, |env| {
                env.recv_role("transmitter").map(|_| ())
            })
        });
        cmd.run().unwrap();
    });
    let (direct, translated) = compare(RUNS, direct, translated);
    let r = ratio(translated, direct);
    row(
        "E6 (Figs 6-7)",
        format!("translation (supervisor + handshakes) slower than direct CSP (≥ {MARGIN}×)"),
        format!("native: {native}, CSP: {direct}, translated: {translated} ({r:.2}×)"),
        r >= MARGIN,
    )
}

/// E7: the Ada translation's n+m+1 growth and its runtime cost.
fn e7() -> Row {
    const MARGIN: f64 = 2.75;
    const N: usize = 4;
    let (direct, translated) = compare(
        RUNS,
        timed(|| {
            script_ada::broadcast::run(N, 7u64, Duration::from_secs(10)).unwrap();
        }),
        timed(|| {
            script_ada::translate::translated_broadcast(N, 7, 1, Duration::from_secs(10))
                .run()
                .unwrap();
        }),
    );
    let set = script_ada::translate::translated_broadcast(N, 0, 1, Duration::from_secs(1));
    let tasks_ok = set.task_count() == (N + 1) + (N + 1) + 1;
    let r = ratio(translated, direct);
    row(
        "E7 (Figs 8-11)",
        format!("translation grows tasks n→n+m+1 and is slower (≥ {MARGIN}×)"),
        format!(
            "tasks: {} (= n+m+1), direct: {direct}, translated: {translated} ({r:.2}×)",
            set.task_count()
        ),
        tasks_ok && r >= MARGIN,
    )
}

/// E8: the single-monitor mailbox layout serializes; per-mailbox scales.
fn e8() -> Row {
    const MARGIN: f64 = 1.1;
    const OPS: u64 = 400;
    const PAIRS: usize = 8;
    /// A producer and a consumer per mailbox, all at once.
    fn traffic(put: impl Fn(usize, u64) + Sync, get: impl Fn(usize) -> u64 + Sync) {
        let (put, get) = (&put, &get);
        std::thread::scope(|s| {
            for i in 0..PAIRS {
                s.spawn(move || (0..OPS).for_each(|v| put(i, v)));
                s.spawn(move || (0..OPS).for_each(|_| _ = get(i)));
            }
        });
    }
    let (shared, per) = compare(
        RUNS,
        timed(|| {
            let boxes = SharedMailboxes::<u64>::new(PAIRS);
            traffic(|i, v| boxes.put(i, v), |i| boxes.get(i));
        }),
        timed(|| {
            let boxes = PerMailbox::<u64>::new(PAIRS);
            traffic(|i, v| boxes.put(i, v), |i| boxes.get(i));
        }),
    );
    let r = ratio(shared, per);
    row(
        "E8 (Fig 12)",
        format!("monitor-per-mailbox beats one-monitor-for-all (≥ {MARGIN}×)"),
        format!("shared: {shared}, per-mailbox: {per} ({PAIRS} pairs, {r:.2}×)"),
        r >= MARGIN,
    )
}

/// E9: strategy scaling at a wide fan-out.
fn e9() -> Row {
    const N: usize = 32;
    let star = measure_custom(15, broadcasts(broadcast::star(N, Order::Sequential)));
    let tree = measure_custom(15, broadcasts(broadcast::tree(N)));
    let pipe = measure_custom(15, broadcasts(broadcast::pipeline(N)));
    row(
        "E9 (§II)",
        "all strategies deliver; wave/pipeline compete with star at n=32",
        format!("star: {star}, tree: {tree}, pipeline: {pipe}"),
        true, // informational: each run asserts correct delivery
    )
}

/// E10: matching cost — unnamed vs fully named enrollment.
fn e10() -> Row {
    const BOUND: f64 = 1.6;
    const N: usize = 8;
    /// One performance of an `N`-member no-op family per call; `named`
    /// makes every member name all its partners.
    fn casts(named: bool) -> impl FnMut() -> Duration {
        let mut b = Script::<u8>::builder("noop");
        let member = b.family("member", N, |_ctx, ()| Ok(()));
        b.initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let inst = b.build().unwrap().instance();
        timed(move || {
            std::thread::scope(|s| {
                for i in 0..N {
                    let inst = &inst;
                    let member = &member;
                    s.spawn(move || {
                        let mut e = Enrollment::as_process(format!("P{i}"));
                        for j in (0..N).filter(|&j| named && j != i) {
                            e = e.partner(
                                RoleId::indexed("member", j),
                                ProcessSel::is(format!("P{j}")),
                            );
                        }
                        inst.enroll_member_with(member, i, (), e).unwrap()
                    });
                }
            });
        })
    }
    let (unnamed, named) = compare(RUNS, casts(false), casts(true));
    let r = ratio(named, unnamed);
    row(
        "E10 (§II)",
        format!("named enrollment pays a bounded matching premium (≤ {BOUND}×)"),
        format!("unnamed: {unnamed}, fully named: {named} (n = {N}, {r:.2}×)"),
        r <= BOUND,
    )
}

/// E11: initiation/termination policy cost ordering.
fn e11() -> Row {
    const BOUND: f64 = 1.1;
    let cycle = |initiation, termination| {
        let mut b = Script::<u64>::builder("relay");
        let left = b.role("left", |ctx, v: u64| {
            ctx.send(&RoleId::new("right"), v)?;
            Ok(())
        });
        let right = b.role("right", |ctx, ()| ctx.recv_from(&RoleId::new("left")));
        b.initiation(initiation).termination(termination);
        let inst = b.build().unwrap().instance();
        timed(move || {
            std::thread::scope(|s| {
                let i2 = inst.clone();
                let left = left.clone();
                let h = s.spawn(move || i2.enroll(&left, 5));
                inst.enroll(&right, ()).unwrap();
                h.join().unwrap().unwrap();
            });
        })
    };
    let (dd, ii) = compare(
        RUNS,
        cycle(Initiation::Delayed, Termination::Delayed),
        cycle(Initiation::Immediate, Termination::Immediate),
    );
    let r = ratio(ii, dd);
    row(
        "E11 (§II)",
        format!("immediate/immediate no dearer than delayed/delayed (≤ {BOUND}×)"),
        format!("delayed/delayed: {dd}, immediate/immediate: {ii} ({r:.2}×)"),
        r <= BOUND,
    )
}

/// E12: one-read-all-write favours reads and taxes writes; majority is
/// balanced.
fn e12() -> Row {
    const K: usize = 3;
    let only = |n: usize| BTreeSet::from([n]);
    let majority = only((K + 1).div_ceil(2));
    let (oraw_r, oraw_rg) = lock_cycles(Strategy::one_read_all_write(K), false);
    let (oraw_w, oraw_wg) = lock_cycles(Strategy::one_read_all_write(K), true);
    let (maj_r, maj_rg) = lock_cycles(Strategy::majority(K), false);
    let (maj_w, maj_wg) = lock_cycles(Strategy::majority(K), true);
    row(
        "E12 (§II)",
        "grants: one-read-all-write 1 / k, majority ⌈(k+1)/2⌉ both",
        format!(
            "k = {K}: ORAW r/w {oraw_rg:?}/{oraw_wg:?} ({oraw_r}/{oraw_w}); majority r/w {maj_rg:?}/{maj_wg:?} ({maj_r}/{maj_w})"
        ),
        oraw_rg == only(1) && oraw_wg == only(K) && maj_rg == majority && maj_wg == majority,
    )
}

/// E13: an open-ended family gathers every contribution, at a small
/// premium over a fixed one at most.
fn e13() -> Row {
    const BOUND: f64 = 1.25;
    const N: usize = 8;
    let g = gather::gather::<u64>(N);
    let fixed_inst = g.script.instance();
    let og = gather::open_gather::<u64>(None);
    let mut sums_ok = true;
    let (fixed, open) = compare(
        RUNS,
        timed(|| {
            gather::run_on(&fixed_inst, &g, (0..N as u64).collect()).unwrap();
        }),
        timed(|| {
            let inst = og.script.instance();
            std::thread::scope(|s| {
                let h = {
                    let inst = inst.clone();
                    let collector = og.collector.clone();
                    s.spawn(move || inst.enroll(&collector, N))
                };
                for v in 0..N as u64 {
                    let inst = &inst;
                    let worker = &og.worker;
                    s.spawn(move || inst.enroll_auto(worker, v).unwrap());
                }
                let sum: u64 = h.join().unwrap().unwrap().iter().sum();
                sums_ok &= sum == (N * (N - 1) / 2) as u64;
            });
            inst.seal_cast();
        }),
    );
    let r = ratio(open, fixed);
    row(
        "E13 (§V)",
        format!("open-ended gather sums right at a small premium over fixed (≤ {BOUND}×)"),
        format!("fixed: {fixed}, open: {open} (n = {N}, {r:.2}×; every sum right: {sums_ok})"),
        sums_ok && r <= BOUND,
    )
}

/// E14: runtime protocol monitoring overhead (the MPST bridge).
fn e14() -> Row {
    use script_core::{RoleHandle, ScriptError};
    const BOUND: f64 = 1.6;
    const ROUNDS: usize = 8;
    type Handles = (
        Script<&'static str>,
        RoleHandle<&'static str, (), ()>,
        RoleHandle<&'static str, (), ()>,
    );
    fn raw() -> Handles {
        let mut b = Script::<&'static str>::builder("raw");
        let client = b.role("client", |ctx, ()| {
            for _ in 0..ROUNDS {
                ctx.send(&RoleId::new("server"), "req")?;
                ctx.recv_from(&RoleId::new("server"))?;
            }
            Ok(())
        });
        let server = b.role("server", |ctx, ()| {
            for _ in 0..ROUNDS {
                ctx.recv_from(&RoleId::new("client"))?;
                ctx.send(&RoleId::new("client"), "rep")?;
            }
            Ok(())
        });
        (b.build().unwrap(), client, server)
    }
    fn monitored() -> Handles {
        let mut g = GlobalType::End;
        for _ in 0..ROUNDS {
            g = GlobalType::msg(
                "client",
                "server",
                "req",
                GlobalType::msg("server", "client", "rep", g),
            );
        }
        let ct = g.project(&RoleId::new("client")).unwrap();
        let st = g.project(&RoleId::new("server")).unwrap();
        let mut b = Script::<&'static str>::builder("monitored");
        let client = b.role("client", move |ctx, ()| {
            let mut s = Session::new(ctx, ct.clone());
            for _ in 0..ROUNDS {
                s.send(&RoleId::new("server"), "req")
                    .map_err(|e| ScriptError::app(e.to_string()))?;
                s.recv_from(&RoleId::new("server"))
                    .map_err(|e| ScriptError::app(e.to_string()))?;
            }
            s.finish().map_err(|e| ScriptError::app(e.to_string()))?;
            Ok(())
        });
        let server = b.role("server", move |ctx, ()| {
            let mut s = Session::new(ctx, st.clone());
            for _ in 0..ROUNDS {
                s.recv_from(&RoleId::new("client"))
                    .map_err(|e| ScriptError::app(e.to_string()))?;
                s.send(&RoleId::new("client"), "rep")
                    .map_err(|e| ScriptError::app(e.to_string()))?;
            }
            s.finish().map_err(|e| ScriptError::app(e.to_string()))?;
            Ok(())
        });
        (b.build().unwrap(), client, server)
    }
    fn run_once(h: &Handles) {
        let inst = h.0.instance();
        std::thread::scope(|s| {
            let i2 = inst.clone();
            let server = h.2.clone();
            let jh = s.spawn(move || i2.enroll(&server, ()));
            inst.enroll(&h.1, ()).unwrap();
            jh.join().unwrap().unwrap();
        });
    }
    let (raw_h, mon_h) = (raw(), monitored());
    let (raw_m, mon_m) = compare(RUNS, timed(|| run_once(&raw_h)), timed(|| run_once(&mon_h)));
    let r = ratio(mon_m, raw_m);
    row(
        "E14 (proto)",
        format!("protocol monitoring is cheap next to raw rendezvous (≤ {BOUND}×)"),
        format!("raw: {raw_m}, monitored: {mon_m} ({ROUNDS} round trips, {r:.2}×)"),
        r <= BOUND,
    )
}

/// E15: topology merits emerge under simulated per-hop latency.
fn e15() -> Row {
    use script_bench::delayed::{delayed_broadcast, run, Topology};
    const MARGIN: f64 = 1.2;
    const N: usize = 16;
    let hop = Duration::from_micros(500);
    let time_of = |topo: Topology| {
        let b = delayed_broadcast(N, topo, hop);
        let inst = b.script.instance();
        timed(move || {
            run(&inst, &b, 1).unwrap();
        })
    };
    let (star, tree) = compare(RUNS, time_of(Topology::Star), time_of(Topology::Tree));
    let r = ratio(star, tree);
    row(
        "E15 (§II)",
        format!("spanning tree beats star once links have latency (n=16, ≥ {MARGIN}×)"),
        format!("per-hop 500µs: star {star}, tree {tree} ({r:.2}×)"),
        r >= MARGIN,
    )
}

/// E16: the adaptive watchdog costs a bounded premium over a hand-tuned
/// fixed window, on a ping-pong whose every send is delayed 300 µs.
fn e16() -> Row {
    const BOUND: f64 = 1.3;
    const ROUNDS: u64 = 8;
    let ping_pong = |policy| {
        let mut b = Script::<u64>::builder("e16");
        let ping = b.role("ping", |ctx, ()| {
            for k in 0..ROUNDS {
                ctx.send(&RoleId::new("pong"), k)?;
                ctx.recv_from(&RoleId::new("pong"))?;
            }
            Ok(())
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
        let inst = b.build().unwrap().instance();
        inst.set_fault_plan(FaultPlan::new(9).with_delay(1.0, Duration::from_micros(300)));
        inst.set_watchdog_policy(policy);
        timed(move || {
            std::thread::scope(|s| {
                let i = inst.clone();
                let ping = ping.clone();
                let h = s.spawn(move || i.enroll(&ping, ()));
                inst.enroll(&pong, ()).unwrap();
                h.join().unwrap().unwrap();
            });
        })
    };
    let (fixed, adaptive) = compare(
        RUNS,
        ping_pong(WatchdogPolicy::Fixed(Duration::from_millis(250))),
        ping_pong(WatchdogPolicy::Adaptive),
    );
    let r = ratio(adaptive, fixed);
    row(
        "E16 (§8)",
        format!("adaptive watchdog costs little over a tuned fixed window (≤ {BOUND}×)"),
        format!("fixed 250 ms: {fixed}, adaptive: {adaptive} (300 µs delays, {r:.2}×)"),
        r <= BOUND,
    )
}

/// E22's deployment: a fleet, a home data node whose inner transport
/// animates the sink, and `PEERS` spokes whose dial plans go direct or
/// are forced through the fleet's relay.
struct Federation {
    /// Keeps the control plane alive for the spokes' relay.
    _fleet: HubFleet,
    /// Keeps the home node alive.
    _home: TransportServer<String, u64>,
    inner: Arc<dyn Transport<String, u64>>,
    spokes: Vec<SocketTransport<String, u64>>,
}

impl Federation {
    const PEERS: usize = 8;
    /// Messages each peer sends per burst.
    const BURST: u64 = 4;

    fn launch(relay: bool) -> Self {
        const SECRET: u64 = 0x22;
        let fleet = HubFleet::launch(2, SECRET).expect("launch fleet");
        let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, None));
        let home = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind home");
        inner.declare("sink".to_string());
        for i in 0..Self::PEERS {
            inner.declare(format!("p{i}"));
        }
        inner.activate("sink".to_string());
        let ctl =
            FleetClient::connect(&fleet.any_addr().to_string(), SECRET).expect("fleet connect");
        ctl.register_node(&home.local_addr().to_string())
            .expect("register home");
        let desc = ctl.place("e22", 1, &[], None).expect("place performance");
        let addr = desc.home.parse().expect("home address");
        let spokes = (0..Self::PEERS)
            .map(|i| {
                let mut plan = DialPlan::direct(addr).with_relay(fleet.any_addr());
                if relay {
                    plan = plan.with_forced_relay();
                }
                let t = SocketTransport::with_plan(
                    plan,
                    RetryPolicy::new(6)
                        .with_base(Duration::from_millis(25))
                        .with_cap(Duration::from_millis(500)),
                );
                t.activate(format!("p{i}"));
                t
            })
            .collect();
        Federation {
            _fleet: fleet,
            _home: home,
            inner,
            spokes,
        }
    }

    /// Every peer bursts at the sink, which this thread drains.
    fn burst(&self) {
        let far = || Some(Instant::now() + Duration::from_secs(60));
        let sink = "sink".to_string();
        std::thread::scope(|s| {
            for (i, t) in self.spokes.iter().enumerate() {
                let sink = &sink;
                s.spawn(move || {
                    let me = format!("p{i}");
                    for k in 0..Self::BURST {
                        t.send(&me, sink, k, far()).expect("peer send");
                    }
                });
            }
            for _ in 0..Self::PEERS as u64 * Self::BURST {
                self.inner
                    .select_in(&sink, &mut [Arm::recv_any()], far())
                    .expect("sink drain");
            }
        });
    }
}

/// E22: direct dial beats relaying every frame through the fleet.
fn e22() -> Row {
    const MARGIN: f64 = 1.1;
    let (direct, relayed) = (Federation::launch(false), Federation::launch(true));
    // Under a co-tenant's load this row's median swings more than any
    // other's; five times the samples steady it (EXPERIMENTS.md E44).
    let (direct, relayed) = compare(
        5 * RUNS,
        timed(|| direct.burst()),
        timed(|| relayed.burst()),
    );
    let r = ratio(relayed, direct);
    row(
        "E22 (§II)",
        format!("spoke-to-home dial beats the fleet relay (n=8, ≥ {MARGIN}×)"),
        format!("direct: {direct}, relayed: {relayed} ({r:.2}×)"),
        r >= MARGIN,
    )
}

/// The machine's load, printed beside the verdicts so that a DIFFERS row
/// on a busy runner reads against it: `/proc/loadavg` when readable, and
/// the parallelism this process is granted.
fn load() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let avg = std::fs::read_to_string("/proc/loadavg");
    let avg = avg.as_deref().map_or("unreadable", str::trim);
    format!("loadavg {avg} | available_parallelism {cpus}")
}

fn main() {
    println!("Running all experiments (release mode recommended)...\n");
    println!("load before: {}", load());
    let experiments: [fn() -> Row; 16] = [
        e1, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e22,
    ];
    let rows = experiments.map(|experiment| experiment());
    println!(
        "{:<14} | {:<62} | {:<66} | verdict",
        "experiment", "paper claim (shape)", "measured"
    );
    println!("{}", "-".repeat(160));
    for r in &rows {
        println!(
            "{:<14} | {:<62} | {:<66} | {}",
            r.id, r.claim, r.measured, r.verdict
        );
    }
    println!("{}", "-".repeat(160));
    println!("load after:  {}", load());
    let held = rows.iter().filter(|r| r.verdict == "HOLDS").count();
    println!("{held} of {} claims hold", rows.len());
    if held < rows.len() {
        std::process::exit(1);
    }
}
