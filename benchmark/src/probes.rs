//! Probes: short isolated loops over one layer's public functions,
//! with the workloads' real message shapes, giving the unit costs the
//! ledger multiplies by the workloads' counts. Each probe is a fixed
//! number of operations in [`BATCHES`] batches and reports the median
//! batch, so one descheduled batch does not move it.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use script_chan::{Arm, FaultPlan, Network, Outcome, ShardedTransport, Transport};
use script_core::{Initiation, RingObserver, RoleId, Script, Termination};
use script_net::proto::{Req, Resp};
use script_net::{
    write_frame, DialPlan, FleetClient, FrameDecoder, HubFleet, SocketTransport, TransportServer,
    Wire, WriteBuf,
};
use script_proto::{ConformanceMonitor, GlobalType};

use crate::run::{metric, Metric};
use crate::scripts;
use crate::stats;
use crate::trace::{self, NO_PERF};
use crate::workloads::{self, check, Check, Lane};

const BATCHES: u64 = 5;

/// Median over the batches of the mean nanoseconds one `op` takes.
fn per_op_ns(iters: u64, mut op: impl FnMut()) -> f64 {
    let batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batch)
}

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(30))
}

/// L0: two threads handing control back and forth with park/unpark —
/// the machine floor under every blocking rendezvous. Nanoseconds per
/// one-way hand-off.
fn park_handoff(iters: u64) -> f64 {
    const IDLE: u32 = 0;
    const PING: u32 = 1;
    const QUIT: u32 = 2;
    let flag = Arc::new(AtomicU32::new(IDLE));
    let (peer_flag, main) = (Arc::clone(&flag), thread::current());
    let peer = thread::spawn(move || loop {
        match peer_flag.load(Ordering::SeqCst) {
            PING => {
                peer_flag.store(IDLE, Ordering::SeqCst);
                main.unpark();
            }
            QUIT => return,
            _ => thread::park(),
        }
    });
    let ns = per_op_ns(iters, || {
        flag.store(PING, Ordering::SeqCst);
        peer.thread().unpark();
        while flag.load(Ordering::SeqCst) != IDLE {
            thread::park();
        }
    });
    flag.store(QUIT, Ordering::SeqCst);
    peer.thread().unpark();
    peer.join().expect("park peer");
    ns / 2.0
}

/// L1 blocking path: the per-call loop of the Ada rendezvous benchmark
/// — call, wait for the reply, call again. Nanoseconds per rendezvous.
fn rdv_blocking(iters: u64) -> f64 {
    const QUIT: u64 = u64::MAX;
    let net: Network<u8, u64> = Network::new();
    net.activate(0);
    net.activate(1);
    let caller = net.port(0).expect("port 0");
    let echo = net.port(1).expect("port 1");
    let server = thread::spawn(move || loop {
        let v = echo.recv_from(&0).expect("echo receive");
        if v == QUIT {
            return;
        }
        echo.send(&0, v).expect("echo reply");
    });
    let ns = per_op_ns(iters, || {
        caller.send(&1, 7).expect("call");
        black_box(caller.recv_from(&1).expect("reply"));
    });
    caller.send(&1, QUIT).expect("quit");
    server.join().expect("echo thread");
    ns / 2.0
}

/// L1 selection: one `select` over two senders that are always ready.
fn select2(iters: u64) -> f64 {
    // Even, so the two feeders send exactly what the selects take.
    let iters = (iters / 2).max(1) * 2;
    let net: Network<u8, u64> = Network::new();
    for id in 0..3 {
        net.activate(id);
    }
    let rx = net.port(0).expect("port 0");
    let per_feeder = iters * BATCHES / 2;
    let feeders: Vec<_> = [1u8, 2]
        .into_iter()
        .map(|id| {
            let tx = net.port(id).expect("feeder port");
            thread::spawn(move || {
                for v in 0..per_feeder {
                    tx.send(&0, v).expect("feed");
                }
            })
        })
        .collect();
    // Exactly as many selects as the feeders send.
    let ns = per_op_ns(per_feeder * 2 / BATCHES, || {
        black_box(
            rx.select(vec![Arm::recv_from(1), Arm::recv_from(2)])
                .expect("select"),
        );
    });
    for f in feeders {
        f.join().expect("feeder");
    }
    ns
}

/// L1 submitted path (what a hub does for a spoke): `submit_send`
/// completed by a blocking `select` on the receiving side.
fn submit_rdv(iters: u64) -> f64 {
    let t: Arc<ShardedTransport<u8, u64>> = Arc::new(ShardedTransport::new(false, None));
    for id in [0, 1] {
        t.declare(id);
        t.activate(id);
    }
    let completed = Arc::new(AtomicU64::new(0));
    let ns = per_op_ns(iters, || {
        let done = Arc::clone(&completed);
        let submitted = Arc::clone(&t).submit_send(
            &0,
            &1,
            7,
            None,
            Box::new(move |r| {
                r.expect("submitted send completes");
                done.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(submitted.is_ok(), "ShardedTransport submits natively");
        black_box(t.select(&1, vec![Arm::recv_from(0)], None).expect("pickup"));
    });
    while completed.load(Ordering::SeqCst) < iters * BATCHES {
        thread::yield_now();
    }
    ns
}

/// L2 floor: a one-role performance (`enroll` → match → freeze →
/// initiate → terminate with nobody to talk to), with and without a
/// `RingObserver` subscribed. Returns `(plain ns, ring − plain ns)`.
fn solo_perf(iters: u64) -> (f64, f64) {
    let build = || {
        let mut b = Script::<u8>::builder("probe_solo");
        let solo = b.role("solo", |_ctx, ()| Ok(()));
        (b.build().expect("solo spec").instance(), solo)
    };
    let (plain, solo) = build();
    let plain_ns = per_op_ns(iters, || plain.enroll(&solo, ()).expect("solo"));
    let (observed, solo) = build();
    observed.set_observer(Arc::new(RingObserver::new(1024)));
    let ring_ns = per_op_ns(iters, || observed.enroll(&solo, ()).expect("solo"));
    (plain_ns, ring_ns - plain_ns)
}

/// L2 lifecycle with a real cast: a sender and three members whose
/// bodies are empty. Microseconds per performance; also the source of
/// the `core.enroll` / `core.member_enroll` probe spans.
fn cast4_null(iters: u64) -> f64 {
    let mut b = Script::<u64>::builder("probe_cast4_null");
    let sender = b.role("sender", |_ctx, ()| Ok(()));
    let member = b.family("member", 3, |_ctx, ()| Ok(()));
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().expect("null cast spec");
    let mut lane = Lane::new(
        "cast4_null",
        "core.cast4_null.perf",
        script.instance(),
        "sender",
        false,
        false,
        Box::new(move |inst, _| inst.enroll(&sender, ()).map(|()| true)),
    );
    for i in 0..3 {
        let member = member.clone();
        lane.spawn(move |inst, _, _| inst.enroll_member(&member, i, ()).map(|()| true));
    }
    let mut lat = Vec::new();
    let batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(lane.run(iters, &mut lat), 0, "null cast performances");
            t0.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    lane.finish(&mut workloads::Report::default());
    stats::median(&batch)
}

fn star_label(_: &u64) -> Option<String> {
    Some("v".to_string())
}

/// The price of watching: in-process star broadcasts with a
/// `ConformanceMonitor` subscribed minus the same unsubscribed, per
/// rendezvous. Blocks of the two variants alternate, so drift hits
/// both alike.
fn monitor_per_rdv(seed: u64, iters: u64, checks: &mut Vec<Check>) -> f64 {
    let sender = RoleId::new("sender");
    let star_type = (0..3).rev().fold(GlobalType::End, |then, i| {
        GlobalType::msg(sender.clone(), RoleId::indexed("recipient", i), "v", then)
    });
    let monitor = Arc::new(ConformanceMonitor::new(&star_type).expect("star type projects"));
    let mut plain = Lane::star(seed, false, false);
    let mut watched = Lane::star(seed, false, false);
    // Not `scripts.star.perf`: half of these carry the monitor.
    plain.perf_span = "proto.monitor.perf";
    watched.perf_span = "proto.monitor.perf";
    watched.inst.set_message_labeler(star_label);
    watched.inst.set_observer(Arc::clone(&monitor) as _);
    let (mut lat, mut plain_us, mut watched_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        for (lane, out) in [(&mut plain, &mut plain_us), (&mut watched, &mut watched_us)] {
            let t0 = Instant::now();
            assert_eq!(lane.run(iters, &mut lat), 0, "monitor probe performances");
            out.push(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
        }
    }
    let verdicts = monitor.verdicts();
    checks.push(check(
        "probe.monitor_no_verdicts",
        verdicts.is_empty(),
        format!("{} verdicts on a conforming star", verdicts.len()),
    ));
    let mut scratch = workloads::Report::default();
    plain.finish(&mut scratch);
    watched.finish(&mut scratch);
    (stats::median(&watched_us) - stats::median(&plain_us)) * 1e3 / 3.0
}

/// L4 codec: encode and decode of the frames the stream workloads
/// send — `Req::Send` with a 64-byte and a 4 KiB string, and the
/// `Resp::Selected` that answers the sink.
fn wire(iters: u64, out: &mut Vec<Metric>) {
    let (source, sink) = (RoleId::indexed("source", 0), RoleId::new("sink"));
    let send = |msg: String| -> Req<RoleId, String> {
        Req::Send {
            from: source.clone(),
            to: sink.clone(),
            msg,
            timeout_ms: None,
        }
    };
    let small = send(scripts::payload(1, 0));
    let big = send(scripts::payload(1, 0).repeat(4096 / scripts::MSG_BYTES));
    for (name, req) in [("send", &small), ("send_4k", &big)] {
        let bytes = req.to_bytes();
        let enc = per_op_ns(iters, || {
            black_box(black_box(req).to_bytes());
        });
        let dec = per_op_ns(iters, || {
            black_box(Req::<RoleId, String>::from_bytes(black_box(&bytes)).expect("decodes"));
        });
        out.push(metric(format!("net.wire.encode_{name}_ns"), enc, "ns"));
        out.push(metric(format!("net.wire.decode_{name}_ns"), dec, "ns"));
    }
    let selected: Resp<RoleId, String> = Resp::Selected(Outcome::Received {
        arm: 0,
        from: source.clone(),
        msg: scripts::payload(1, 0),
    });
    let bytes = selected.to_bytes();
    let enc = per_op_ns(iters, || {
        black_box(black_box(&selected).to_bytes());
    });
    let dec = per_op_ns(iters, || {
        black_box(Resp::<RoleId, String>::from_bytes(black_box(&bytes)).expect("decodes"));
    });
    out.push(metric("net.wire.encode_selected_ns", enc, "ns"));
    out.push(metric("net.wire.decode_selected_ns", dec, "ns"));
}

/// L4 framing: queueing a 100-byte frame for a coalesced write (flushed
/// every 64 frames, as a busy connection would), and cutting one out
/// of a byte stream.
fn frame(iters: u64, out: &mut Vec<Metric>) {
    let payload = [0x5Au8; 100];
    let mut buf = WriteBuf::new();
    let mut queued = 0u32;
    let push = per_op_ns(iters, || {
        buf.push_frame(black_box(&payload)).expect("frame fits");
        queued += 1;
        if queued.is_multiple_of(64) {
            buf.flush_to(&mut std::io::sink()).expect("sink accepts");
        }
    });
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).expect("frame fits");
    let mut decoder = FrameDecoder::new();
    let next = per_op_ns(iters, || {
        decoder.extend(black_box(&framed));
        black_box(decoder.next_frame().expect("well-formed").expect("whole"));
    });
    out.push(metric("net.frame.push_ns", push, "ns"));
    out.push(metric("net.frame.next_ns", next, "ns"));
}

type Hub = TransportServer<RoleId, String>;
type Spoke = SocketTransport<RoleId, String>;

fn hub() -> (Hub, Arc<dyn Transport<RoleId, String>>) {
    let inner: Arc<dyn Transport<RoleId, String>> = Arc::new(ShardedTransport::new(false, None));
    let hub = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind probe hub");
    (hub, inner)
}

fn sender_id(i: usize) -> RoleId {
    RoleId::indexed("source", i)
}

/// The latency-probe shape: `depth` senders on one spoke stream
/// 64-byte strings at a hub-local sink. Returns every send's latency
/// in µs and the whole burst's rendezvous per second.
fn rpc(
    inner: &Arc<dyn Transport<RoleId, String>>,
    spoke: &Arc<Spoke>,
    depth: usize,
    per_sender: u64,
) -> (Vec<f64>, f64) {
    let sink = RoleId::new("sink");
    inner.declare(sink.clone());
    inner.activate(sink.clone());
    for i in 0..depth {
        inner.declare(sender_id(i));
        spoke.activate(sender_id(i));
    }
    let total = depth as u64 * per_sender;
    let t0 = Instant::now();
    let lat = thread::scope(|s| {
        let drain = s.spawn(|| {
            for _ in 0..total {
                let got = inner.select(&sink, vec![Arm::recv_any()], far());
                assert!(matches!(got, Ok(Outcome::Received { .. })), "{got:?}");
            }
        });
        let senders: Vec<_> = (0..depth)
            .map(|i| {
                let sink = &sink;
                s.spawn(move || {
                    let (me, msg) = (sender_id(i), scripts::payload(1, i));
                    (0..per_sender)
                        .map(|_| {
                            let t0 = Instant::now();
                            spoke
                                .send(&me, sink, msg.clone(), far())
                                .expect("probe send");
                            t0.elapsed().as_secs_f64() * 1e6
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        let lat: Vec<f64> = senders
            .into_iter()
            .flat_map(|h| h.join().expect("probe sender"))
            .collect();
        drain.join().expect("probe sink");
        lat
    });
    (lat, total as f64 / t0.elapsed().as_secs_f64())
}

fn p50(mut lat: Vec<f64>) -> f64 {
    stats::percentile(stats::sort(&mut lat), 0.5)
}

/// L5: session churn (bind + connect + first RPC + drop, with the
/// three parts as spans) and steady-state RPC at depth 1 and 8.
fn server(iters: u64, out: &mut Vec<Metric>) {
    let cycles = (iters / 20).max(3);
    let t0 = Instant::now();
    for k in 0..cycles {
        let _cycle = trace::span("net.server.session_cycle", k);
        let (hub, _inner) = {
            let _span = trace::span("net.server.bind", k);
            hub()
        };
        let spoke = {
            let _span = trace::span("net.client.connect", k);
            let spoke = Spoke::connect(hub.local_addr()).expect("loopback addr");
            spoke.declare(RoleId::new("sink"));
            spoke
        };
        let _span = trace::span("net.server.drop", k);
        drop(spoke);
        drop(hub);
    }
    let cycle_us = t0.elapsed().as_secs_f64() * 1e6 / cycles as f64;
    out.push(metric("net.server.session_cycle_us", cycle_us, "us"));

    let (hub1, inner) = hub();
    let spoke = Arc::new(Spoke::connect(hub1.local_addr()).expect("loopback addr"));
    let (lat, _) = rpc(&inner, &spoke, 1, iters);
    out.push(metric("net.server.rpc_depth1_us", p50(lat), "us"));
    drop((spoke, hub1));

    let (hub8, inner) = hub();
    let spoke = Arc::new(Spoke::connect(hub8.local_addr()).expect("loopback addr"));
    let (_, per_s) = rpc(&inner, &spoke, 8, (iters / 4).max(1));
    out.push(metric("net.server.rpc_depth8_per_s", per_s, "1/s"));
}

/// L5 healing: every send is severed by the chaos plan, so each
/// rendezvous pays disconnect detection + redial + `HelloResume` +
/// replay. Microseconds per severed rendezvous.
fn sever_resume(iters: u64, checks: &mut Vec<Check>) -> f64 {
    let (hub, inner) = hub();
    let spoke = Arc::new(Spoke::connect(hub.local_addr()).expect("loopback addr"));
    inner.set_fault_plan(FaultPlan::new(3).with_sever(1.0), |m: &String| m.clone());
    let n = (iters / 20).max(3);
    let (lat, _) = rpc(&inner, &spoke, 1, n);
    checks.push(check(
        "probe.sever_resume_heals",
        !spoke.is_lost(),
        format!("{n} severed sends, spoke lost: {}", spoke.is_lost()),
    ));
    lat.iter().sum::<f64>() / lat.len() as f64
}

/// L6: placement through a two-shard fleet (fresh performance ids),
/// and depth-1 RPC with every byte spliced through a shard.
fn fleet(iters: u64, out: &mut Vec<Metric>, checks: &mut Vec<Check>) {
    const SECRET: u64 = 0x9E7;
    let fleet = HubFleet::launch(2, SECRET).expect("launch probe fleet");
    let (home, inner) = hub();
    let ctl = FleetClient::connect(&fleet.any_addr().to_string(), SECRET).expect("bootstrap");
    ctl.register_node(&home.local_addr().to_string())
        .expect("register home");
    let places = (iters / 10).max(3);
    let lat: Vec<f64> = (0..places)
        .map(|perf| {
            let _span = trace::span("net.fleet.place", perf);
            let t0 = Instant::now();
            let desc = ctl.place("probe", perf, &[], None).expect("place");
            black_box(desc);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.push(metric("net.fleet.place_us", p50(lat), "us"));

    let plan = DialPlan::direct(home.local_addr())
        .with_relay(fleet.any_addr())
        .with_forced_relay();
    let spoke = Arc::new(Spoke::with_plan(plan, workloads::default_retry()));
    let (lat, _) = rpc(&inner, &spoke, 1, iters);
    out.push(metric("net.fleet.relay_rpc_depth1_us", p50(lat), "us"));
    checks.push(check(
        "probe.relay_path_taken",
        fleet.relayed_bytes() > 0 && spoke.relay_dials() > 0,
        format!(
            "{} bytes relayed, {} relay dials",
            fleet.relayed_bytes(),
            spoke.relay_dials()
        ),
    ));
}

/// The three scripts in-process, briefly: the per-script spans of a
/// workload that does not itself run them.
fn scripts_inproc(seed: u64, divisor: u64, checks: &mut Vec<Check>) {
    let (_, round) = workloads::counts("inproc_mix", divisor * 20);
    let mut rig = workloads::build("inproc_mix", seed, false);
    let r = rig.round(&round);
    let report = rig.finish();
    checks.push(check(
        "probe.scripts_inproc",
        r.failed + report.failed == 0 && report.checks.iter().all(|c| c.ok),
        format!("{} of {} performances failed", r.failed, r.ops),
    ));
}

/// Runs every probe. `divisor` is 1, or 50 for `--smoke`.
pub fn run_all(seed: u64, divisor: u64) -> (Vec<Metric>, Vec<Check>) {
    let n = |full: u64| (full / divisor).max(20);
    let (mut out, mut checks) = (Vec::new(), Vec::new());
    trace::set_probe_phase(true);
    let _all = trace::span("probes", NO_PERF);
    out.push(metric("os.park_handoff_ns", park_handoff(n(4000)), "ns"));
    out.push(metric("chan.rdv_blocking_ns", rdv_blocking(n(4000)), "ns"));
    out.push(metric("chan.select2_ns", select2(n(4000)), "ns"));
    out.push(metric("chan.submit_rdv_ns", submit_rdv(n(4000)), "ns"));
    let (solo, ring) = solo_perf(n(10_000));
    out.push(metric("core.solo_perf_ns", solo, "ns"));
    out.push(metric("core.telemetry_ring_overhead_ns", ring, "ns"));
    out.push(metric("core.cast4_null_us", cast4_null(n(400)), "us"));
    out.push(metric(
        "proto.monitor_ns_per_rdv",
        monitor_per_rdv(seed, n(300), &mut checks),
        "ns",
    ));
    wire(n(20_000), &mut out);
    frame(n(20_000), &mut out);
    server(n(3000), &mut out);
    out.push(metric(
        "net.client.sever_resume_us",
        sever_resume(n(3000), &mut checks),
        "us",
    ));
    fleet(n(3000), &mut out, &mut checks);
    scripts_inproc(seed, divisor, &mut checks);
    drop(_all);
    trace::set_probe_phase(false);
    (out, checks)
}
