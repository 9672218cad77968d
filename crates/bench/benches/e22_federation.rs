//! E22: federation — the price of the data plane's path.
//!
//! After the hub split, a spoke's frames can take two routes to the
//! performance's home node:
//!
//! * `direct` — the federated happy path: the spoke dials the home
//!   address from its signed [`PerfDescriptor`] and frames go
//!   spoke-to-home in one hop;
//! * `hub_relay` — the fallback path: every frame is spliced through
//!   the placement fleet (`FleetReq::RelayConnect`), the route a spoke
//!   takes when the home node is not directly dialable.
//!
//! Arms at n ∈ {2, 8, 32} fan-in peers: each iteration has every peer
//! send a fixed burst to a sink animated on the home node's inner
//! transport, and the group reports element throughput over the whole
//! burst. Expected shape (recorded in EXPERIMENTS.md E22): the two
//! routes are comparable at n = 2 where setup noise dominates, and
//! direct pulls ahead from n = 8 up — the relay pays an extra
//! loopback hop plus the fleet's splice (a source on the I/O thread
//! since PR 23; two threads when E22 was recorded) for every frame, so
//! its deficit grows with fan-in.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use script_chan::{Arm, ShardedTransport, Transport};
use script_core::RetryPolicy;
use script_net::{DialPlan, FleetClient, HubFleet, SocketTransport, TransportServer};

/// Messages each peer sends per iteration.
const BURST: u64 = 4;
const SECRET: u64 = 0x22;

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(60))
}

fn s(x: &str) -> String {
    x.to_string()
}

/// One federated deployment: a fleet behind two addresses, a home data
/// node, and `n` spokes whose dial plans either go direct or are
/// forced through the fleet's relay.
struct Rig {
    /// Keeps the control plane alive for the spokes' relay fallback.
    _fleet: HubFleet,
    /// Keeps the home node (and its reactor) alive.
    _server: TransportServer<String, u64>,
    /// The home node's inner transport; the sink drains here.
    inner: Arc<dyn Transport<String, u64>>,
    spokes: Vec<Arc<SocketTransport<String, u64>>>,
}

fn rig(n: usize, relay: bool) -> Rig {
    let fleet = HubFleet::launch(2, SECRET).expect("launch fleet");
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, None));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind home");
    inner.declare(s("sink"));
    for i in 0..n {
        inner.declare(format!("p{i}"));
    }
    inner.activate(s("sink"));

    let ctl = FleetClient::connect(&fleet.any_addr().to_string(), SECRET).expect("fleet connect");
    ctl.register_node(&server.local_addr().to_string())
        .expect("register home");
    let desc = ctl.place("e22", 1, &[], None).expect("place performance");
    let home = desc.home.parse().expect("home address");

    let spokes = (0..n)
        .map(|i| {
            let mut plan = DialPlan::direct(home).with_relay(fleet.any_addr());
            if relay {
                plan = plan.with_forced_relay();
            }
            let t = Arc::new(SocketTransport::<String, u64>::with_plan(
                plan,
                RetryPolicy::new(6)
                    .with_base(Duration::from_millis(25))
                    .with_cap(Duration::from_millis(500)),
            ));
            t.activate(format!("p{i}"));
            t
        })
        .collect();
    Rig {
        _fleet: fleet,
        _server: server,
        inner,
        spokes,
    }
}

/// One iteration: every peer bursts at the sink; the bench thread *is*
/// the sink, draining `n * BURST` rendezvous.
fn pump(rig: &Rig) {
    let senders: Vec<_> = rig
        .spokes
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let t = Arc::clone(t);
            thread::spawn(move || {
                let me = format!("p{i}");
                for k in 0..BURST {
                    t.send(&me, &s("sink"), k, far()).expect("peer send");
                }
            })
        })
        .collect();
    for _ in 0..rig.spokes.len() as u64 * BURST {
        rig.inner
            .select(&s("sink"), vec![Arm::recv_any()], far())
            .expect("sink drain");
    }
    for h in senders {
        h.join().expect("sender thread");
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e22_federation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1600));

    for &n in &[2usize, 8, 32] {
        group.throughput(Throughput::Elements(n as u64 * BURST));

        group.bench_with_input(BenchmarkId::new("direct", n), &n, |b, &n| {
            let rig = rig(n, false);
            b.iter(|| pump(&rig));
        });
        group.bench_with_input(BenchmarkId::new("hub_relay", n), &n, |b, &n| {
            let rig = rig(n, true);
            b.iter(|| pump(&rig));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
