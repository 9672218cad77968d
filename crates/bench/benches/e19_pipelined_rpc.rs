//! E19's one depth the ledger (`benchmark/src/probes.rs`) has no metric
//! for: 64 sender roles animated from a single transport all stream
//! sends into one hub-local sink role that drains them with a
//! `recv_any` select loop. A send only completes at pickup, so up to 64
//! rendezvous are in flight on the one connection — the arm E23 used to
//! find the parked-herd cost (`socket/64` −8 %). Depths 1 and 8 are
//! `chan.submit_rdv_ns`, `net.server.rpc_depth1_us` and
//! `net.server.rpc_depth8_per_s` there. This file goes when a
//! `[benchmark]` PR adds a `net.server.rpc_depth64_per_s` probe
//! (ROADMAP 1(c)).
//!
//! Arms:
//!
//! * `sharded/64` — the in-process reference transport (upper bound: no
//!   wire, no framing).
//! * `socket/64` — one `SocketTransport` spoke talking to a loopback
//!   TCP hub, which multiplexes the in-flight ops onto the I/O thread
//!   while the client coalesces request frames per flush.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use script_chan::{Arm, Outcome, ShardedTransport, Transport};
use script_net::{SocketTransport, TransportServer};

/// Sender roles, and so rendezvous in flight on the one connection.
const DEPTH: usize = 64;

/// Messages each sender role streams per measured iteration.
const PER_SENDER: u64 = 20;

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(60))
}

fn sender_id(i: usize) -> String {
    format!("s{i}")
}

/// Declares `DEPTH` sender roles plus the sink on `inner`, activating
/// the senders on `spokes` (the transport under test) and the sink
/// hub-side.
fn rig(inner: &Arc<dyn Transport<String, u64>>, spokes: &Arc<dyn Transport<String, u64>>) {
    inner.declare("sink".to_string());
    inner.activate("sink".to_string());
    for i in 0..DEPTH {
        inner.declare(sender_id(i));
        spokes.activate(sender_id(i));
    }
}

/// One measured iteration: `DEPTH` concurrent sender threads push
/// `PER_SENDER` messages each through `spokes` while a hub-side thread
/// drains `DEPTH * PER_SENDER` rendezvous from the sink role.
fn pump(inner: &Arc<dyn Transport<String, u64>>, spokes: &Arc<dyn Transport<String, u64>>) {
    let total = DEPTH as u64 * PER_SENDER;
    std::thread::scope(|s| {
        let sink_inner = Arc::clone(inner);
        s.spawn(move || {
            for _ in 0..total {
                let got = sink_inner
                    .select(&"sink".to_string(), vec![Arm::recv_any()], far())
                    .expect("sink receive");
                assert!(matches!(got, Outcome::Received { .. }));
            }
        });
        for i in 0..DEPTH {
            let t = Arc::clone(spokes);
            s.spawn(move || {
                let me = sender_id(i);
                for v in 0..PER_SENDER {
                    t.send(&me, &"sink".to_string(), v, far()).expect("send");
                }
            });
        }
    });
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_pipelined_rpc");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1600));

    group.throughput(Throughput::Elements(DEPTH as u64 * PER_SENDER));

    group.bench_function(BenchmarkId::new("sharded", DEPTH), |b| {
        let inner: Arc<dyn Transport<String, u64>> =
            Arc::new(ShardedTransport::new(false, Some(19)));
        rig(&inner, &inner);
        b.iter(|| pump(&inner, &inner));
    });

    group.bench_function(BenchmarkId::new("socket", DEPTH), |b| {
        let inner: Arc<dyn Transport<String, u64>> =
            Arc::new(ShardedTransport::new(false, Some(19)));
        let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind");
        let client: Arc<dyn Transport<String, u64>> = Arc::new(
            SocketTransport::<String, u64>::connect(server.local_addr()).expect("connect"),
        );
        rig(&inner, &client);
        b.iter(|| pump(&inner, &client));
        drop(server);
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
