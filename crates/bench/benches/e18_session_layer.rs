//! E18's one arm the ledger (`benchmark/src/probes.rs`) has no metric
//! for: `heartbeat_ack`, a query the hub answers from state — the
//! cheapest round trip that rides a session (same connection, same
//! framing, lease renewal and replay-cache pruning on the way), with no
//! rendezvous in it. `socket_roundtrip` and `sever_resume` are
//! `net.server.rpc_depth1_us` and `net.client.sever_resume_us` there.
//! This file goes when a `[benchmark]` PR adds a `net.server.query_us`
//! probe (ROADMAP 1(c)).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use script_chan::{ShardedTransport, Transport};
use script_net::{SocketTransport, TransportServer};

/// One hub + one spoke with `a` (spoke-side) and `b` (hub-side) active.
fn rig() -> (TransportServer<String, u64>, SocketTransport<String, u64>) {
    let inner: Arc<dyn Transport<String, u64>> = Arc::new(ShardedTransport::new(false, Some(3)));
    let server = TransportServer::bind("127.0.0.1:0", Arc::clone(&inner)).expect("bind hub");
    let client = SocketTransport::<String, u64>::connect(server.local_addr()).expect("connect");
    for id in ["a", "b"] {
        inner.declare(id.to_string());
    }
    client.activate("a".to_string());
    inner.activate("b".to_string());
    (server, client)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_session_layer");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1600));

    group.bench_function("heartbeat_ack", |b| {
        let (server, client) = rig();
        b.iter(|| {
            let _ = client.activity();
        });
        drop(server);
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
