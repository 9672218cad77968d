//! `socket_mix` in miniature: every performance of a star broadcast on
//! its own loopback hub and spoke, as the repo benchmark places them —
//! and no thread is born per performance. The counters
//! ([`script::net::io_stats`]) are process-wide, so this file is one
//! test in a process of its own; run it with `--nocapture` to see them.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use script::chan::{Network, ShardedTransport, Transport};
use script::core::{NetworkFactory, PerformanceNet, RoleId};
use script::lib::broadcast::{self, Order};
use script::net::{io_stats, SocketTransport, TransportServer};

/// Hubs of this many most recent performances stay up, as in the
/// benchmark: teardown overlaps the performances that follow.
const PARKED_HUBS: usize = 4;

type Inner = Arc<ShardedTransport<RoleId, u64>>;
type Parked = (TransportServer<RoleId, u64>, Inner);

#[test]
fn a_performance_per_hub_births_no_thread() {
    const PERFORMANCES: u64 = 40;
    let b = broadcast::star::<u64>(3, Order::NonDeterministic);
    let inst = b.script.instance();
    let park: Arc<Mutex<VecDeque<Parked>>> = Arc::default();
    let schedulers_started = Arc::new(Mutex::new(0usize));
    let factory: Arc<NetworkFactory<u64>> = {
        let (park, started) = (Arc::clone(&park), Arc::clone(&schedulers_started));
        Arc::new(move |net: &PerformanceNet| {
            let inner: Inner = Arc::new(ShardedTransport::new(net.open, None));
            let hub =
                TransportServer::bind("127.0.0.1:0", inner.clone() as Arc<dyn Transport<_, _>>)
                    .expect("bind loopback hub");
            let spoke: Arc<dyn Transport<RoleId, u64>> = Arc::new(
                SocketTransport::<RoleId, u64>::connect(hub.local_addr()).expect("loopback addr"),
            );
            let mut park = park.lock().unwrap();
            park.push_back((hub, inner));
            while park.len() > PARKED_HUBS {
                let (hub, inner) = park.pop_front().expect("non-empty");
                drop(hub);
                *started.lock().unwrap() += usize::from(inner.scheduler_thread_started());
            }
            Network::with_transport(spoke)
        })
    };
    inst.set_network_factory(factory);

    for v in 0..PERFORMANCES {
        let got = broadcast::run_on(&inst, &b, v).expect("broadcast over its own hub");
        assert_eq!(got, vec![v; 3]);
    }
    let stats = io_stats();
    println!("{PERFORMANCES} performances, each on its own hub and spoke: {stats:?}");
    assert_eq!(
        stats.io_threads, 1,
        "one I/O thread for every hub and spoke"
    );
    assert_eq!(stats.redial_threads, 0, "no connection died unannounced");
    assert!(stats.sources <= 2 * (PARKED_HUBS + 1), "{stats:?}");
    assert_eq!(
        *schedulers_started.lock().unwrap(),
        0,
        "no timer, no orphaned op: no scheduler thread on any hub"
    );
}
