//! Remote peer loss under the engine: a performance placed on a socket
//! transport via [`Instance::set_network_factory`] must treat a dead
//! remote partner exactly like a crashed local one — a blocked role
//! unblocks with [`ScriptError::RoleUnavailable`] (the connection
//! dropped and the hub finished the peer) or [`ScriptError::Stalled`]
//! (the watchdog window expired first). It must never hang.
//!
//! The remote partner is declared as an *open family* member: it is
//! animated directly on the hub by another connection (standing in for
//! another OS process), not enrolled through this engine — so the
//! script addresses it, but the engine does not wait for it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use script::chan::{Network, ShardedTransport, Transport};
use script::core::{
    FamilyHandle, Initiation, NetworkFactory, PerformanceNet, RoleId, Script, ScriptError,
    Termination, WatchdogPolicy,
};
use script::net::{SocketTransport, TransportServer};

type Hub = TransportServer<RoleId, u64>;

/// A hub plus a factory routing every performance of an instance onto
/// it over TCP.
fn hub() -> (Hub, Arc<NetworkFactory<u64>>) {
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

fn remote_id() -> RoleId {
    RoleId::indexed("remote", 0)
}

/// A raw participant animating `remote[0]` on the hub over its own TCP
/// connection — standing in for a second OS process.
fn raw_remote(server: &Hub) -> SocketTransport<RoleId, u64> {
    let t = SocketTransport::<RoleId, u64>::connect(server.local_addr()).expect("remote connect");
    t.declare(remote_id());
    t.activate(remote_id());
    // Pre-declare the engine-side partner so a send racing the
    // engine's own declaration blocks (Expected peer) instead of
    // failing with Unknown.
    t.declare(RoleId::new("local"));
    t
}

/// A script whose one engine-side role runs `body`; `remote[0]` is
/// addressable but animated outside the engine.
fn one_sided_script<F>(name: &str, body: F) -> (Script<u64>, script::core::RoleHandle<u64, (), u64>)
where
    F: Fn(&mut script::core::RoleCtx<u64>, ()) -> Result<u64, ScriptError> + Send + Sync + 'static,
{
    let mut b = Script::<u64>::builder(name);
    let local = b.role("local", body);
    let _remote: FamilyHandle<u64, (), ()> = b.open_family("remote", Some(4), |_ctx, ()| Ok(()));
    b.initiation(Initiation::Immediate)
        .termination(Termination::Immediate);
    (b.build().unwrap(), local)
}

/// The remote partner sends one message and then its connection dies.
/// The role blocked on a second receive must surface the loss as an
/// error within the watchdog window — not hang.
#[test]
fn remote_peer_death_unblocks_blocked_role() {
    let (server, factory) = hub();
    let remote = raw_remote(&server);

    let (script, local) = one_sided_script("remote_death", |ctx, ()| {
        let first = ctx.recv_from(&remote_id())?;
        assert_eq!(first, 1);
        // The partner's connection is severed after this point; the
        // hub finishes `remote[0]` and this receive must fail like any
        // crashed peer (or the watchdog calls the performance stalled).
        match ctx.recv_from(&remote_id()) {
            Err(ScriptError::RoleUnavailable(r)) => {
                assert_eq!(r, remote_id());
                Ok(7u64)
            }
            Err(ScriptError::Stalled) => Ok(8),
            other => panic!("expected remote loss, got {other:?}"),
        }
    });
    let inst = script.instance();
    inst.set_network_factory(factory);
    // Adaptive: no hand-tuned window for the socket transport — the
    // 500 ms initial window bounds detection well inside the 10 s
    // assertion below without guessing at RPC round-trip times.
    inst.set_watchdog_policy(WatchdogPolicy::Adaptive);

    let partner = std::thread::spawn(move || {
        remote
            .send(
                &remote_id(),
                &RoleId::new("local"),
                1,
                Some(Instant::now() + Duration::from_secs(10)),
            )
            .expect("remote's first send rendezvouses");
        // Die without a goodbye — what a crashed process looks like.
        remote.close();
    });

    let start = Instant::now();
    let got = inst.enroll(&local, ()).expect("role observes loss as data");
    assert!(got == 7 || got == 8, "unexpected marker {got}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "remote death took too long to surface"
    );
    partner.join().unwrap();
}

/// The remote partner stays connected but silent: nothing ever fails at
/// the transport level, so only the quiescence watchdog can free the
/// blocked role — with [`ScriptError::Stalled`], inside its window.
#[test]
fn silent_remote_peer_trips_the_watchdog() {
    let (server, factory) = hub();
    let remote = raw_remote(&server);

    let (script, local) = one_sided_script("silent_remote", |ctx, ()| {
        ctx.recv_from(&remote_id())?;
        Ok(0)
    });
    let inst = script.instance();
    inst.set_network_factory(factory);
    // Adaptive rather than a hard-coded 300 ms: the silent peer never
    // completes a rendezvous, so the watchdog fires at the policy's
    // initial window (500 ms) — still far inside the 5 s assertion —
    // without baking transport timing into the test.
    inst.set_watchdog_policy(WatchdogPolicy::Adaptive);

    let start = Instant::now();
    let err = inst.enroll(&local, ()).unwrap_err();
    assert_eq!(err, ScriptError::Stalled);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "watchdog fired far outside its window"
    );
    // The partner was healthy the whole time — only quiescence fired.
    assert!(!remote.is_lost());
}
