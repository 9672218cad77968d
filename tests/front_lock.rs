//! The engine's front lock is not held across a hub's turn: opening a
//! performance on a socket-backed network *posts* the cast's lifecycle
//! run — a write, not a round trip — so while the hub sits on it, other
//! processes can still ask the instance for its status and offer to
//! enroll. This is ROADMAP item 6's property ("no other process waits
//! on a network round trip to enroll in any performance of the
//! instance") for the socket transport, minus the first dial: the
//! spoke's `HelloNew` exchange still happens under the lock.
//!
//! The gate below holds the process's one I/O thread, so this file is
//! one test in a process of its own.

use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use script::chan::{
    Arm, CastStep, ChanError, Completion, FaultPlan, Network, Observers, Outcome, PeerState,
    ShardedTransport, Transport,
};
use script::core::{
    CriticalSet, Enrollment, Initiation, NetworkFactory, PerformanceNet, RoleId, Script,
    ScriptError, Termination,
};
use script::net::{SocketTransport, TransportServer};

/// An in-process transport whose `cast` waits at a gate, on the hub's
/// I/O thread: while it is shut the hub answers nobody.
struct Gated {
    inner: Arc<ShardedTransport<RoleId, u64>>,
    /// `(open, a cast is held at the gate)`.
    gate: Mutex<(bool, bool)>,
    moved: Condvar,
}

impl Gated {
    fn open(&self) {
        self.gate.lock().unwrap().0 = true;
        self.moved.notify_all();
    }

    /// Blocks until a `cast` is held at the shut gate.
    fn await_held(&self) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.1 {
            gate = self.moved.wait(gate).unwrap();
        }
    }
}

impl Transport<RoleId, u64> for Gated {
    fn cast(&self, steps: &[CastStep<RoleId>]) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.0 {
            gate.1 = true;
            self.moved.notify_all();
            gate = self.moved.wait(gate).unwrap();
        }
        drop(gate);
        self.inner.cast(steps);
    }
    fn abort(&self) {
        self.inner.abort();
    }
    fn is_aborted(&self) -> bool {
        self.inner.is_aborted()
    }
    fn peer_state(&self, id: &RoleId) -> Option<PeerState> {
        self.inner.peer_state(id)
    }
    fn activity(&self) -> u64 {
        self.inner.activity()
    }
    fn reseed(&self, seed: u64) {
        self.inner.reseed(seed);
    }
    fn ensure_peer(&self, id: &RoleId) -> Result<(), ChanError<RoleId>> {
        self.inner.ensure_peer(id)
    }
    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&u64) -> u64) {
        self.inner.set_fault_plan(plan, clone_fn);
    }
    fn clear_fault_plan(&self) {
        self.inner.clear_fault_plan();
    }
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan()
    }
    fn observe(&self, observers: Observers<RoleId, u64>) {
        self.inner.observe(observers);
    }
    fn send(
        &self,
        from: &RoleId,
        to: &RoleId,
        msg: u64,
        deadline: Option<Instant>,
    ) -> Result<(), ChanError<RoleId>> {
        self.inner.send(from, to, msg, deadline)
    }
    fn try_recv(&self, me: &RoleId, from: &RoleId) -> Result<Option<u64>, ChanError<RoleId>> {
        self.inner.try_recv(me, from)
    }
    fn select_in(
        &self,
        me: &RoleId,
        arms: &mut [Arm<RoleId, u64>],
        deadline: Option<Instant>,
    ) -> Result<Outcome<RoleId, u64>, ChanError<RoleId>> {
        self.inner.select_in(me, arms, deadline)
    }
    fn submit_send(
        self: Arc<Self>,
        from: &RoleId,
        to: &RoleId,
        msg: u64,
        deadline: Option<Instant>,
        done: Completion<RoleId, u64>,
    ) -> Result<(), (u64, Completion<RoleId, u64>)> {
        Transport::submit_send(Arc::clone(&self.inner), from, to, msg, deadline, done)
    }
    #[allow(clippy::type_complexity)]
    fn submit_select(
        self: Arc<Self>,
        me: &RoleId,
        arms: Vec<Arm<RoleId, u64>>,
        deadline: Option<Instant>,
        done: Completion<RoleId, u64>,
    ) -> Result<(), (Vec<Arm<RoleId, u64>>, Completion<RoleId, u64>)> {
        Transport::submit_select(Arc::clone(&self.inner), me, arms, deadline, done)
    }
}

/// Runs `f` on a thread of its own and gives up on it after five
/// seconds: a caller queued behind the front lock never comes back
/// while the gate is shut.
fn within_the_timeout<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what} waited for the hub's turn"))
}

#[test]
fn front_lock_is_free_while_the_opening_run_is_in_flight() {
    let mut b = Script::<u64>::builder("gated_ping_pong");
    let ping = b.role("ping", |ctx, v: u64| {
        ctx.send(&RoleId::new("pong"), v)?;
        ctx.recv_from(&RoleId::new("pong"))
    });
    let pong = b.role("pong", |ctx, (): ()| {
        let v = ctx.recv_from(&RoleId::new("ping"))?;
        ctx.send(&RoleId::new("ping"), v + 1)
    });
    let bystander = b.role("bystander", |_ctx, (): ()| Ok(()));
    b.critical_set(CriticalSet::new().role("ping").role("pong"))
        .initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let inst = b.build().unwrap().instance();

    let gated = Arc::new(Gated {
        inner: Arc::new(ShardedTransport::new(false, None)),
        gate: Mutex::new((false, false)),
        moved: Condvar::new(),
    });
    let hubs: Arc<Mutex<Vec<TransportServer<RoleId, u64>>>> = Arc::default();
    let factory: Arc<NetworkFactory<u64>> = {
        let (gated, hubs) = (Arc::clone(&gated), Arc::clone(&hubs));
        Arc::new(move |_net: &PerformanceNet| {
            let inner: Arc<dyn Transport<RoleId, u64>> = gated.clone();
            let hub = TransportServer::bind("127.0.0.1:0", inner).expect("bind loopback hub");
            let spoke: Arc<dyn Transport<RoleId, u64>> = Arc::new(
                SocketTransport::<RoleId, u64>::connect(hub.local_addr()).expect("loopback addr"),
            );
            hubs.lock().unwrap().push(hub);
            Network::with_transport(spoke)
        })
    };
    inst.set_network_factory(factory);

    // Whichever of the two arrives second opens the performance under
    // the front lock: factory, first dial, and the opening run — posted.
    let drivers = {
        let (i, j) = (inst.clone(), inst.clone());
        (
            thread::spawn(move || i.enroll(&ping, 41)),
            thread::spawn(move || j.enroll(&pong, ())),
        )
    };
    // The hub is in its turn over that run, and stays there.
    gated.await_held();

    let status = {
        let inst = inst.clone();
        within_the_timeout("status()", move || inst.status())
    };
    assert_eq!(status.performances.len(), 1, "{status:?}");
    assert_eq!(status.performances[0].cast.len(), 2, "{status:?}");
    assert_eq!(status.completed_performances, 0);
    let offered = {
        let inst = inst.clone();
        within_the_timeout("a non-blocking enrollment", move || {
            inst.enroll_with(&bystander, (), Enrollment::new().non_blocking())
        })
    };
    assert_eq!(offered, Err(ScriptError::WouldBlock));

    gated.open();
    assert_eq!(drivers.0.join().expect("ping's process"), Ok(42));
    assert_eq!(drivers.1.join().expect("pong's process"), Ok(()));
    assert_eq!(inst.completed_performances(), 1);
}
