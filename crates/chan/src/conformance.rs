//! A reusable conformance suite for [`Transport`] implementations.
//!
//! The [`Transport`] trait documents a behavioral contract (rendezvous,
//! lifecycle, selection, deadlines, abort, fault determinism); this
//! module checks it mechanically, so a new backend — the socket
//! transport in `script-net`, an instrumented wrapper, a future shared
//! memory substrate — is tested against the *same* expectations as the
//! in-process [`ShardedTransport`](crate::ShardedTransport), not
//! against ad-hoc tests that drift.
//!
//! A suite run is parameterized by a **factory**: a closure producing a
//! fresh, independent, *closed* (non-implicitly-declaring) transport
//! for `String` ids and `u64` messages, seeded for reproducible
//! selection. Each check builds its own topology through the factory,
//! so checks are order-independent and a failure names the violated
//! clause.
//!
//! ```
//! use std::sync::Arc;
//! use script_chan::{conformance, ShardedTransport};
//!
//! conformance::run_all(&|seed| {
//!     Arc::new(ShardedTransport::new(false, Some(seed))) as _
//! });
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::fault::{FaultKind, FaultPlan, FaultRecord};
use crate::network::{Network, PeerState};
use crate::select::{Arm, Outcome};
use crate::transport::{CastStep, LatencyOp, LatencySample, Observers, Transport};
use crate::ChanError;

/// The concrete transport type the suite exercises.
pub type ConformanceTransport = Arc<dyn Transport<String, u64>>;

/// A factory producing a fresh closed transport seeded with the given
/// selection seed. Every check calls it at least once.
pub type TransportFactory<'a> = &'a dyn Fn(u64) -> ConformanceTransport;

fn net_of(t: ConformanceTransport) -> Network<String, u64> {
    Network::with_transport(t)
}

fn s(x: &str) -> String {
    x.to_string()
}

/// Installs a fault observer on `net` that appends every pushed record
/// to the returned vector. Records of an operation issued through `net`
/// are in it when the operation returns: in process the faulting thread
/// runs the observer, over a socket the hub writes an operation's fault
/// push before its response and the spoke dispatches in frame order.
pub(crate) fn collect_faults<I, M>(net: &Network<I, M>) -> Arc<Mutex<Vec<FaultRecord<I>>>>
where
    I: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static,
    M: Send + 'static,
{
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    net.observe(Observers {
        fault: Some(Arc::new(move |rec| sink.lock().unwrap().push(rec.clone()))),
        ..Observers::default()
    });
    seen
}

/// Installs a latency observer on `net` that appends every pushed
/// sample to the returned vector.
fn collect_latency(net: &Network<String, u64>) -> Arc<Mutex<Vec<LatencySample>>> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    net.observe(Observers {
        latency: Some(Arc::new(move |sample| sink.lock().unwrap().push(*sample))),
        ..Observers::default()
    });
    seen
}

/// Installs both observers on `net`, merging what they are pushed into
/// one stream in arrival order: `fault <record>` per injected fault,
/// `send ok` per successful send (receiver-side samples race with the
/// sender's and are left out).
fn merged_log(net: &Network<String, u64>) -> Arc<Mutex<Vec<String>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let (faults, sends) = (Arc::clone(&log), Arc::clone(&log));
    net.observe(Observers {
        fault: Some(Arc::new(move |rec| {
            faults.lock().unwrap().push(format!("fault {rec}"))
        })),
        latency: Some(Arc::new(move |sample| {
            if sample.op == LatencyOp::Send {
                sends.lock().unwrap().push(s("send ok"));
            }
        })),
        ..Observers::default()
    });
    log
}

/// The fault records of a [`merged_log`] stream.
fn faults_of(stream: &[String]) -> Vec<String> {
    let faults = stream.iter().filter(|e| e.starts_with("fault"));
    faults.cloned().collect()
}

/// The successful sends of a [`merged_log`] stream.
fn sends_of(stream: &[String]) -> usize {
    stream.iter().filter(|e| *e == "send ok").count()
}

/// The collected fault records, rendered.
fn rendered(faults: &Mutex<Vec<FaultRecord<String>>>) -> Vec<String> {
    faults
        .lock()
        .unwrap()
        .iter()
        .map(|r| r.to_string())
        .collect()
}

/// Spawns `b` receiving from `a` until `a` is done: what arrived, in
/// order.
fn drain_b(net: &Network<String, u64>) -> thread::JoinHandle<Vec<u64>> {
    let b = net.port(s("b")).unwrap();
    thread::spawn(move || {
        std::iter::from_fn(|| b.recv_from_deadline(&s("a"), far()).ok()).collect()
    })
}

/// A deadline generous enough that only a contract violation hits it.
fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(10))
}

/// A deadline the check *expects* to expire.
fn soon() -> Option<Instant> {
    Some(Instant::now() + Duration::from_millis(60))
}

/// Spins until `cond` holds, panicking with `what` after 10 seconds.
fn await_cond(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "conformance: timed out waiting for {what}"
        );
        thread::yield_now();
    }
}

/// Lifecycle: states progress `Expected → Active → Done`, `declare`
/// never downgrades, unknown peers are rejected on closed transports,
/// and the activity counter advances on transitions.
pub fn check_lifecycle(factory: TransportFactory<'_>) {
    let net = net_of(factory(1));
    assert_eq!(
        net.peer_state(&s("x")),
        None,
        "undeclared peer has no state"
    );
    net.declare(s("x"));
    assert_eq!(net.peer_state(&s("x")), Some(PeerState::Expected));
    net.activate(s("x"));
    assert_eq!(net.peer_state(&s("x")), Some(PeerState::Active));
    net.declare(s("x"));
    assert_eq!(
        net.peer_state(&s("x")),
        Some(PeerState::Active),
        "declare must not downgrade an active peer"
    );
    net.finish(s("x"));
    assert_eq!(net.peer_state(&s("x")), Some(PeerState::Done));
    assert!(
        net.port(s("nobody")).is_err(),
        "closed transports must reject undeclared participants"
    );
    let a0 = net.activity();
    net.declare(s("y"));
    assert!(
        net.activity() > a0,
        "lifecycle transitions advance activity"
    );
    assert_eq!(net.peer_state(&s("y")), Some(PeerState::Expected));
}

/// Rendezvous ordering: messages on one directed edge are delivered in
/// send order, and edges do not interfere.
pub fn check_edge_fifo_ordering(factory: TransportFactory<'_>) {
    let net = net_of(factory(7));
    for id in ["s0", "s1", "rx"] {
        net.activate(s(id));
    }
    let rx = net.port(s("rx")).unwrap();
    let mut handles = Vec::new();
    for (si, base) in [("s0", 0u64), ("s1", 100u64)] {
        let p = net.port(s(si)).unwrap();
        handles.push(thread::spawn(move || {
            for k in 0..20u64 {
                p.send_deadline(&s("rx"), base + k, far()).unwrap();
            }
        }));
    }
    let mut seen: HashMap<String, Vec<u64>> = HashMap::new();
    for _ in 0..40 {
        let (from, v) = rx.recv_any_deadline(far()).unwrap();
        seen.entry(from).or_default().push(v);
    }
    assert_eq!(
        seen[&s("s0")],
        (0..20).collect::<Vec<u64>>(),
        "edge s0→rx must be FIFO"
    );
    assert_eq!(
        seen[&s("s1")],
        (100..120).collect::<Vec<u64>>(),
        "edge s1→rx must be FIFO"
    );
    for h in handles {
        h.join().unwrap();
    }
}

/// Select fairness: with several senders simultaneously ready, seeded
/// selection picks each of them first in some round — no arm is
/// starved by position.
pub fn check_select_fairness(factory: TransportFactory<'_>) {
    const ROUNDS: u64 = 18;
    let senders = ["s0", "s1", "s2"];
    let mut first_counts: HashMap<String, u32> = HashMap::new();
    for round in 0..ROUNDS {
        let net = net_of(factory(round * 31 + 7));
        net.activate(s("rx"));
        for sx in senders {
            net.activate(s(sx));
        }
        let before = net.activity();
        let mut handles = Vec::new();
        for (i, sx) in senders.iter().enumerate() {
            let p = net.port(s(sx)).unwrap();
            handles.push(thread::spawn(move || {
                p.send_deadline(&s("rx"), i as u64, far()).unwrap();
            }));
        }
        // A deposit — a message left for a receiver not yet taking it —
        // is one step of the activity counter, and nothing else moves it.
        await_cond("three deposits", || net.activity() >= before + 3);
        let rx = net.port(s("rx")).unwrap();
        let (first, _) = rx.recv_any_deadline(far()).unwrap();
        *first_counts.entry(first).or_insert(0) += 1;
        for _ in 0..2 {
            rx.recv_any_deadline(far()).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
    }
    for sx in senders {
        assert!(
            first_counts.get(&s(sx)).copied().unwrap_or(0) >= 1,
            "selection never chose {sx} first across {ROUNDS} seeded rounds: {first_counts:?}"
        );
    }
}

/// Claiming: a send arm fires only against a peer already committed
/// to a matching receive (so firing proves delivery), and times out
/// when no such commitment exists. A plain send may return at the same
/// commitment: what it sent is delivered whatever happens next, and
/// rendezvous records follow the sender's program order.
pub fn check_send_claim(factory: TransportFactory<'_>) {
    let net = net_of(factory(3));
    net.activate(s("a"));
    net.activate(s("b"));
    let a = net.port(s("a")).unwrap();
    assert_eq!(
        a.select_deadline(vec![Arm::send(s("b"), 1)], soon()),
        Err(ChanError::Timeout),
        "a send arm must not fire without a committed receiver"
    );
    let b = net.port(s("b")).unwrap();
    let h = thread::spawn(move || b.recv_any_deadline(far()));
    let out = a
        .select_deadline(vec![Arm::send(s("b"), 21)], far())
        .unwrap();
    assert!(
        matches!(out, Outcome::Sent { arm: 0, ref to } if *to == s("b")),
        "committed receiver must be claimable: {out:?}"
    );
    assert_eq!(h.join().unwrap(), Ok((s("a"), 21)));

    // A commitment cannot be seen from outside: give each receiver a
    // moment to make it. Either order of arrival must pass.
    let committed = |who: &str| {
        let p = net.port(s(who)).unwrap();
        let h = thread::spawn(move || p.recv_any_deadline(far()));
        thread::sleep(Duration::from_millis(20));
        h
    };
    net.activate(s("c"));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    net.observe(Observers {
        rendezvous: Some((
            Arc::new(move |rec| sink.lock().unwrap().push(rec.to.clone())),
            |_| None,
        )),
        ..Observers::default()
    });
    let (hb, hc) = (committed("b"), committed("c"));
    a.send_deadline(&s("b"), 22, far()).unwrap();
    a.send_deadline(&s("c"), 23, far()).unwrap();
    assert_eq!(hb.join().unwrap(), Ok((s("a"), 22)));
    assert_eq!(hc.join().unwrap(), Ok((s("a"), 23)));
    await_cond("both rendezvous records", || {
        seen.lock().unwrap().len() == 2
    });
    assert_eq!(
        *seen.lock().unwrap(),
        [s("b"), s("c")],
        "records of one sender arrive in its program order"
    );

    let hb = committed("b");
    a.send_deadline(&s("b"), 24, far()).unwrap();
    net.abort();
    assert_eq!(
        hb.join().unwrap(),
        Ok((s("a"), 24)),
        "a send that returned is delivered, abort or not"
    );
}

/// Deadlines: expiry surfaces `Timeout` and leaves no partial effect —
/// in particular a send that timed out awaiting pickup reclaims its
/// deposit.
pub fn check_deadlines(factory: TransportFactory<'_>) {
    let net = net_of(factory(5));
    net.activate(s("a"));
    net.activate(s("b"));
    net.declare(s("late"));
    let a = net.port(s("a")).unwrap();
    let b = net.port(s("b")).unwrap();
    assert_eq!(
        b.recv_from_deadline(&s("a"), soon()),
        Err(ChanError::Timeout),
        "recv deadline must expire"
    );
    assert_eq!(
        a.send_deadline(&s("late"), 1, soon()),
        Err(ChanError::Timeout),
        "send to a never-activating peer must time out"
    );
    assert_eq!(
        a.send_deadline(&s("b"), 7, soon()),
        Err(ChanError::Timeout),
        "send awaiting pickup must time out"
    );
    assert_eq!(
        b.try_recv_from(&s("a")),
        Ok(None),
        "a timed-out send must reclaim its deposit"
    );
    assert_eq!(
        a.select_deadline(vec![Arm::recv_from(s("b"))], soon()),
        Err(ChanError::Timeout)
    );
}

/// Termination surfacing: a done peer's already-deposited message is
/// drained first, then operations naming it fail with `Terminated`;
/// a selection whose arms are all dead reports `AllTerminated`.
pub fn check_termination_surfacing(factory: TransportFactory<'_>) {
    let net = net_of(factory(9));
    for id in ["a", "b", "c"] {
        net.activate(s(id));
    }
    let a = net.port(s("a")).unwrap();
    let before = net.activity();
    let h = thread::spawn(move || a.send_deadline(&s("b"), 3, far()));
    await_cond("the deposit from a", || net.activity() > before);
    net.finish(s("a"));
    let b = net.port(s("b")).unwrap();
    assert_eq!(
        b.recv_from_deadline(&s("a"), far()),
        Ok(3),
        "a dead peer's pending message must be drained first"
    );
    let _ = h.join().unwrap();
    assert_eq!(
        b.recv_from_deadline(&s("a"), far()),
        Err(ChanError::Terminated(s("a"))),
        "after draining, a dead peer surfaces Terminated"
    );
    net.finish(s("c"));
    assert_eq!(
        b.select_deadline(vec![Arm::recv_from(s("a")), Arm::recv_from(s("c"))], far()),
        Err(ChanError::AllTerminated),
        "a selection with only dead arms surfaces AllTerminated"
    );
}

/// Watch arms fire only after everything from the watched peer has been
/// drained (the paper's `r.terminated` device).
pub fn check_watch_drains_before_firing(factory: TransportFactory<'_>) {
    let net = net_of(factory(11));
    net.activate(s("a"));
    net.activate(s("b"));
    let a = net.port(s("a")).unwrap();
    let before = net.activity();
    let h = thread::spawn(move || a.send_deadline(&s("b"), 4, far()));
    await_cond("the deposit from a", || net.activity() > before);
    net.finish(s("a"));
    let b = net.port(s("b")).unwrap();
    let arms = || vec![Arm::recv_from(s("a")), Arm::watch(s("a"))];
    let out = b.select_deadline(arms(), far()).unwrap();
    assert!(
        matches!(out, Outcome::Received { arm: 0, msg: 4, .. }),
        "the pending message must win over the watch arm: {out:?}"
    );
    let out = b.select_deadline(arms(), far()).unwrap();
    assert!(
        matches!(out, Outcome::Terminated { arm: 1, ref peer } if *peer == s("a")),
        "once drained, the watch arm fires: {out:?}"
    );
    let _ = h.join().unwrap();
}

/// Sealing: still-expected peers become done and communication with
/// them fails with `Terminated`; active peers are untouched.
pub fn check_seal_bars_expected_peers(factory: TransportFactory<'_>) {
    let net = net_of(factory(13));
    net.declare(s("ghost"));
    net.activate(s("a"));
    net.seal();
    assert_eq!(net.peer_state(&s("ghost")), Some(PeerState::Done));
    assert_eq!(net.peer_state(&s("a")), Some(PeerState::Active));
    let a = net.port(s("a")).unwrap();
    assert_eq!(
        a.send_deadline(&s("ghost"), 1, far()),
        Err(ChanError::Terminated(s("ghost")))
    );
}

/// Batched lifecycle: a [`Transport::cast`] run leaves exactly what the
/// same steps issued one by one leave — every peer's state, with a
/// `Declare` inside the run downgrading nothing, and `activity`
/// advanced by one per step — and a participant blocked on a peer that
/// a run finishes is woken by it.
pub fn check_cast_matches_steps(factory: TransportFactory<'_>) {
    let run = [
        CastStep::Declare(s("a")),
        CastStep::Declare(s("b")),
        CastStep::Declare(s("c")),
        CastStep::Declare(s("ghost")),
        CastStep::Activate(s("a")),
        CastStep::Activate(s("b")),
        CastStep::Declare(s("a")),
        CastStep::Finish(s("c")),
        CastStep::Seal,
    ];
    let batched = net_of(factory(41));
    let stepped = net_of(factory(41));
    // A lazily connecting transport reads its counter from its hub only
    // once something has made it connect.
    batched.declare(s("a"));
    stepped.declare(s("a"));
    let (b0, s0) = (batched.activity(), stepped.activity());
    batched.cast(&run);
    for step in run.iter().cloned() {
        match step {
            CastStep::Declare(id) => stepped.declare(id),
            CastStep::Activate(id) => stepped.activate(id),
            CastStep::Finish(id) => stepped.finish(id),
            CastStep::Seal => stepped.seal(),
        }
    }
    for id in ["a", "b", "c", "ghost", "nobody"] {
        assert_eq!(
            batched.peer_state(&s(id)),
            stepped.peer_state(&s(id)),
            "a run and its steps must leave {id} in the same state"
        );
    }
    assert_eq!(
        batched.peer_state(&s("a")),
        Some(PeerState::Active),
        "a declare inside a run must not downgrade an active peer"
    );
    assert_eq!(batched.peer_state(&s("ghost")), Some(PeerState::Done));
    assert_eq!(
        batched.activity() - b0,
        run.len() as u64,
        "a run advances activity by one per step"
    );
    assert_eq!(batched.activity() - b0, stepped.activity() - s0);

    let a = batched.port(s("a")).unwrap();
    let h = thread::spawn(move || a.recv_from_deadline(&s("b"), far()));
    thread::sleep(Duration::from_millis(30));
    batched.cast(&[CastStep::Finish(s("b")), CastStep::Declare(s("b"))]);
    assert_eq!(
        h.join().unwrap(),
        Err(ChanError::Terminated(s("b"))),
        "a batched finish must wake the receiver blocked on that peer"
    );
    assert_eq!(batched.peer_state(&s("b")), Some(PeerState::Done));
}

/// Lifecycle wake-ups: a parked operation is decided by the lifecycle
/// changes its arms name — a watch arm by its peer's finish, a receive
/// from anyone by the last finish, a send arm to an expected peer by
/// that peer's activation (and offer), a blocking send to an expected
/// peer by the activation. A change it does not wait for leaves it
/// parked; a seal ends a wait on a never-enrolled peer; an abort ends
/// every wait.
pub fn check_lifecycle_wakes(factory: TransportFactory<'_>) {
    let parked = |net: &Network<String, u64>, who: &str, arms: Vec<Arm<String, u64>>| {
        let p = net.port(s(who)).unwrap();
        let h = thread::spawn(move || p.select_deadline(arms, far()));
        thread::sleep(Duration::from_millis(20));
        h
    };
    let still_parked = |h: &thread::JoinHandle<_>, what: &str| {
        thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "{what} must leave the selection parked");
    };

    let net = net_of(factory(41));
    for id in ["a", "b", "c"] {
        net.activate(s(id));
    }
    let watch = parked(&net, "b", vec![Arm::recv_from(s("c")), Arm::watch(s("a"))]);
    net.finish(s("c"));
    still_parked(
        &watch,
        "finishing the peer of a receive arm, with a watch arm live,",
    );
    net.finish(s("a"));
    assert_eq!(
        watch.join().unwrap(),
        Ok(Outcome::Terminated {
            arm: 1,
            peer: s("a")
        }),
        "a watch arm fires on its peer's finish"
    );

    let net = net_of(factory(42));
    for id in ["a", "b", "c"] {
        net.activate(s(id));
    }
    let any = parked(&net, "c", vec![Arm::recv_any()]);
    net.finish(s("a"));
    still_parked(&any, "a finish with a possible sender left");
    net.finish(s("b"));
    assert_eq!(
        any.join().unwrap(),
        Err(ChanError::AllTerminated),
        "a receive from anyone ends with the last finish"
    );

    let net = net_of(factory(43));
    net.activate(s("a"));
    net.activate(s("d"));
    net.declare(s("late"));
    net.declare(s("b"));
    let send_arm = parked(&net, "a", vec![Arm::send(s("late"), 5)]);
    let late = net.port(s("late")).unwrap();
    let offer = thread::spawn(move || late.recv_from_deadline(&s("a"), far()));
    still_parked(&send_arm, "an offer by a peer not yet active");
    let d = net.port(s("d")).unwrap();
    let blocked = thread::spawn(move || d.send_deadline(&s("b"), 6, far()));
    thread::sleep(Duration::from_millis(20));
    net.activate(s("late"));
    assert_eq!(
        send_arm.join().unwrap(),
        Ok(Outcome::Sent {
            arm: 0,
            to: s("late")
        }),
        "a send arm to an expected peer fires once it is active and offers"
    );
    assert_eq!(offer.join().unwrap(), Ok(5));
    let b = net.port(s("b")).unwrap();
    assert_eq!(
        b.try_recv_from(&s("d")),
        Ok(None),
        "nothing is deposited with an expected peer"
    );
    let before = net.activity();
    net.activate(s("b"));
    // The activation is one step; the deposit, once b is active, the
    // other.
    await_cond("the deposit to b once active", || {
        net.activity() >= before + 2
    });
    assert_eq!(b.recv_from_deadline(&s("d"), far()), Ok(6));
    assert_eq!(
        blocked.join().unwrap(),
        Ok(()),
        "a blocking send to an expected peer completes after its activation"
    );

    let net = net_of(factory(44));
    net.activate(s("a"));
    net.activate(s("b"));
    net.declare(s("ghost"));
    let recv = parked(&net, "a", vec![Arm::recv_from(s("ghost"))]);
    let b = net.port(s("b")).unwrap();
    let send = thread::spawn(move || b.send_deadline(&s("ghost"), 7, far()));
    thread::sleep(Duration::from_millis(20));
    net.seal();
    assert_eq!(
        recv.join().unwrap(),
        Err(ChanError::Terminated(s("ghost"))),
        "a seal ends a receive from a never-enrolled peer"
    );
    assert_eq!(
        send.join().unwrap(),
        Err(ChanError::Terminated(s("ghost"))),
        "and a send to one"
    );

    let net = net_of(factory(45));
    for id in ["a", "b", "c"] {
        net.activate(s(id));
    }
    net.declare(s("late"));
    let waits = [
        parked(&net, "a", vec![Arm::recv_from(s("b"))]),
        parked(&net, "b", vec![Arm::watch(s("c")), Arm::send(s("late"), 8)]),
    ];
    let c = net.port(s("c")).unwrap();
    let send = thread::spawn(move || c.send_deadline(&s("late"), 9, far()));
    thread::sleep(Duration::from_millis(20));
    net.abort();
    for wait in waits {
        assert_eq!(
            wait.join().unwrap(),
            Err(ChanError::Aborted),
            "abort ends every wait"
        );
    }
    assert_eq!(send.join().unwrap(), Err(ChanError::Aborted));
}

/// Abort: blocked operations unblock with `Aborted` and future
/// operations fail the same way.
pub fn check_abort_unblocks(factory: TransportFactory<'_>) {
    let net = net_of(factory(15));
    net.activate(s("a"));
    net.activate(s("b"));
    let b = net.port(s("b")).unwrap();
    let h = thread::spawn(move || b.recv_from_deadline(&s("a"), far()));
    thread::sleep(Duration::from_millis(30));
    net.abort();
    assert_eq!(h.join().unwrap(), Err(ChanError::Aborted));
    let a = net.port(s("a")).unwrap();
    assert_eq!(a.send_deadline(&s("b"), 1, far()), Err(ChanError::Aborted));
    assert!(net.is_aborted());
}

/// Crash surfacing: a plan-selected victim fails its own operation with
/// `Terminated(self)`, reads as `Done`, unblocks partners waiting on
/// it, and pushes a `Crash` record to the fault observer.
pub fn check_crash_surfacing(factory: TransportFactory<'_>) {
    // Pick a seed whose victim set is exactly {a}. Decisions are pure
    // functions of (seed, peer), so this probe costs nothing.
    let probe = |seed: u64| FaultPlan::new(seed).with_crash(0.5, 2);
    let seed = (0..10_000u64)
        .find(|&sd| {
            let p = probe(sd);
            p.decide_crash(&s("a")) && !p.decide_crash(&s("b")) && !p.decide_crash(&s("w"))
        })
        .expect("a seed selecting exactly peer a exists");
    let net = net_of(factory(1));
    for id in ["a", "b", "w"] {
        net.activate(s(id));
    }
    let faults = collect_faults(&net);
    net.set_fault_plan(probe(seed));
    let w = net.port(s("w")).unwrap();
    let wh = thread::spawn(move || w.recv_from_deadline(&s("a"), far()));
    let b = net.port(s("b")).unwrap();
    let bh = thread::spawn(move || b.recv_from_deadline(&s("a"), far()));
    let a = net.port(s("a")).unwrap();
    a.send_deadline(&s("b"), 1, far()).unwrap();
    assert_eq!(bh.join().unwrap(), Ok(1));
    assert_eq!(
        a.send_deadline(&s("b"), 2, far()),
        Err(ChanError::Terminated(s("a"))),
        "the victim's crash-step operation fails with Terminated(self)"
    );
    assert_eq!(net.peer_state(&s("a")), Some(PeerState::Done));
    assert_eq!(
        wh.join().unwrap(),
        Err(ChanError::Terminated(s("a"))),
        "a partner blocked on the victim must unblock with Terminated"
    );
    assert!(
        faults
            .lock()
            .unwrap()
            .iter()
            .any(|r| r.kind == FaultKind::Crash && r.from == s("a")),
        "the crash must be pushed to the fault observer"
    );
}

/// Fault-plan plumbing: an attached plan reads back equal (all fault
/// classes and probabilities survive the transport boundary), attaching
/// injects nothing by itself, and clearing detaches it.
pub fn check_fault_plan_roundtrip(factory: TransportFactory<'_>) {
    let net = net_of(factory(17));
    net.activate(s("a"));
    net.activate(s("b"));
    assert_eq!(net.fault_plan(), None);
    let faults = collect_faults(&net);
    let plan = FaultPlan::new(21)
        .with_drop(0.25)
        .with_delay(0.5, Duration::from_micros(300))
        .with_duplicate(0.1)
        .with_crash(0.4, 3);
    net.set_fault_plan(plan.clone());
    assert_eq!(
        net.fault_plan(),
        Some(plan),
        "an attached plan must read back unchanged"
    );
    assert!(faults.lock().unwrap().is_empty());
    net.clear_fault_plan();
    assert_eq!(net.fault_plan(), None);
}

/// Fault determinism: the same seed and communication schedule produce
/// byte-identical fault record streams on two independent runs.
pub fn check_fault_determinism(factory: TransportFactory<'_>) {
    let one = chaos_schedule_log(factory);
    let two = chaos_schedule_log(factory);
    assert!(
        !one.is_empty(),
        "the reference chaos schedule injects at least one fault"
    );
    assert_eq!(
        one, two,
        "the same seed and schedule must replay the same fault log"
    );
}

/// Runs the reference chaos schedule — 24 sequential sends on one edge
/// under a fixed drop/delay/duplicate plan — and returns the rendered
/// fault records, as pushed to the fault observer.
///
/// Because injection decisions are made at the sending edge as pure
/// functions of (seed, edge, sequence), the returned log is identical
/// for *any* conforming transport: callers compare it across backends
/// to prove chaos seeds replay across process boundaries.
pub fn chaos_schedule_log(factory: TransportFactory<'_>) -> Vec<String> {
    let net = net_of(factory(23));
    net.activate(s("a"));
    net.activate(s("b"));
    let faults = collect_faults(&net);
    net.set_fault_plan(
        FaultPlan::new(29)
            .with_drop(0.35)
            .with_delay(0.2, Duration::from_micros(100))
            .with_duplicate(0.25),
    );
    let rx = drain_b(&net);
    let a = net.port(s("a")).unwrap();
    for k in 0..24u64 {
        a.send_deadline(&s("b"), k, far())
            .expect("receiver drains continuously");
    }
    net.finish(s("a"));
    let _ = rx.join().unwrap();
    rendered(&faults)
}

/// Session resumption: under a seeded sever schedule — where a
/// connection-oriented transport's hub tears down the carrying
/// connection mid-run and the spoke must reconnect, resume its session
/// and replay un-acked requests — every message still arrives exactly
/// once and in order, and the fault record stream is a deterministic
/// function of the seed. On the in-process transport sever records are
/// injected at the same points but enacting them is a no-op, so the
/// check holds the two backends to the same observable contract.
pub fn check_session_resumption(factory: TransportFactory<'_>) {
    let run = || {
        let net = net_of(factory(53));
        net.activate(s("a"));
        net.activate(s("b"));
        let faults = collect_faults(&net);
        net.set_fault_plan(FaultPlan::new(59).with_sever(0.25));
        let rx = drain_b(&net);
        let a = net.port(s("a")).unwrap();
        for k in 0..24u64 {
            a.send_deadline(&s("b"), k, far())
                .expect("sever within the lease must not lose the send");
        }
        net.finish(s("a"));
        let got = rx.join().unwrap();
        (got, rendered(&faults))
    };
    let (got, log) = run();
    assert_eq!(
        got,
        (0..24).collect::<Vec<u64>>(),
        "every message must arrive exactly once, in order, across severs"
    );
    assert!(
        log.iter().any(|r| r.contains("sever")),
        "the reference sever schedule must inject at least one sever: {log:?}"
    );
    let (got2, log2) = run();
    assert_eq!(got, got2, "sever/resume delivery must be deterministic");
    assert_eq!(log, log2, "the sever schedule must replay bit-for-bit");
}

/// Lease semantics must not mask real death: when the peer is already
/// `Done`, a send that draws a sever must still surface
/// [`ChanError::Terminated`] promptly — resumption recovers connections,
/// never finished peers.
pub fn check_lease_expiry(factory: TransportFactory<'_>) {
    let net = net_of(factory(61));
    net.activate(s("a"));
    net.activate(s("b"));
    let faults = collect_faults(&net);
    net.set_fault_plan(FaultPlan::new(67).with_sever(1.0));
    net.finish(s("b"));
    let a = net.port(s("a")).unwrap();
    let start = Instant::now();
    let err = a
        .send_deadline(&s("b"), 7, far())
        .expect_err("the peer is finished; resumption must not revive it");
    assert_eq!(err, ChanError::Terminated(s("b")));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "termination must surface promptly, not wait out a lease"
    );
    assert!(
        faults
            .lock()
            .unwrap()
            .iter()
            .any(|r| r.kind == FaultKind::Sever),
        "a certain sever plan must record the sever"
    );
}

/// Runs the reference sever/resume schedule — 16 sequential sends on
/// one edge under a certain-delay + seeded-sever plan — and returns the
/// merged observer stream.
///
/// Unlike [`merged_event_stream`], the *full* interleaving of fault
/// records and send samples is **not** compared across transports: over
/// a socket a response write races the resumed session's event replay.
/// Callers instead compare the fault-record subsequence (which is
/// push-ordered and deduplicated by sequence number across resumes) and
/// the count of successful sends.
pub fn sever_resume_event_stream(factory: TransportFactory<'_>) -> Vec<String> {
    let net = net_of(factory(71));
    net.activate(s("a"));
    net.activate(s("b"));
    let log = merged_log(&net);
    net.set_fault_plan(
        FaultPlan::new(73)
            .with_delay(1.0, Duration::from_micros(50))
            .with_sever(0.3),
    );
    let rx = drain_b(&net);
    let a = net.port(s("a")).unwrap();
    for k in 0..16u64 {
        a.send_deadline(&s("b"), k, far())
            .expect("receiver drains continuously across severs");
    }
    net.finish(s("a"));
    rx.join().unwrap();
    let stream = log.lock().unwrap().clone();
    stream
}

/// Sever-stream parity: the fault-record subsequence of the reference
/// sever/resume schedule — the part a resumed session must deliver
/// gaplessly, exactly once — and the successful-send count are
/// identical across the two factories' transports.
pub fn check_sever_stream_parity(one: TransportFactory<'_>, two: TransportFactory<'_>) {
    let a = sever_resume_event_stream(one);
    let b = sever_resume_event_stream(two);
    assert!(
        faults_of(&a).iter().any(|e| e.contains("sever")),
        "the reference sever schedule streams at least one sever record: {a:?}"
    );
    assert_eq!(
        faults_of(&a),
        faults_of(&b),
        "fault records must stream identically — gapless and exactly once — across resumes"
    );
    assert_eq!(
        sends_of(&a),
        sends_of(&b),
        "every send must succeed exactly once on both transports"
    );
    assert_eq!(sends_of(&a), 16, "all sixteen sends must complete");
}

/// The reference open-family churn schedule: a member that enrolls
/// mid-performance, rendezvouses once, and departs, under sever+delay
/// chaos. Returns the merged stream of lifecycle markers, fault
/// records, and successful-send samples. Every logged operation runs
/// on the calling thread, so the stream is a deterministic function of
/// the transport's seeded chaos schedule alone.
pub fn open_family_churn_stream(factory: TransportFactory<'_>) -> Vec<String> {
    let net = net_of(factory(83));
    net.activate(s("seeder"));
    net.activate(s("member0"));
    net.declare(s("late"));
    let log = merged_log(&net);
    net.set_fault_plan(
        FaultPlan::new(89)
            .with_delay(1.0, Duration::from_micros(50))
            .with_sever(0.3),
    );
    let m0 = net.port(s("member0")).unwrap();
    let rx0 = thread::spawn(move || while m0.recv_from_deadline(&s("seeder"), far()).is_ok() {});
    let seeder = net.port(s("seeder")).unwrap();
    // The performance is under way before the late member enrolls.
    for k in 0..6u64 {
        seeder
            .send_deadline(&s("member0"), k, far())
            .expect("dissemination proceeds across severs");
    }
    log.lock().unwrap().push(s("late enrolls"));
    net.activate(s("late"));
    let late = net.port(s("late")).unwrap();
    let rx_late = thread::spawn(move || late.recv_from_deadline(&s("seeder"), far()));
    assert_eq!(
        seeder.send_deadline(&s("late"), 100, far()),
        Ok(()),
        "the late member rendezvouses exactly once"
    );
    assert_eq!(rx_late.join().unwrap(), Ok(100));
    log.lock().unwrap().push(s("late departs"));
    net.finish(s("late"));
    // A push to the departed member surfaces Terminated, and the watch
    // arm — the paper's r.terminated — fires.
    assert_eq!(
        seeder.send_deadline(&s("late"), 101, far()),
        Err(ChanError::Terminated(s("late"))),
        "a departed member must surface Terminated, not block"
    );
    log.lock().unwrap().push(s("push to departed: terminated"));
    match seeder.select_deadline(vec![Arm::watch(s("late"))], far()) {
        Ok(Outcome::Terminated { arm: 0, ref peer }) if *peer == s("late") => {
            log.lock().unwrap().push(s("r.terminated observed"));
        }
        other => panic!("watch on a departed member must fire: {other:?}"),
    }
    // Dissemination to the remaining live cast continues unharmed.
    for k in 6..12u64 {
        seeder
            .send_deadline(&s("member0"), k, far())
            .expect("survivors keep disseminating after the departure");
    }
    net.finish(s("seeder"));
    rx0.join().unwrap();
    let stream = log.lock().unwrap().clone();
    stream
}

/// Open-family churn parity: the reference enroll/rendezvous/depart
/// schedule leaves identical event streams on both factories'
/// transports — the chaos fault-record subsequence, the lifecycle
/// markers, and the successful-send count all match. (As in
/// [`check_sever_stream_parity`], the merged interleaving is not
/// compared: across a sever, a resumed session may deliver the severed
/// operation's latency sample after the next operation's fault
/// records.)
pub fn check_open_family_churn(one: TransportFactory<'_>, two: TransportFactory<'_>) {
    let a = open_family_churn_stream(one);
    let b = open_family_churn_stream(two);
    let markers_of = |st: &[String]| -> Vec<String> {
        st.iter()
            .filter(|e| !e.starts_with("fault") && *e != "send ok")
            .cloned()
            .collect()
    };
    assert!(
        faults_of(&a).iter().any(|e| e.contains("sever")),
        "the reference churn schedule streams at least one sever record: {a:?}"
    );
    assert_eq!(
        markers_of(&a),
        vec![
            s("late enrolls"),
            s("late departs"),
            s("push to departed: terminated"),
            s("r.terminated observed"),
        ],
        "the enroll/rendezvous/depart lifecycle must run to completion"
    );
    assert_eq!(
        faults_of(&a),
        faults_of(&b),
        "the churn schedule's fault records must stream identically on both transports"
    );
    assert_eq!(
        markers_of(&a),
        markers_of(&b),
        "the enroll/depart lifecycle must be identical on both transports"
    );
    assert_eq!(
        sends_of(&a),
        sends_of(&b),
        "every push must land exactly once on both transports"
    );
    assert_eq!(
        sends_of(&a),
        13,
        "all twelve member0 pushes plus the late rendezvous must land exactly once"
    );
}

/// Latency reporting: lifecycle calls push no samples; successful
/// rendezvous push `Send` and `Select` samples to the latency observer;
/// and a plan-injected delay is visible in the reported elapsed times
/// (the watchdog's adaptive-window contract).
pub fn check_latency_reporting(factory: TransportFactory<'_>) {
    let net = net_of(factory(19));
    let samples = collect_latency(&net);
    net.activate(s("a"));
    net.activate(s("b"));
    assert!(
        samples.lock().unwrap().is_empty(),
        "lifecycle calls must report no latency samples"
    );
    let b = net.port(s("b")).unwrap();
    let rx = thread::spawn(move || {
        for _ in 0..8u64 {
            b.select_deadline(vec![Arm::recv_from(s("a"))], far())
                .unwrap();
        }
    });
    let a = net.port(s("a")).unwrap();
    for k in 0..8u64 {
        a.send_deadline(&s("b"), k, far()).unwrap();
    }
    rx.join().unwrap();
    let count_of = |op| {
        let seen = samples.lock().unwrap();
        seen.iter().filter(|x| x.op == op).count()
    };
    let (sends, selects) = (count_of(LatencyOp::Send), count_of(LatencyOp::Select));
    assert!(
        sends >= 8,
        "8 successful sends must each leave a Send sample, got {sends}"
    );
    assert!(
        selects >= 8,
        "8 successful selections must each leave a Select sample, got {selects}"
    );
    samples.lock().unwrap().clear();
    // A certain (probability-1) injected delay must show up in the
    // observed latency of the operation that paid for it.
    let delay = Duration::from_millis(20);
    net.set_fault_plan(FaultPlan::new(31).with_delay(1.0, delay));
    let b = net.port(s("b")).unwrap();
    let rx = thread::spawn(move || b.recv_from_deadline(&s("a"), far()));
    a.send_deadline(&s("b"), 99, far()).unwrap();
    assert_eq!(rx.join().unwrap(), Ok(99));
    let slow = samples
        .lock()
        .unwrap()
        .iter()
        .map(|x| x.elapsed)
        .max()
        .expect("the delayed rendezvous leaves samples");
    assert!(
        slow >= delay,
        "an injected {delay:?} delay must be visible in latency samples, max was {slow:?}"
    );
}

/// Runs a fixed drop+delay chaos schedule — 16 sends on one edge, the
/// receiver draining until the sender finishes — and returns the
/// per-operation sample counts (sorted by op) plus the largest elapsed
/// time observed.
///
/// Drop and delay decisions are pure functions of (seed, edge,
/// sequence) and the schedule is fully sequential, so the *counts* are
/// identical for any conforming transport; callers compare them across
/// backends to prove both attribute latency to the same operations.
/// (Duplication is deliberately excluded: redelivery is best-effort and
/// timing-dependent, so it would make counts nondeterministic.)
pub fn latency_sample_profile(
    factory: TransportFactory<'_>,
) -> (Vec<(LatencyOp, usize)>, Duration) {
    let delay = Duration::from_millis(2);
    let net = net_of(factory(37));
    let samples = collect_latency(&net);
    net.activate(s("a"));
    net.activate(s("b"));
    net.set_fault_plan(FaultPlan::new(41).with_drop(0.35).with_delay(1.0, delay));
    let rx = drain_b(&net);
    let a = net.port(s("a")).unwrap();
    for k in 0..16u64 {
        a.send_deadline(&s("b"), k, far())
            .expect("receiver drains continuously");
    }
    net.finish(s("a"));
    let _ = rx.join().unwrap();
    let samples = samples.lock().unwrap().clone();
    let max = samples
        .iter()
        .map(|x| x.elapsed)
        .max()
        .unwrap_or(Duration::ZERO);
    let mut counts: HashMap<LatencyOp, usize> = HashMap::new();
    for sample in &samples {
        *counts.entry(sample.op).or_insert(0) += 1;
    }
    let mut counts: Vec<(LatencyOp, usize)> = counts.into_iter().collect();
    counts.sort();
    assert!(
        max >= delay,
        "the certain injected delay must dominate the slowest sample"
    );
    (counts, max)
}

/// Runs a fixed delay-only chaos schedule — 16 serial sends on one edge
/// with a 0.5-probability injected delay, the receiver draining until
/// the sender finishes — and returns the merged *push-delivered* event
/// stream: fault records and sender-side `Send` latency samples, in
/// arrival order, rendered with timestamps elided.
///
/// The schedule is deliberately drop-free (the protocol never stalls)
/// and fully serial on the sending side, and both the in-process
/// transport and the socket transport deliver an operation's fault
/// record *before* that operation's success sample (in process the same
/// thread emits both; over TCP the hub writes the event push frame
/// before the response, and the client's serial reader dispatches in
/// frame order). Receiver-side samples are excluded: they race with the
/// sender's. The stream is therefore identical for any conforming
/// transport.
pub fn merged_event_stream(factory: TransportFactory<'_>) -> Vec<String> {
    let net = net_of(factory(43));
    net.activate(s("a"));
    net.activate(s("b"));
    let log = merged_log(&net);
    net.set_fault_plan(FaultPlan::new(47).with_delay(0.5, Duration::from_micros(200)));
    let rx = drain_b(&net);
    let a = net.port(s("a")).unwrap();
    for k in 0..16u64 {
        a.send_deadline(&s("b"), k, far())
            .expect("receiver drains continuously");
    }
    net.finish(s("a"));
    rx.join().unwrap();
    let stream = log.lock().unwrap().clone();
    stream
}

/// Event-stream parity: the merged observer-delivered event stream of
/// the reference delay schedule — fault records interleaved with send
/// samples — is identical (modulo timestamps, which the rendering
/// elides) across the two factories' transports.
pub fn check_event_stream_parity(one: TransportFactory<'_>, two: TransportFactory<'_>) {
    let a = merged_event_stream(one);
    let b = merged_event_stream(two);
    assert!(
        !a.is_empty(),
        "the reference delay schedule produces observer events"
    );
    assert!(
        a.iter().any(|e| e.starts_with("fault")),
        "the reference delay schedule streams at least one fault record: {a:?}"
    );
    assert!(
        a.iter().any(|e| e == "send ok"),
        "every successful send leaves a sample in the stream: {a:?}"
    );
    assert_eq!(
        a, b,
        "both transports must deliver the same merged event stream"
    );
}

/// Pipelining: one transport instance carries many concurrent blocking
/// operations at once — several sender roles each with a deep stream of
/// sends in flight, plus interleaved selections — and every rendezvous
/// completes exactly once. On a socket transport this is the
/// many-outstanding-requests-per-connection path: correlation ids must
/// route out-of-order hub answers back to the right callers.
pub fn check_pipelined_calls(factory: TransportFactory<'_>) {
    const SENDERS: u64 = 8;
    const PER_SENDER: u64 = 24;
    let t = factory(31);
    t.declare(s("sink"));
    t.activate(s("sink"));
    for i in 0..SENDERS {
        t.declare(s(&format!("p{i}")));
        t.activate(s(&format!("p{i}")));
    }
    thread::scope(|scope| {
        for i in 0..SENDERS {
            let t = Arc::clone(&t);
            scope.spawn(move || {
                let me = s(&format!("p{i}"));
                for k in 0..PER_SENDER {
                    // Alternate plain sends and send-arm selections so
                    // both blocking entry points pipeline.
                    if k % 2 == 0 {
                        t.send(&me, &s("sink"), i * PER_SENDER + k, far()).unwrap();
                    } else {
                        let got = t
                            .select(&me, vec![Arm::send(s("sink"), i * PER_SENDER + k)], far())
                            .unwrap();
                        assert!(matches!(got, Outcome::Sent { .. }));
                    }
                }
            });
        }
        let t = Arc::clone(&t);
        scope.spawn(move || {
            let mut seen: HashMap<String, Vec<u64>> = HashMap::new();
            for _ in 0..SENDERS * PER_SENDER {
                match t.select(&s("sink"), vec![Arm::recv_any()], far()).unwrap() {
                    Outcome::Received { from, msg, .. } => {
                        seen.entry(from).or_default().push(msg);
                    }
                    other => panic!("pipelined sink: unexpected outcome {other:?}"),
                }
            }
            for i in 0..SENDERS {
                let vals = &seen[&s(&format!("p{i}"))];
                let want: Vec<u64> = (0..PER_SENDER).map(|k| i * PER_SENDER + k).collect();
                assert_eq!(
                    vals, &want,
                    "pipelined sends from p{i} must arrive exactly once, in order"
                );
            }
        });
    });
}

/// The reference message labeler of the monitored-protocol schedule:
/// even payloads are `ping`s, odd payloads are `pong`s.
///
/// A plain `fn` so it crosses the transport seam; a hub-backed factory
/// must install the *same* labeler on its server
/// (`TransportServer::set_message_labeler`) — spokes forward opaque
/// messages, so labels are extracted where delivery happens.
pub fn reference_label(m: &u64) -> Option<String> {
    Some(if m.is_multiple_of(2) { "ping" } else { "pong" }.to_string())
}

/// How the reference monitored-protocol schedule deviates from its
/// protocol, if at all. Each variant is one of the classic misbehaving
/// roles a runtime conformance monitor must flag: a message to the
/// wrong peer, a mislabeled message, a message the protocol never
/// prescribed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehavior {
    /// Follow the protocol exactly.
    None,
    /// The final `ping` goes to `b` instead of `c`.
    WrongPeer,
    /// The final `ping` is sent with a `pong` payload.
    WrongLabel,
    /// A fifth exchange the protocol does not contain.
    ExtraSend,
}

/// The rendezvous trace the conforming reference schedule must
/// produce, in observation order, with per-edge delivery counters.
pub const REFERENCE_TRACE: [&str; 6] = [
    "rendezvous \"a\" -> \"b\" [ping] #0",
    "rendezvous \"b\" -> \"a\" [pong] #0",
    "rendezvous \"a\" -> \"b\" [ping] #1",
    "rendezvous \"b\" -> \"a\" [pong] #1",
    "rendezvous \"a\" -> \"c\" [ping] #0",
    "rendezvous \"c\" -> \"a\" [pong] #0",
];

/// Runs the reference monitored-protocol schedule — a strictly serial
/// ping/pong protocol (two rounds with `b`, one with `c`), optionally
/// deviating per `misbehavior` — and returns the rendered rendezvous
/// record stream in observation order.
///
/// The schedule is serial (role `a` never starts an exchange before
/// the previous one completed) and records are emitted at delivery
/// (the claim, or else the pickup), under the receiving endpoint's
/// lock, *before* the sender's blocked operation returns — so the global observation order is a pure
/// function of the schedule: identical across runs and across
/// conforming transports. That is what lets a conformance monitor
/// report the same first-divergence position everywhere.
pub fn monitored_rendezvous_trace(
    factory: TransportFactory<'_>,
    misbehavior: Misbehavior,
) -> Vec<String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let net = net_of(factory(79));
    for id in ["a", "b", "c"] {
        net.activate(s(id));
    }
    {
        let log = Arc::clone(&log);
        net.observe(Observers {
            rendezvous: Some((
                Arc::new(move |rec| log.lock().unwrap().push(rec.to_string())),
                reference_label,
            )),
            ..Observers::default()
        });
    }
    let responder = |who: &str| {
        let p = net.port(s(who)).unwrap();
        thread::spawn(move || {
            while let Ok(v) = p.recv_from_deadline(&s("a"), far()) {
                p.send_deadline(&s("a"), v + 1, far()).unwrap();
            }
        })
    };
    let hb = responder("b");
    let hc = responder("c");
    let a = net.port(s("a")).unwrap();
    let exchange = |peer: &str, msg: u64| {
        a.send_deadline(&s(peer), msg, far()).unwrap();
        a.recv_from_deadline(&s(peer), far()).unwrap();
    };
    exchange("b", 0);
    exchange("b", 2);
    match misbehavior {
        Misbehavior::None => exchange("c", 4),
        Misbehavior::WrongPeer => exchange("b", 4),
        Misbehavior::WrongLabel => exchange("c", 5),
        Misbehavior::ExtraSend => {
            exchange("c", 4);
            exchange("b", 6);
        }
    }
    net.finish(s("a"));
    hb.join().unwrap();
    hc.join().unwrap();
    let trace = log.lock().unwrap().clone();
    trace
}

/// Index of the first position where `got` deviates from the
/// conforming [`REFERENCE_TRACE`] — the chan-level analogue of a
/// conformance monitor's first-divergence verdict.
pub fn first_divergence(got: &[String]) -> Option<usize> {
    (0..got.len().max(REFERENCE_TRACE.len()))
        .find(|&i| got.get(i).map(String::as_str) != REFERENCE_TRACE.get(i).copied())
}

/// Protocol monitoring: the rendezvous observer reports every
/// completed rendezvous exactly once, in schedule order, with gapless
/// per-edge delivery counters and labeler-extracted labels — and each
/// reference misbehavior (wrong peer, wrong label, extra send)
/// diverges from the conforming trace at a fixed, reproducible
/// position. This is the contract `script-proto`'s runtime
/// `ConformanceMonitor` builds its verdicts on.
pub fn check_protocol_monitoring(factory: TransportFactory<'_>) {
    let conforming = monitored_rendezvous_trace(factory, Misbehavior::None);
    assert_eq!(
        conforming,
        REFERENCE_TRACE.map(str::to_string).to_vec(),
        "the conforming schedule must observe exactly the reference trace"
    );
    assert_eq!(first_divergence(&conforming), None);
    for (misbehavior, want) in [
        (Misbehavior::WrongPeer, 4),
        (Misbehavior::WrongLabel, 4),
        (Misbehavior::ExtraSend, 6),
    ] {
        let got = monitored_rendezvous_trace(factory, misbehavior);
        assert_eq!(
            first_divergence(&got),
            Some(want),
            "{misbehavior:?} must diverge first at position {want}: {got:?}"
        );
        let again = monitored_rendezvous_trace(factory, misbehavior);
        assert_eq!(
            got, again,
            "{misbehavior:?} must observe the same trace on every run"
        );
    }
}

/// Monitoring parity: for the conforming schedule and every reference
/// misbehavior, the two factories' transports observe byte-identical
/// rendezvous traces — so a conformance monitor reaches the same
/// verdict, at the same first-divergence position, wherever the
/// performance runs.
pub fn check_monitoring_parity(one: TransportFactory<'_>, two: TransportFactory<'_>) {
    for misbehavior in [
        Misbehavior::None,
        Misbehavior::WrongPeer,
        Misbehavior::WrongLabel,
        Misbehavior::ExtraSend,
    ] {
        let a = monitored_rendezvous_trace(one, misbehavior);
        let b = monitored_rendezvous_trace(two, misbehavior);
        assert_eq!(
            first_divergence(&a),
            first_divergence(&b),
            "{misbehavior:?}: both transports must diverge at the same position"
        );
        assert_eq!(
            a, b,
            "{misbehavior:?}: both transports must observe the same rendezvous trace"
        );
    }
}

/// Runs every check in the suite against the factory.
pub fn run_all(factory: TransportFactory<'_>) {
    check_lifecycle(factory);
    check_edge_fifo_ordering(factory);
    check_select_fairness(factory);
    check_send_claim(factory);
    check_deadlines(factory);
    check_termination_surfacing(factory);
    check_watch_drains_before_firing(factory);
    check_seal_bars_expected_peers(factory);
    check_cast_matches_steps(factory);
    check_lifecycle_wakes(factory);
    check_abort_unblocks(factory);
    check_crash_surfacing(factory);
    check_fault_plan_roundtrip(factory);
    check_fault_determinism(factory);
    check_latency_reporting(factory);
    check_event_stream_parity(factory, factory);
    check_session_resumption(factory);
    check_lease_expiry(factory);
    check_sever_stream_parity(factory, factory);
    check_pipelined_calls(factory);
    check_protocol_monitoring(factory);
    check_open_family_churn(factory, factory);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ShardedTransport;

    fn sharded(seed: u64) -> ConformanceTransport {
        Arc::new(ShardedTransport::new(false, Some(seed)))
    }

    #[test]
    fn sharded_transport_conforms() {
        run_all(&sharded);
    }

    #[test]
    fn sharded_chaos_schedule_is_stable() {
        assert_eq!(chaos_schedule_log(&sharded), chaos_schedule_log(&sharded));
    }

    #[test]
    fn sharded_event_stream_is_stable() {
        check_event_stream_parity(&sharded, &sharded);
    }
}
