//! Asynchronous submit_send/submit_select state machines.
//!
//! These drive `ShardedTransport` through the nonblocking submission
//! API directly (the socket hub is its main consumer) and check that
//! the completions observe exactly the results the blocking calls would
//! have returned — rendezvous completion at pickup, timeouts that
//! reclaim deposits, termination errors, chaos determinism — each
//! answered once, under its own tag, a selection's arm list handed back
//! whatever the result; and where completions run: on the thread that made the op runnable when that
//! is a submission, a `cast`, an `abort` or a `try_recv`; on the
//! transport's one scheduler thread — which starts only when there
//! first is a timer or such an orphaned op — otherwise, and nowhere
//! else.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use script_chan::{
    Arm, CastStep, ChanError, Complete, Completion, FaultPlan, FaultRecord, Observers, Outcome,
    PeerState, ShardedTransport, Transport,
};

type T = Arc<ShardedTransport<&'static str, u32>>;
type E = ChanError<&'static str>;
type Done = Completion<&'static str, u32>;
type Arms = Vec<Arm<&'static str, u32>>;
type Selected = Result<Outcome<&'static str, u32>, E>;

/// A send's completion that runs a closure on its result.
struct Once<F>(Mutex<Option<F>>);

impl<F: FnOnce(Result<(), E>) + Send> Complete<&'static str, u32> for Once<F> {
    fn sent(&self, _: u64, result: Result<(), E>) {
        let f = self.0.lock().unwrap().take();
        f.expect("answered once")(result);
    }
    fn selected(&self, _: u64, _: Selected, _: Arms) {
        panic!("a send answered as a selection");
    }
}

/// [`Once`] for a selection, which gets its arms back too.
struct OnceSelected<F>(Mutex<Option<F>>);

impl<F: FnOnce(Selected) + Send> Complete<&'static str, u32> for OnceSelected<F> {
    fn sent(&self, _: u64, _: Result<(), E>) {
        panic!("a selection answered as a send");
    }
    fn selected(&self, _: u64, result: Selected, _: Arms) {
        let f = self.0.lock().unwrap().take();
        f.expect("answered once")(result);
    }
}

fn on_sent(f: impl FnOnce(Result<(), E>) + Send + 'static) -> Done {
    Completion {
        to: Arc::new(Once(Mutex::new(Some(f)))),
        tag: 0,
    }
}

fn on_selected(f: impl FnOnce(Selected) + Send + 'static) -> Done {
    Completion {
        to: Arc::new(OnceSelected(Mutex::new(Some(f)))),
        tag: 0,
    }
}

fn fresh() -> T {
    let t = Arc::new(ShardedTransport::new(false, Some(7)));
    for who in ["a", "b", "c"] {
        t.declare(who);
        t.activate(who);
    }
    t
}

fn far() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(5))
}

/// What a [`Recorder`] was answered.
#[derive(Debug)]
enum Answer {
    Sent(u64, Result<(), E>),
    Selected(u64, Selected, Arms),
}

/// One receiver standing for many operations, as a hub's session does:
/// every answer goes to the test, tag and all.
struct Recorder(Mutex<mpsc::Sender<Answer>>);

impl Complete<&'static str, u32> for Recorder {
    fn sent(&self, tag: u64, result: Result<(), E>) {
        let _ = self.0.lock().unwrap().send(Answer::Sent(tag, result));
    }
    fn selected(&self, tag: u64, result: Selected, arms: Arms) {
        let _ = self
            .0
            .lock()
            .unwrap()
            .send(Answer::Selected(tag, result, arms));
    }
}

fn recorder() -> (Arc<Recorder>, mpsc::Receiver<Answer>) {
    let (tx, rx) = mpsc::channel();
    (Arc::new(Recorder(Mutex::new(tx))), rx)
}

/// Blocking receive of one message from `from`, via a select.
fn recv(
    t: &T,
    me: &'static str,
    from: &'static str,
    deadline: Option<Instant>,
) -> Result<u32, ChanError<&'static str>> {
    match t.select(&me, vec![Arm::recv_from(from)], deadline)? {
        Outcome::Received { msg, .. } => Ok(msg),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

/// A send submitted before any receiver is waiting completes only once
/// the message is picked up — rendezvous, not buffering.
#[test]
fn async_send_completes_at_pickup() {
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"b",
        42,
        far(),
        on_sent(move |r| tx.send(r).unwrap()),
    )
    .expect("sharded transport supports async submission");
    // The deposit parks: nothing completes until the receiver takes it.
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    assert_eq!(recv(&t, "b", "a", far()).unwrap(), 42);
    rx.recv_timeout(Duration::from_secs(5))
        .expect("callback fires")
        .expect("send succeeds");
}

/// Many pipelined sends from one submitter all land, in order, with no
/// caller thread blocked.
#[test]
fn async_sends_pipeline_in_order() {
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    for v in 0..64u32 {
        let tx = tx.clone();
        Transport::submit_send(
            Arc::clone(&t),
            &"a",
            &"b",
            v,
            far(),
            on_sent(move |r| tx.send((v, r)).unwrap()),
        )
        .expect("async submission");
    }
    for v in 0..64u32 {
        assert_eq!(recv(&t, "b", "a", far()).unwrap(), v);
    }
    let mut done: Vec<u32> = (0..64)
        .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
        .map(|(v, r)| {
            r.expect("send succeeds");
            v
        })
        .collect();
    done.sort_unstable();
    assert_eq!(done, (0..64).collect::<Vec<_>>());
}

/// An async select with a receive arm completes when a message shows up.
#[test]
fn async_select_receives() {
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    Transport::submit_select(
        Arc::clone(&t),
        &"b",
        vec![Arm::recv_any()],
        far(),
        on_selected(move |r| tx.send(r).unwrap()),
    )
    .expect("async submission");
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    t.send(&"a", &"b", 9, far()).unwrap();
    match rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap() {
        Outcome::Received { from, msg, .. } => {
            assert_eq!(from, "a");
            assert_eq!(msg, 9);
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
}

/// An async select with a send arm fires by claiming a committed
/// receiver, same as the blocking path.
#[test]
fn async_select_send_arm_claims() {
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    Transport::submit_select(
        Arc::clone(&t),
        &"a",
        vec![Arm::send("b", 5)],
        far(),
        on_selected(move |r| tx.send(r).unwrap()),
    )
    .expect("async submission");
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    assert_eq!(recv(&t, "b", "a", far()).unwrap(), 5);
    match rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap() {
        Outcome::Sent { to, .. } => assert_eq!(to, "b"),
        other => panic!("unexpected outcome: {other:?}"),
    }
}

/// Timeouts reclaim an un-picked-up deposit: after the async send times
/// out, a fresh blocking send can deposit for the same edge.
#[test]
fn async_send_timeout_reclaims_deposit() {
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"b",
        1,
        Some(Instant::now() + Duration::from_millis(50)),
        on_sent(move |r| tx.send(r).unwrap()),
    )
    .expect("async submission");
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Err(ChanError::Timeout) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    // The slot was reclaimed: a new rendezvous on the same edge works.
    let t2 = Arc::clone(&t);
    let h = std::thread::spawn(move || recv(&t2, "b", "a", far()));
    t.send(&"a", &"b", 2, far()).unwrap();
    assert_eq!(h.join().unwrap().unwrap(), 2);
}

/// Async select times out like the blocking one, withdrawing offers.
#[test]
fn async_select_timeout() {
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    Transport::submit_select(
        Arc::clone(&t),
        &"b",
        vec![Arm::recv_any()],
        Some(Instant::now() + Duration::from_millis(50)),
        on_selected(move |r| tx.send(r).unwrap()),
    )
    .expect("async submission");
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Err(ChanError::Timeout) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    // The withdrawn offer must not strand a later sender.
    let t2 = Arc::clone(&t);
    let h = std::thread::spawn(move || recv(&t2, "b", "a", far()));
    t.send(&"a", &"b", 3, far()).unwrap();
    assert_eq!(h.join().unwrap().unwrap(), 3);
}

/// Sending to a finished peer fails with `Terminated`, to oneself with
/// `Myself`, and to an undeclared role with `Unknown` — all delivered
/// through the callback.
#[test]
fn async_send_error_paths() {
    let t = fresh();
    t.finish("c");

    let (tx, rx) = mpsc::channel();
    Transport::submit_send(Arc::clone(&t), &"a", &"c", 0, far(), {
        let tx = tx.clone();
        on_sent(move |r| tx.send(r).unwrap())
    })
    .unwrap();
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Err(ChanError::Terminated(who)) => assert_eq!(who, "c"),
        other => panic!("expected Terminated, got {other:?}"),
    }

    Transport::submit_send(Arc::clone(&t), &"a", &"a", 0, far(), {
        let tx = tx.clone();
        on_sent(move |r| tx.send(r).unwrap())
    })
    .unwrap();
    assert!(matches!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        Err(ChanError::Myself)
    ));

    Transport::submit_send(Arc::clone(&t), &"a", &"nobody", 0, far(), {
        let tx = tx.clone();
        on_sent(move |r| tx.send(r).unwrap())
    })
    .unwrap();
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Err(ChanError::Unknown(who)) => assert_eq!(who, "nobody"),
        other => panic!("expected Unknown, got {other:?}"),
    }
}

/// A peer finishing *after* the deposit but before pickup surfaces as
/// `Terminated` and reclaims the message.
#[test]
fn async_send_peer_finishes_mid_flight() {
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"b",
        7,
        far(),
        on_sent(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    t.finish("b");
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Err(ChanError::Terminated(who)) => assert_eq!(who, "b"),
        other => panic!("expected Terminated, got {other:?}"),
    }
}

/// The same seeded fault plan produces the same chaos log whether ops
/// go through the blocking or the asynchronous path — decisions are a
/// pure function of (seed, edge, sequence), not of scheduling.
#[test]
fn async_chaos_log_matches_blocking() {
    let logs: Vec<Vec<FaultRecord<&'static str>>> = [false, true]
        .into_iter()
        .map(|use_async| {
            let t = fresh();
            let faults = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&faults);
            t.observe(Observers {
                fault: Some(Arc::new(move |rec| sink.lock().unwrap().push(rec.clone()))),
                ..Observers::default()
            });
            t.set_fault_plan(
                FaultPlan::new(0xC0FFEE)
                    .with_drop(0.2)
                    .with_delay(0.2, Duration::from_millis(5))
                    .with_duplicate(0.2),
                Clone::clone,
            );
            for v in 0..32u32 {
                let (tx, rx) = mpsc::channel();
                if use_async {
                    Transport::submit_send(
                        Arc::clone(&t),
                        &"a",
                        &"b",
                        v,
                        far(),
                        on_sent(move |r| tx.send(r).unwrap()),
                    )
                    .unwrap();
                } else {
                    let t2 = Arc::clone(&t);
                    std::thread::spawn(move || {
                        tx.send(t2.send(&"a", &"b", v, far())).unwrap();
                    });
                }
                // Drain whatever arrives; dropped sends deliver nothing.
                loop {
                    match rx.recv_timeout(Duration::from_millis(40)) {
                        Ok(r) => {
                            r.unwrap();
                            // Duplicates may have left an extra copy.
                            while recv(
                                &t,
                                "b",
                                "a",
                                Some(Instant::now() + Duration::from_millis(20)),
                            )
                            .is_ok()
                            {}
                            break;
                        }
                        Err(_) => {
                            if recv(
                                &t,
                                "b",
                                "a",
                                Some(Instant::now() + Duration::from_millis(20)),
                            )
                            .is_err()
                            {
                                break;
                            }
                        }
                    }
                }
            }
            let log = faults.lock().unwrap().clone();
            log
        })
        .collect();
    assert_eq!(logs[0], logs[1], "chaos log must be schedule-independent");
}

/// No completion runs on any thread other than a submitting thread or
/// the transport's one scheduler thread, however many ops are in flight
/// — the property that lets a hub serve 1k spokes with O(1) threads.
#[test]
fn async_ops_complete_on_a_submitter_or_the_scheduler_thread() {
    let t = fresh();
    let completions = Arc::new(AtomicUsize::new(0));
    let ran_on = Arc::new(Mutex::new(HashSet::new()));
    let n = 128usize;
    for i in 0..n {
        let c = Arc::clone(&completions);
        let ran_on = Arc::clone(&ran_on);
        Transport::submit_send(
            Arc::clone(&t),
            &"a",
            &"b",
            i as u32,
            far(),
            on_sent(move |r| {
                r.unwrap();
                ran_on.lock().unwrap().insert(std::thread::current().id());
                c.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
    }
    for j in 0..64 {
        let c = Arc::clone(&completions);
        let ran_on = Arc::clone(&ran_on);
        Transport::submit_select(
            Arc::clone(&t),
            &"c",
            vec![Arm::recv_from("b"), Arm::watch("b")],
            Some(Instant::now() + Duration::from_millis(200 + j)),
            on_selected(move |_| {
                ran_on.lock().unwrap().insert(std::thread::current().id());
                c.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
    }
    // A foreign thread — it submits nothing — picks the sends up: the
    // tokens it readies go to the scheduler thread, never run on it.
    let receiver = std::thread::spawn({
        let t = Arc::clone(&t);
        move || {
            for _ in 0..n {
                recv(&t, "b", "a", far()).unwrap();
            }
            std::thread::current().id()
        }
    });
    let foreign = receiver.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while completions.load(Ordering::SeqCst) < n + 64 {
        assert!(Instant::now() < deadline, "ops never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut ran_on = ran_on.lock().unwrap().clone();
    assert!(
        !ran_on.contains(&foreign),
        "a completion ran on the receiver"
    );
    // Whatever did not run here, on the one submitter, ran on one other
    // thread: the scheduler.
    ran_on.remove(&std::thread::current().id());
    assert_eq!(ran_on.len(), 1, "192 ops completed on {ran_on:?}");
}

/// Run-to-completion: a `submit_send` that meets a selection already
/// parked steps both sides itself — both callbacks have fired, on the
/// submitting thread, before it returns.
#[test]
fn submit_completes_a_parked_partner_on_the_submitting_thread() {
    let t = fresh();
    let here = std::thread::current().id();
    let fired = Arc::new(Mutex::new(Vec::new()));
    let note = |what: &'static str| {
        let fired = Arc::clone(&fired);
        move || {
            fired
                .lock()
                .unwrap()
                .push((what, std::thread::current().id()))
        }
    };
    let selected = note("select");
    Transport::submit_select(
        Arc::clone(&t),
        &"b",
        vec![Arm::recv_any()],
        None,
        on_selected(move |r| {
            assert!(matches!(r, Ok(Outcome::Received { msg: 11, .. })));
            selected();
        }),
    )
    .unwrap();
    assert!(fired.lock().unwrap().is_empty(), "nothing to receive yet");
    let sent = note("send");
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"b",
        11,
        None,
        on_sent(move |r| {
            r.unwrap();
            sent();
        }),
    )
    .unwrap();
    assert_eq!(
        *fired.lock().unwrap(),
        vec![("select", here), ("send", here)],
        "both sides complete inside submit_send, pickup first"
    );
}

/// A completion callback that submits the next op is iterated by the
/// drain already running, not recursed into: a chain 10 000 long
/// completes on a thread whose stack could not hold a fraction of it.
#[test]
fn done_submitting_the_next_op_does_not_recurse() {
    const CHAIN: u32 = 10_000;
    fn next(t: &T, v: u32, finished: mpsc::Sender<u32>) {
        let again = Arc::clone(t);
        Transport::submit_select(
            Arc::clone(t),
            &"b",
            vec![Arm::recv_from("a")],
            None,
            on_selected(move |r| {
                assert!(matches!(r, Ok(Outcome::Received { msg, .. }) if msg == v));
                if v + 1 == CHAIN {
                    finished.send(v).unwrap();
                } else {
                    next(&again, v + 1, finished);
                }
            }),
        )
        .unwrap();
        Transport::submit_send(Arc::clone(t), &"a", &"b", v, None, on_sent(|r| r.unwrap()))
            .unwrap();
    }
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || next(&t, 0, tx))
        .unwrap()
        .join()
        .expect("the chain ran without overflowing its stack");
    assert_eq!(rx.try_recv().unwrap(), CHAIN - 1, "ran to the end in place");
}

/// Timers stay with the scheduler thread: a deadline expiry and a
/// chaos-delay gate both fire with no submitter around to drain.
#[test]
fn timers_fire_with_no_submitter_around() {
    let t = fresh();
    let delay = Duration::from_millis(60);
    t.set_fault_plan(FaultPlan::new(1).with_delay(1.0, delay), Clone::clone);
    let (tx, rx) = mpsc::channel();
    let submitter = std::thread::spawn({
        let (t, tx) = (Arc::clone(&t), tx.clone());
        move || {
            let started = Instant::now();
            Transport::submit_send(
                Arc::clone(&t),
                &"a",
                &"b",
                5,
                far(),
                on_sent(move |r| tx.send(("send", r.map(|()| started.elapsed()))).unwrap()),
            )
            .unwrap();
            std::thread::current().id()
        }
    });
    let submitter = submitter.join().unwrap();
    let timed_out = Arc::new(Mutex::new(None));
    Transport::submit_select(
        Arc::clone(&t),
        &"c",
        vec![Arm::recv_from("a")],
        Some(Instant::now() + Duration::from_millis(40)),
        on_selected({
            let timed_out = Arc::clone(&timed_out);
            move |r| {
                assert_eq!(r.unwrap_err(), ChanError::Timeout);
                *timed_out.lock().unwrap() = Some(std::thread::current().id());
                tx.send(("select", Ok(Duration::ZERO))).unwrap();
            }
        }),
    )
    .unwrap();
    // The delayed send deposits only once its gate opens, on the
    // scheduler thread; this pickup just waits for it.
    assert_eq!(recv(&t, "b", "a", far()).unwrap(), 5);
    let mut seen = Vec::new();
    for _ in 0..2 {
        let (what, r) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        if what == "send" {
            assert!(r.unwrap() >= delay, "the gate held the deposit back");
        }
        seen.push(what);
    }
    seen.sort_unstable();
    assert_eq!(seen, ["select", "send"]);
    let expired_on = timed_out.lock().unwrap().expect("select timed out");
    assert_ne!(expired_on, std::thread::current().id());
    assert_ne!(expired_on, submitter);
}

/// Stress for the park-publish race a second driver exposes: an op
/// must be back in the scheduler's table before its wakeup registration
/// is visible, or a wakeup in between pops a token with no op behind it
/// and the op is parked forever. One thread alternating `submit_send`
/// with the blocking pickup keeps the scheduler thread (completing send
/// *k*) and the submitter (parking send *k + 1* behind it) on the same
/// endpoint. How often that lands in the window depends on the drivers'
/// timing; `transport.rs`'s `park_publishes_the_op_with_its_waiter`
/// forces the interleaving and is the test that fails without the fix.
#[test]
fn park_publishes_the_op_before_its_wakeup() {
    let t = fresh();
    let completed = Arc::new(AtomicUsize::new(0));
    let n = 100_000usize;
    for v in 0..n {
        let completed = Arc::clone(&completed);
        Transport::submit_send(
            Arc::clone(&t),
            &"a",
            &"b",
            v as u32,
            None,
            on_sent(move |r| {
                r.unwrap();
                completed.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
        assert_eq!(recv(&t, "b", "a", far()).unwrap(), v as u32);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while completed.load(Ordering::SeqCst) < n {
        assert!(Instant::now() < deadline, "a send was never completed");
        std::thread::yield_now();
    }
}

/// Several drivers at once: two threads each pipeline sends 64 deep on
/// their own edge into one blocking receiver, so either submitter (and
/// the scheduler thread) may step the other's ops. Every callback
/// fires, and each edge delivers in submission order (the tickets).
#[test]
fn two_submitters_pipeline_into_one_receiver() {
    const ROUNDS: u32 = 40;
    const DEPTH: u32 = 64;
    let t = fresh();
    let completed = Arc::new(AtomicUsize::new(0));
    let submitters: Vec<_> = ["a", "c"]
        .into_iter()
        .map(|from| {
            let (t, completed) = (Arc::clone(&t), Arc::clone(&completed));
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let (tx, rx) = mpsc::channel();
                    for i in 0..DEPTH {
                        let (tx, completed) = (tx.clone(), Arc::clone(&completed));
                        Transport::submit_send(
                            Arc::clone(&t),
                            &from,
                            &"b",
                            round * DEPTH + i,
                            far(),
                            on_sent(move |r| {
                                r.unwrap();
                                completed.fetch_add(1, Ordering::SeqCst);
                                tx.send(()).unwrap();
                            }),
                        )
                        .unwrap();
                    }
                    // One window at a time: the next 64 go out once
                    // these have all completed.
                    for _ in 0..DEPTH {
                        rx.recv_timeout(Duration::from_secs(10))
                            .expect("every callback fires");
                    }
                }
            })
        })
        .collect();
    let mut next = [0u32; 2];
    for _ in 0..2 * ROUNDS * DEPTH {
        match t.select(&"b", vec![Arm::recv_any()], far()).unwrap() {
            Outcome::Received { from, msg, .. } => {
                let edge = usize::from(from == "c");
                assert_eq!(msg, next[edge], "edge {from} → b out of order");
                next[edge] += 1;
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    for s in submitters {
        s.join().unwrap();
    }
    assert_eq!(
        completed.load(Ordering::SeqCst),
        (2 * ROUNDS * DEPTH) as usize
    );
}

/// Dropping the transport with ops still parked shuts the scheduler
/// down without firing bogus completions or leaking the thread.
#[test]
fn drop_with_parked_ops_is_clean() {
    let t = fresh();
    let (tx, rx) = mpsc::channel::<Result<(), ChanError<&'static str>>>();
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"b",
        1,
        None,
        on_sent(move |r| {
            let _ = tx.send(r);
        }),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(t);
    // The callback is dropped unfired (caller sees a disconnect), which
    // the socket hub maps to a connection-level failure.
    match rx.recv_timeout(Duration::from_secs(2)) {
        Err(mpsc::RecvTimeoutError::Disconnected) => {}
        other => panic!("expected dropped callback, got {other:?}"),
    }
}

/// A seeded `recv_any` is reproducible: the pick among several
/// deposited senders is a function of the seed, not of the inbox map's
/// per-instance iteration order. (Submitted sends hold the three
/// deposits without a thread apiece.)
#[test]
fn seeded_recv_any_picks_the_same_sender_every_run() {
    let first_pick = || {
        let t = fresh();
        t.activate("rx");
        for from in ["a", "b", "c"] {
            // Deposits — one step of the activity counter — finds
            // nobody receiving, parks.
            let before = t.activity();
            Transport::submit_send(Arc::clone(&t), &from, &"rx", 0, None, on_sent(|_| {})).unwrap();
            assert_eq!(t.activity(), before + 1);
        }
        match t.select(&"rx", vec![Arm::recv_any()], far()).unwrap() {
            Outcome::Received { from, .. } => from,
            other => panic!("unexpected outcome: {other:?}"),
        }
    };
    let picks: Vec<&str> = (0..8).map(|_| first_pick()).collect();
    assert!(
        picks.iter().all(|p| *p == picks[0]),
        "one seed, one schedule, different first senders: {picks:?}"
    );
}

/// The same with more deposited senders than a receive from anyone
/// draws among on the stack: the whole order in which twenty senders
/// are taken is a function of the seed.
#[test]
fn seeded_recv_any_past_the_stack_batch_takes_senders_in_the_same_order() {
    let senders: Vec<&'static str> = (0..20)
        .map(|i| &*Box::leak(format!("s{i}").into_boxed_str()))
        .collect();
    let order = || {
        let t = fresh();
        t.activate("rx");
        for &from in &senders {
            t.activate(from);
            Transport::submit_send(Arc::clone(&t), &from, &"rx", 0, None, on_sent(|_| {})).unwrap();
        }
        (0..senders.len())
            .map(
                |_| match t.select(&"rx", vec![Arm::recv_any()], far()).unwrap() {
                    Outcome::Received { from, .. } => from,
                    other => panic!("unexpected outcome: {other:?}"),
                },
            )
            .collect::<Vec<_>>()
    };
    let first = order();
    let mut taken = first.clone();
    taken.sort_unstable();
    let mut all = senders.clone();
    all.sort_unstable();
    assert_eq!(taken, all, "every sender's message is taken once");
    for _ in 0..4 {
        assert_eq!(order(), first, "one seed, one schedule, two orders");
    }
}

/// The scheduler thread is born for a reason, not with the scheduler.
/// Submitted pairs without a deadline, and a parked watcher released by
/// a `cast`, complete on the calling thread and start nothing; the first
/// deadline starts the thread, and its timeout fires; a blocking send
/// that readies a parked submitted op from a thread that drains nothing
/// starts it too (shown on a second transport), and the op completes.
#[test]
fn scheduler_thread_starts_only_for_a_timer_or_an_orphaned_op() {
    let t = fresh();
    let me = std::thread::current().id();
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let note = |ran_on: &Arc<Mutex<Vec<std::thread::ThreadId>>>| {
        let ran_on = Arc::clone(ran_on);
        move || ran_on.lock().unwrap().push(std::thread::current().id())
    };
    for v in 0..16u32 {
        let sent = note(&ran_on);
        Transport::submit_send(
            Arc::clone(&t),
            &"a",
            &"b",
            v,
            None,
            on_sent(move |r| {
                r.unwrap();
                sent();
            }),
        )
        .unwrap();
        let received = note(&ran_on);
        Transport::submit_select(
            Arc::clone(&t),
            &"b",
            vec![Arm::recv_from("a")],
            None,
            on_selected(move |r| {
                assert!(matches!(r, Ok(Outcome::Received { msg, .. }) if msg == v));
                received();
            }),
        )
        .unwrap();
    }
    // A watcher with nothing to receive parks until its peer finishes.
    let released = note(&ran_on);
    Transport::submit_select(
        Arc::clone(&t),
        &"c",
        vec![Arm::recv_from("a"), Arm::watch("b")],
        None,
        on_selected(move |r| {
            assert!(
                matches!(r, Ok(Outcome::Terminated { peer: "b", .. })),
                "{r:?}"
            );
            released();
        }),
    )
    .unwrap();
    assert_eq!(ran_on.lock().unwrap().len(), 32, "the watcher is parked");
    t.finish("b");
    let ran_on = std::mem::take(&mut *ran_on.lock().unwrap());
    assert_eq!(ran_on.len(), 33);
    assert!(
        ran_on.iter().all(|id| *id == me),
        "a completion left the thread"
    );
    assert!(!t.scheduler_thread_started());

    // The first timer needs someone to wait for it.
    let (tx, rx) = mpsc::channel();
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"c",
        0,
        Some(Instant::now() + Duration::from_millis(30)),
        on_sent(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    assert!(t.scheduler_thread_started());
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        Err(ChanError::Timeout)
    );

    // So does an op readied where nobody drains: a blocking send meets
    // a parked submitted receive, and returns once that has taken it.
    let t = fresh();
    let (tx, rx) = mpsc::channel();
    Transport::submit_select(
        Arc::clone(&t),
        &"b",
        vec![Arm::recv_from("a")],
        None,
        on_selected(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    assert!(!t.scheduler_thread_started());
    t.send(&"a", &"b", 5, far())
        .expect("the orphaned receive picks it up");
    let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(
        matches!(got, Ok(Outcome::Received { msg: 5, .. })),
        "{got:?}"
    );
    assert!(t.scheduler_thread_started());
}

/// A completion callback that panics unwinds through the drain that ran
/// it. The thread must not stay listed as a drainer: tokens readied
/// afterwards would be left for it — by its own submissions, which
/// would only queue, and by `bump_signal`, which would notify nobody —
/// and it may be a hub's one I/O thread.
#[test]
fn a_panicking_callback_leaves_no_drainer_behind() {
    let t = fresh();
    let me = std::thread::current().id();
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"b",
        1,
        None,
        on_sent(|_| panic!("done panicked")),
    )
    .unwrap();
    // The pickup readies the parked send; its callback runs in the
    // drain on the way out of `try_recv`, on this thread.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.try_recv(&"b", &"a")));
    assert!(unwound.is_err(), "the callback's panic reaches the caller");

    // A parked submitted receive readied by a thread that drains
    // nothing: its token must reach the scheduler thread.
    let (tx, rx) = mpsc::channel();
    Transport::submit_select(
        Arc::clone(&t),
        &"c",
        vec![Arm::recv_from("a")],
        None,
        on_selected(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    let t2 = Arc::clone(&t);
    std::thread::spawn(move || t2.send(&"a", &"c", 9, far()))
        .join()
        .unwrap()
        .expect("the parked receive takes it");
    let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(
        matches!(got, Ok(Outcome::Received { msg: 9, .. })),
        "{got:?}"
    );

    // And this thread still steps what it submits before returning.
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let sent = Arc::clone(&ran_on);
    Transport::submit_send(
        Arc::clone(&t),
        &"a",
        &"b",
        2,
        None,
        on_sent(move |r| {
            r.unwrap();
            sent.lock().unwrap().push(std::thread::current().id());
        }),
    )
    .unwrap();
    let received = Arc::clone(&ran_on);
    Transport::submit_select(
        Arc::clone(&t),
        &"b",
        vec![Arm::recv_from("a")],
        None,
        on_selected(move |r| {
            assert!(matches!(r, Ok(Outcome::Received { msg: 2, .. })));
            received.lock().unwrap().push(std::thread::current().id());
        }),
    )
    .unwrap();
    assert_eq!(*ran_on.lock().unwrap(), vec![me, me]);
}

/// The same panic on the scheduler thread kills it. It must not stay
/// listed as a drainer or counted as started: only that thread pops
/// timers, so every later deadline on the transport would never fire.
#[test]
fn a_callback_panicking_on_the_scheduler_thread_leaves_a_successor() {
    let t = fresh();
    let soon = || Some(Instant::now() + Duration::from_millis(20));
    let (tx, rx) = mpsc::channel();
    Transport::submit_select(
        Arc::clone(&t),
        &"b",
        vec![Arm::recv_from("a")],
        soon(),
        on_selected(move |r| {
            let on = std::thread::current().name().map(str::to_owned);
            tx.send((r, on)).unwrap();
            panic!("done panicked");
        }),
    )
    .unwrap();
    let (timed_out, on) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(
        matches!(timed_out, Err(ChanError::Timeout)),
        "{timed_out:?}"
    );
    assert_eq!(on.as_deref(), Some("chan-async-sched"));

    // Armed while the thread unwinds or after: either way somebody is
    // there to pop it.
    let (tx, rx) = mpsc::channel();
    Transport::submit_select(
        Arc::clone(&t),
        &"c",
        vec![Arm::recv_from("a")],
        soon(),
        on_selected(move |r| tx.send(r).unwrap()),
    )
    .unwrap();
    let timed_out = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("the second deadline fires");
    assert!(
        matches!(timed_out, Err(ChanError::Timeout)),
        "{timed_out:?}"
    );
    assert!(t.scheduler_thread_started());
}

/// Many operations on one receiver: each is answered exactly once, under
/// the tag it was submitted with, whether it completed, failed at once
/// or timed out.
#[test]
fn every_completion_is_answered_once_under_its_own_tag() {
    let t = fresh();
    t.finish("c");
    let (to, answers) = recorder();
    let done = |tag| Completion {
        to: Arc::clone(&to) as Arc<dyn Complete<_, _>>,
        tag,
    };
    let send = |from, to, v, deadline, tag| {
        Transport::submit_send(Arc::clone(&t), &from, &to, v, deadline, done(tag)).unwrap();
    };
    for v in 0..16u32 {
        let tag = u64::from(v);
        let arms = vec![Arm::recv_from("a")];
        Transport::submit_select(Arc::clone(&t), &"b", arms, far(), done(100 + tag)).unwrap();
        send("a", "b", v, far(), tag);
    }
    send("a", "c", 0, far(), 200);
    send(
        "b",
        "a",
        0,
        Some(Instant::now() + Duration::from_millis(30)),
        201,
    );
    let mut tags = Vec::new();
    for _ in 0..34 {
        match answers.recv_timeout(Duration::from_secs(5)).unwrap() {
            Answer::Sent(200, result) => assert_eq!(result, Err(ChanError::Terminated("c"))),
            Answer::Sent(201, result) => assert_eq!(result, Err(ChanError::Timeout)),
            Answer::Sent(tag, result) => {
                assert!(tag < 16, "unknown tag {tag}");
                result.unwrap();
                tags.push(tag);
            }
            Answer::Selected(tag, result, arms) => {
                let sent = u32::try_from(tag - 100).unwrap();
                assert!(matches!(result, Ok(Outcome::Received { msg, .. }) if msg == sent));
                assert_eq!(arms, [Arm::recv_from("a")], "the list comes back");
                tags.push(tag);
            }
        }
    }
    tags.sort_unstable();
    let want: Vec<u64> = (0..16).chain(100..116).collect();
    assert_eq!(tags, want, "each tag once");
    assert!(
        answers.recv_timeout(Duration::from_millis(50)).is_err(),
        "nothing is answered twice"
    );
}

/// A selection gets its lent list back on every exit, unfired send
/// arms' messages in it: when it fires — the fired send arm's slot now
/// a receive from anyone —, when it fails at once, when it times out
/// and when it is aborted.
#[test]
fn a_selection_hands_its_arms_back_on_every_exit() {
    let t = fresh();
    let (to, answers) = recorder();
    let select = |me, arms: Arms, deadline, tag| {
        let done = Completion {
            to: Arc::clone(&to) as Arc<dyn Complete<_, _>>,
            tag,
        };
        Transport::submit_select(Arc::clone(&t), &me, arms, deadline, done).unwrap();
    };
    let answer = |want| match answers.recv_timeout(Duration::from_secs(5)).unwrap() {
        Answer::Selected(tag, result, arms) if tag == want => (result, arms),
        other => panic!("expected selection {want}, got {other:?}"),
    };

    let lent = vec![Arm::send("b", 5), Arm::send("c", 6), Arm::recv_from("b")];
    select("a", lent, far(), 1);
    assert_eq!(recv(&t, "b", "a", far()).unwrap(), 5);
    let (result, arms) = answer(1);
    assert_eq!(result, Ok(Outcome::Sent { arm: 0, to: "b" }));
    let fired = vec![Arm::recv_any(), Arm::send("c", 6), Arm::recv_from("b")];
    assert_eq!(arms, fired);

    select("a", Vec::with_capacity(4), far(), 2);
    let (result, arms) = answer(2);
    assert_eq!(result, Err(ChanError::EmptySelect));
    assert!(
        arms.is_empty() && arms.capacity() >= 4,
        "the room comes back"
    );
    select("a", vec![Arm::send("a", 7)], far(), 3);
    let (result, arms) = answer(3);
    assert_eq!(result, Err(ChanError::Myself));
    assert_eq!(arms, [Arm::send("a", 7)]);

    let parked = vec![Arm::send("b", 8), Arm::recv_from("c")];
    select(
        "a",
        parked.clone(),
        Some(Instant::now() + Duration::from_millis(30)),
        4,
    );
    let (result, arms) = answer(4);
    assert_eq!(result, Err(ChanError::Timeout));
    assert_eq!(arms, parked);

    let parked = vec![Arm::send("b", 9), Arm::watch("c")];
    select("a", parked.clone(), None, 5);
    assert!(answers.recv_timeout(Duration::from_millis(50)).is_err());
    t.abort();
    let (result, arms) = answer(5);
    assert_eq!(result, Err(ChanError::Aborted));
    assert_eq!(arms, parked);
}

/// A backend that keeps the trait's declining submission defaults and
/// passes everything else through.
struct Declining(ShardedTransport<&'static str, u32>);

impl Transport<&'static str, u32> for Declining {
    fn cast(&self, steps: &[CastStep<&'static str>]) {
        self.0.cast(steps);
    }
    fn abort(&self) {
        self.0.abort();
    }
    fn is_aborted(&self) -> bool {
        self.0.is_aborted()
    }
    fn peer_state(&self, id: &&'static str) -> Option<PeerState> {
        self.0.peer_state(id)
    }
    fn activity(&self) -> u64 {
        self.0.activity()
    }
    fn reseed(&self, seed: u64) {
        self.0.reseed(seed);
    }
    fn ensure_peer(&self, id: &&'static str) -> Result<(), E> {
        self.0.ensure_peer(id)
    }
    fn set_fault_plan(&self, plan: FaultPlan, clone_fn: fn(&u32) -> u32) {
        self.0.set_fault_plan(plan, clone_fn);
    }
    fn clear_fault_plan(&self) {
        self.0.clear_fault_plan();
    }
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.0.fault_plan()
    }
    fn observe(&self, observers: Observers<&'static str, u32>) {
        self.0.observe(observers);
    }
    fn send(
        &self,
        from: &&'static str,
        to: &&'static str,
        msg: u32,
        deadline: Option<Instant>,
    ) -> Result<(), E> {
        self.0.send(from, to, msg, deadline)
    }
    fn try_recv(&self, me: &&'static str, from: &&'static str) -> Result<Option<u32>, E> {
        self.0.try_recv(me, from)
    }
    fn select_in(
        &self,
        me: &&'static str,
        arms: &mut [Arm<&'static str, u32>],
        deadline: Option<Instant>,
    ) -> Selected {
        self.0.select_in(me, arms, deadline)
    }
}

/// A backend that declines hands the message or the arms back with the
/// completion, unanswered: the caller decides what becomes of them.
#[test]
fn a_declining_backend_hands_the_operation_back_unanswered() {
    let t = Arc::new(Declining(ShardedTransport::new(false, Some(7))));
    let (to, answers) = recorder();
    let done = |tag| Completion {
        to: Arc::clone(&to) as Arc<dyn Complete<_, _>>,
        tag,
    };
    match Transport::submit_send(Arc::clone(&t), &"a", &"b", 3, far(), done(1)) {
        Err((msg, done)) => assert_eq!((msg, done.tag), (3, 1)),
        Ok(()) => panic!("the default declines"),
    }
    let arms = vec![Arm::send("a", 4), Arm::recv_any()];
    match Transport::submit_select(Arc::clone(&t), &"b", arms.clone(), far(), done(2)) {
        Err((back, done)) => assert_eq!((back, done.tag), (arms, 2)),
        Ok(()) => panic!("the default declines"),
    }
    assert!(
        answers.try_recv().is_err(),
        "a declined operation is not answered"
    );
}
