//! Asynchronous submit_send/submit_select state machines.
//!
//! These drive `ShardedTransport` through the nonblocking submission
//! API directly (the socket hub is its main consumer) and check that
//! the callbacks observe exactly the results the blocking calls would
//! have returned — rendezvous completion at pickup, timeouts that
//! reclaim deposits, termination errors, chaos determinism, and the
//! one-scheduler-thread property the reactor refactor exists for.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use script_chan::{Arm, ChanError, FaultPlan, Outcome, ShardedTransport, Transport};

type T = Arc<ShardedTransport<&'static str, u32>>;

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
    Arc::clone(&t)
        .submit_send(
            &"a",
            &"b",
            42,
            far(),
            Box::new(move |r| tx.send(r).unwrap()),
        )
        .ok()
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
        Arc::clone(&t)
            .submit_send(
                &"a",
                &"b",
                v,
                far(),
                Box::new(move |r| tx.send((v, r)).unwrap()),
            )
            .ok()
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
    Arc::clone(&t)
        .submit_select(
            &"b",
            vec![Arm::recv_any()],
            far(),
            Box::new(move |r| tx.send(r).unwrap()),
        )
        .ok()
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
    Arc::clone(&t)
        .submit_select(
            &"a",
            vec![Arm::send("b", 5)],
            far(),
            Box::new(move |r| tx.send(r).unwrap()),
        )
        .ok()
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
    Arc::clone(&t)
        .submit_send(
            &"a",
            &"b",
            1,
            Some(Instant::now() + Duration::from_millis(50)),
            Box::new(move |r| tx.send(r).unwrap()),
        )
        .ok()
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
    Arc::clone(&t)
        .submit_select(
            &"b",
            vec![Arm::recv_any()],
            Some(Instant::now() + Duration::from_millis(50)),
            Box::new(move |r| tx.send(r).unwrap()),
        )
        .ok()
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
    Arc::clone(&t)
        .submit_send(&"a", &"c", 0, far(), {
            let tx = tx.clone();
            Box::new(move |r| tx.send(r).unwrap())
        })
        .ok()
        .unwrap();
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Err(ChanError::Terminated(who)) => assert_eq!(who, "c"),
        other => panic!("expected Terminated, got {other:?}"),
    }

    Arc::clone(&t)
        .submit_send(&"a", &"a", 0, far(), {
            let tx = tx.clone();
            Box::new(move |r| tx.send(r).unwrap())
        })
        .ok()
        .unwrap();
    assert!(matches!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        Err(ChanError::Myself)
    ));

    Arc::clone(&t)
        .submit_send(&"a", &"nobody", 0, far(), {
            let tx = tx.clone();
            Box::new(move |r| tx.send(r).unwrap())
        })
        .ok()
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
    Arc::clone(&t)
        .submit_send(&"a", &"b", 7, far(), Box::new(move |r| tx.send(r).unwrap()))
        .ok()
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
    let logs: Vec<Vec<script_chan::FaultRecord<&'static str>>> = [false, true]
        .into_iter()
        .map(|use_async| {
            let t = fresh();
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
                    Arc::clone(&t)
                        .submit_send(&"a", &"b", v, far(), Box::new(move |r| tx.send(r).unwrap()))
                        .ok()
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
            t.fault_log()
        })
        .collect();
    assert_eq!(logs[0], logs[1], "chaos log must be schedule-independent");
}

/// All in-flight async ops ride one scheduler thread, not one thread
/// per op — the property that lets a hub serve 1k spokes with O(1)
/// threads: every completion reports the same thread, the transport's
/// own scheduler.
#[test]
fn async_ops_share_one_scheduler_thread() {
    let t = fresh();
    let completions = Arc::new(AtomicUsize::new(0));
    let ran_on = Arc::new(Mutex::new(HashSet::new()));
    let n = 128usize;
    for i in 0..n {
        let c = Arc::clone(&completions);
        let ran_on = Arc::clone(&ran_on);
        Arc::clone(&t)
            .submit_send(
                &"a",
                &"b",
                i as u32,
                far(),
                Box::new(move |r| {
                    r.unwrap();
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .ok()
            .unwrap();
    }
    for j in 0..64 {
        let c = Arc::clone(&completions);
        let ran_on = Arc::clone(&ran_on);
        Arc::clone(&t)
            .submit_select(
                &"c",
                vec![Arm::recv_from("b"), Arm::watch("b")],
                Some(Instant::now() + Duration::from_millis(200 + j)),
                Box::new(move |_| {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            )
            .ok()
            .unwrap();
    }
    for _ in 0..n {
        recv(&t, "b", "a", far()).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while completions.load(Ordering::SeqCst) < n + 64 {
        assert!(Instant::now() < deadline, "ops never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let ran_on = ran_on.lock().unwrap();
    assert_eq!(ran_on.len(), 1, "192 ops completed on {ran_on:?}");
    assert!(!ran_on.contains(&std::thread::current().id()));
}

/// Dropping the transport with ops still parked shuts the scheduler
/// down without firing bogus completions or leaking the thread.
#[test]
fn drop_with_parked_ops_is_clean() {
    let t = fresh();
    let (tx, rx) = mpsc::channel::<Result<(), ChanError<&'static str>>>();
    Arc::clone(&t)
        .submit_send(
            &"a",
            &"b",
            1,
            None,
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
        )
        .ok()
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
