//! The paper's §V extensions and §II refinements as implemented:
//! non-blocking enrollment ("enrollment as a guard"), recursive scripts,
//! open-ended casts, and instance introspection.

use std::sync::Arc;
use std::time::Duration;

use script::core::{
    Enrollment, Initiation, Instance, RingObserver, RoleHandle, RoleId, Script, ScriptError,
    TelemetryPayload, Termination,
};

/// Subscribes a ring log of `capacity` events to `inst`.
fn ring_on<M: Send + Clone + 'static>(inst: &Instance<M>, capacity: usize) -> Arc<RingObserver> {
    let ring = Arc::new(RingObserver::new(capacity));
    inst.set_observer(Arc::clone(&ring) as _);
    ring
}

/// Drains `ring`, keeping the payloads.
fn payloads(ring: &RingObserver) -> Vec<TelemetryPayload> {
    ring.drain().into_iter().map(|e| e.payload).collect()
}

/// §II: "This distinction is crucial if script enrollment is to be
/// allowed to act as a guard." A non-blocking enrollment falls through
/// when no performance is ready.
#[test]
fn enrollment_as_a_guard() {
    let mut b = Script::<u8>::builder("guarded");
    let left = b.role("left", |ctx, ()| ctx.send(&RoleId::new("right"), 1));
    let right = b.role("right", |ctx, ()| ctx.recv_from(&RoleId::new("left")));
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();

    // No partner: the guard fails immediately instead of blocking.
    assert_eq!(
        inst.enroll_with(&left, (), Enrollment::new().non_blocking())
            .unwrap_err(),
        ScriptError::WouldBlock
    );
    assert_eq!(inst.pending_enrollments(), 0);

    // With a partner already queued, the same guard succeeds.
    std::thread::scope(|s| {
        let h = {
            let inst = inst.clone();
            let right = right.clone();
            s.spawn(move || inst.enroll(&right, ()))
        };
        // Wait until the partner's enrollment is queued.
        while inst.pending_enrollments() == 0 {
            std::thread::yield_now();
        }
        inst.enroll_with(&left, (), Enrollment::new().non_blocking())
            .unwrap();
        assert_eq!(h.join().unwrap().unwrap(), 1);
    });
}

/// §V: recursive scripts — "a role could enroll in its own script".
/// Each level of a divide-and-conquer sum enrolls into a fresh instance
/// of the *same* script (recursion on instances, as the paper's generic
/// multiple-instances reading suggests).
#[test]
fn recursive_script_divide_and_conquer() {
    // The script: a "solver" role and two "child" feeder roles.
    // solve(values): if small, sum directly; else split and enroll into
    // a fresh instance of the same script for each half.
    struct Recursive {
        script: Script<u64>,
        solver: RoleHandle<u64, Vec<u64>, u64>,
    }

    fn build() -> Arc<Recursive> {
        // Two-stage initialization so the role body can refer to the
        // script it belongs to.
        let holder: Arc<parking_lot::Mutex<Option<Arc<Recursive>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let holder2 = Arc::clone(&holder);
        let mut b = Script::<u64>::builder("recsum");
        let solver = b.role("solver", move |_ctx, values: Vec<u64>| {
            if values.len() <= 2 {
                return Ok(values.iter().sum());
            }
            let this = holder2.lock().clone().expect("initialized before use");
            let mid = values.len() / 2;
            let (lo, hi) = values.split_at(mid);
            let (lo, hi) = (lo.to_vec(), hi.to_vec());
            // Recurse: one fresh instance per half, each performed by a
            // helper thread enrolling into the same script.
            let left = {
                let this = Arc::clone(&this);
                std::thread::spawn(move || this.script.instance().enroll(&this.solver, lo))
            };
            let right = {
                let this = Arc::clone(&this);
                std::thread::spawn(move || this.script.instance().enroll(&this.solver, hi))
            };
            let l = left.join().expect("no panic")?;
            let r = right.join().expect("no panic")?;
            Ok(l + r)
        });
        let script = b.build().unwrap();
        let rec = Arc::new(Recursive { script, solver });
        *holder.lock() = Some(Arc::clone(&rec));
        rec
    }

    let rec = build();
    let values: Vec<u64> = (1..=64).collect();
    let total = rec.script.instance().enroll(&rec.solver, values).unwrap();
    assert_eq!(total, 64 * 65 / 2);
}

/// Self-enrollment into the *same instance* must not run inside the
/// current performance: it starts an *overlapping* one (paper §II). With
/// the sharded engine the inner enrollment covers the critical set by
/// itself, so a fresh performance begins inline — on its own shard and
/// network — while the outer performance is still running, and both
/// complete.
#[test]
fn self_enrollment_same_instance_starts_overlapping_performance() {
    let mut b = Script::<u8>::builder("selfie");
    let holder: Arc<parking_lot::Mutex<Option<Instance<u8>>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let holder2 = Arc::clone(&holder);
    let me: RoleHandle<u8, bool, ()> = {
        let holder = holder2;
        let handle_slot: Arc<parking_lot::Mutex<Option<RoleHandle<u8, bool, ()>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let handle_slot2 = Arc::clone(&handle_slot);
        let h = b.role("me", move |_ctx, recurse: bool| {
            if recurse {
                let inst = holder.lock().clone().expect("set");
                let handle = handle_slot2.lock().clone().expect("set");
                // Same instance: this starts an overlapping performance
                // on a fresh shard and runs it to completion inline,
                // while the outer performance is still in progress.
                inst.enroll_with(
                    &handle,
                    false,
                    Enrollment::new().timeout(Duration::from_millis(500)),
                )
                .unwrap();
                // The inner performance has already completed; the outer
                // one (ours) is still running.
                assert_eq!(inst.completed_performances(), 1);
            }
            Ok(())
        });
        *handle_slot.lock() = Some(h.clone());
        h
    };
    let script = b.build().unwrap();
    let inst = script.instance();
    *holder.lock() = Some(inst.clone());
    inst.enroll(&me, true).unwrap();
    // The instance is healthy afterwards.
    inst.enroll(&me, false).unwrap();
    assert_eq!(inst.completed_performances(), 3);
}

/// Instance introspection reflects the performance in progress.
#[test]
fn status_snapshots() {
    let mut b = Script::<u8>::builder("statusful");
    let blocker = b.role("blocker", |ctx, ()| {
        // Waits on a role that enrolls late.
        ctx.recv_from(&RoleId::new("late"))
    });
    let late = b.role("late", |ctx, ()| ctx.send(&RoleId::new("blocker"), 3));
    b.initiation(Initiation::Immediate)
        .termination(Termination::Immediate);
    let script = b.build().unwrap();
    let inst = script.instance();

    let idle = inst.status();
    assert_eq!(idle.completed_performances, 0);
    assert_eq!(idle.pending_enrollments, 0);
    assert!(idle.performances.is_empty());

    std::thread::scope(|s| {
        let h = {
            let inst = inst.clone();
            let blocker = blocker.clone();
            s.spawn(move || inst.enroll(&blocker, ()))
        };
        // Wait for the performance to exist with one running role.
        loop {
            let st = inst.status();
            if let Some(perf) = st.performances.first() {
                assert!(!perf.frozen, "cast still open for 'late'");
                assert_eq!(perf.running, 1);
                assert_eq!(perf.finished, 0);
                assert!(!perf.aborted);
                assert_eq!(perf.cast.len(), 1);
                break;
            }
            std::thread::yield_now();
        }
        inst.enroll(&late, ()).unwrap();
        assert_eq!(h.join().unwrap().unwrap(), 3);
    });
    let done = inst.status();
    assert_eq!(done.completed_performances, 1);
    assert!(done.performances.is_empty());
}

/// The event log records the engine's decisions in order.
#[test]
fn event_log_records_lifecycle() {
    let mut b = Script::<u8>::builder("logged");
    let ping = b.role("ping", |ctx, ()| ctx.send(&RoleId::new("pong"), 1));
    let pong = b.role("pong", |ctx, ()| {
        ctx.recv_from(&RoleId::new("ping"))?;
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    let ring = ring_on(&inst, 64);

    std::thread::scope(|s| {
        let i2 = inst.clone();
        let ping = ping.clone();
        let h = s.spawn(move || i2.enroll(&ping, ()));
        inst.enroll(&pong, ()).unwrap();
        h.join().unwrap().unwrap();
    });

    let events = payloads(&ring);
    let pos = |pred: &dyn Fn(&TelemetryPayload) -> bool| events.iter().position(pred);

    let queued = pos(&|e| matches!(e, TelemetryPayload::EnrollmentQueued { .. }))
        .expect("enrollments queued");
    let started =
        pos(&|e| matches!(e, TelemetryPayload::PerformanceStarted)).expect("performance started");
    let frozen =
        pos(&|e| matches!(e, TelemetryPayload::CastFrozen)).expect("cast frozen (delayed)");
    let completed =
        pos(&|e| matches!(e, TelemetryPayload::PerformanceCompleted { aborted: false }))
            .expect("performance completed");
    assert!(queued < started && started < completed);
    assert!(frozen < completed);
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, TelemetryPayload::RoleAdmitted { .. }))
            .count(),
        2
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, TelemetryPayload::RoleFinished { .. }))
            .count(),
        2
    );
    // Drained: a second drain is empty.
    assert!(ring.drain().is_empty());
}

/// A delayed performance admits its cast in one fixed order, whatever
/// order its members arrived in: only which performance a thread joins
/// depends on arrival.
#[test]
fn a_delayed_performance_admits_its_cast_in_a_fixed_order() {
    const RECIPIENTS: usize = 3;
    const PERFORMANCES: usize = 20;
    let mut b = Script::<u8>::builder("ordered_star");
    let sender = b.role("sender", |ctx, ()| {
        for i in 0..RECIPIENTS {
            ctx.send(&RoleId::indexed("recipient", i), 1)?;
        }
        Ok(())
    });
    let recipient = b.family("recipient", RECIPIENTS, |ctx, ()| {
        ctx.recv_from(&RoleId::new("sender"))
    });
    b.initiation(Initiation::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    let ring = ring_on(&inst, 1024);

    for k in 0..PERFORMANCES {
        std::thread::scope(|s| {
            // Spawned in a rotating order, so arrivals differ.
            for member in (0..=RECIPIENTS).map(|m| (m + k) % (RECIPIENTS + 1)) {
                let (inst, sender, recipient) = (&inst, &sender, &recipient);
                s.spawn(move || match member {
                    RECIPIENTS => inst.enroll(sender, ()).map(drop),
                    i => inst.enroll_member(recipient, i, ()).map(drop),
                });
            }
        });
    }

    let mut orders: Vec<Vec<RoleId>> = vec![Vec::new(); PERFORMANCES];
    for event in ring.drain() {
        if let (Some(performance), TelemetryPayload::RoleAdmitted { role, .. }) =
            (event.performance, event.payload)
        {
            orders[performance.0 as usize].push(role);
        }
    }
    assert!(
        orders.iter().all(|o| o.len() == RECIPIENTS + 1),
        "{orders:?}"
    );
    assert!(
        orders.iter().all(|o| *o == orders[0]),
        "admission orders differ: {orders:?}"
    );
}

/// The log is bounded: old events fall off the front.
#[test]
fn event_log_is_bounded() {
    let mut b = Script::<u8>::builder("tiny_log");
    let solo = b.role("solo", |_ctx, ()| Ok(()));
    let script = b.build().unwrap();
    let inst = script.instance();
    let ring = ring_on(&inst, 3);
    for _ in 0..10 {
        inst.enroll(&solo, ()).unwrap();
    }
    let mut events = payloads(&ring);
    assert!(matches!(events.remove(0), TelemetryPayload::Lost { .. }));
    assert_eq!(events.len(), 3, "capacity respected");
    assert!(ring.dropped() > 0, "what fell off the front is counted");
}
