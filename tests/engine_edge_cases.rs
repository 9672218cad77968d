//! Engine edge cases: process uniqueness, self-communication, partner
//! termination cascades, explicit/auto index mixing, per-operation
//! timeouts, critical-set preference order, and enrollment into open
//! families around cast-freeze.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use script::core::{
    CriticalSet, Enrollment, FamilyHandle, Guard, Initiation, Observer, RoleHandle, RoleId, Script,
    ScriptError, TelemetryEvent, TelemetryPayload, Termination,
};

/// "No process may enroll in more than one role in one activation":
/// two enrollments under the same process identity never share a
/// performance.
#[test]
fn same_process_cannot_fill_two_roles_in_one_performance() {
    let mut b = Script::<u8>::builder("unique");
    let a = b.role("a", |_ctx, ()| Ok(()));
    let c = b.role("c", |_ctx, ()| Ok(()));
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let h1 = {
            let inst = inst.clone();
            let a = a.clone();
            s.spawn(move || {
                inst.enroll_with(
                    &a,
                    (),
                    Enrollment::as_process("SAME").timeout(Duration::from_millis(100)),
                )
            })
        };
        let r2 = inst.enroll_with(
            &c,
            (),
            Enrollment::as_process("SAME").timeout(Duration::from_millis(100)),
        );
        // The matcher must refuse to cast the same process twice, so the
        // (two-role) critical set never fills and both time out.
        assert_eq!(h1.join().unwrap().unwrap_err(), ScriptError::Timeout);
        assert_eq!(r2.unwrap_err(), ScriptError::Timeout);
    });
    assert_eq!(inst.completed_performances(), 0);
}

#[test]
fn self_communication_rejected() {
    let mut b = Script::<u8>::builder("selfsend");
    let only = b.role("only", |ctx, ()| {
        assert_eq!(
            ctx.send(&RoleId::new("only"), 1).unwrap_err(),
            ScriptError::SelfCommunication
        );
        assert_eq!(
            ctx.recv_from(&RoleId::new("only")).unwrap_err(),
            ScriptError::SelfCommunication
        );
        Ok(())
    });
    let script = b.build().unwrap();
    script.instance().enroll(&only, ()).unwrap();
}

#[test]
fn recv_any_reports_all_partners_terminated() {
    let mut b = Script::<u8>::builder("drain");
    let sink = b.role("sink", |ctx, ()| {
        let mut got = 0;
        loop {
            match ctx.recv_any() {
                Ok(_) => got += 1,
                Err(ScriptError::AllPartnersTerminated) => return Ok(got),
                Err(e) => return Err(e),
            }
        }
    });
    let src = b.family("source", 3, |ctx, ()| {
        ctx.send(&RoleId::new("sink"), 1)?;
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Immediate);
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        for i in 0..3 {
            let inst = inst.clone();
            let src = src.clone();
            s.spawn(move || inst.enroll_member(&src, i, ()).unwrap());
        }
        let got = inst.enroll(&sink, ()).unwrap();
        assert_eq!(got, 3);
    });
}

#[test]
fn explicit_and_auto_open_indices_mix() {
    let mut b = Script::<u8>::builder("mix");
    let host = b.role("host", |_ctx, ()| Ok(()));
    let member = b.open_family("member", Some(8), |ctx, ()| {
        Ok(ctx.role().index().expect("indexed"))
    });
    b.initiation(Initiation::Immediate)
        .termination(Termination::Immediate)
        .critical_set(CriticalSet::new().role("host").family_at_least("member", 3));
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let hh = {
            let inst = inst.clone();
            s.spawn(move || inst.enroll(&host, ()))
        };
        // One explicit index 5 plus two auto-indexed members.
        let explicit = {
            let inst = inst.clone();
            let member = member.clone();
            s.spawn(move || inst.enroll_member(&member, 5, ()))
        };
        let autos: Vec<_> = (0..2)
            .map(|_| {
                let inst = inst.clone();
                let member = member.clone();
                s.spawn(move || inst.enroll_auto(&member, ()))
            })
            .collect();
        assert_eq!(explicit.join().unwrap().unwrap(), 5);
        let mut auto_idx: Vec<usize> = autos
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        auto_idx.sort_unstable();
        // Auto indices never collide with the explicit one.
        assert!(!auto_idx.contains(&5));
        assert_eq!(auto_idx.len(), 2);
        hh.join().unwrap().unwrap();
    });
}

#[test]
fn per_operation_timeouts_bound_blocking() {
    let mut b = Script::<u8>::builder("optimeout");
    let impatient = b.role("impatient", |ctx, ()| {
        // The partner exists but never sends.
        let t0 = std::time::Instant::now();
        let err = ctx
            .recv_from_timeout(&RoleId::new("mute"), Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, ScriptError::Timeout);
        assert!(t0.elapsed() < Duration::from_secs(2));
        // Same for a send nobody receives…
        let err = ctx
            .send_timeout(&RoleId::new("mute"), 1, Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, ScriptError::Timeout);
        // …and a selection.
        let err = ctx
            .select_timeout(
                vec![Guard::recv_from(RoleId::new("mute"))],
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert_eq!(err, ScriptError::Timeout);
        Ok(())
    });
    let mute = b.role("mute", |_ctx, ()| {
        std::thread::sleep(Duration::from_millis(300));
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let h = {
            let inst = inst.clone();
            s.spawn(move || inst.enroll(&mute, ()))
        };
        inst.enroll(&impatient, ()).unwrap();
        h.join().unwrap().unwrap();
    });
}

#[test]
fn critical_sets_tried_in_declaration_order() {
    // Both critical sets are satisfiable; the first one declared wins,
    // observable through which optional role joins the performance.
    let mut b = Script::<u8>::builder("prefer");
    let hub = b.role("hub", |ctx, ()| {
        // Report which partner is present; partners block on us until we
        // release them, so "terminated" here can only mean "barred".
        let first = !ctx.terminated(&RoleId::new("first"));
        let second = !ctx.terminated(&RoleId::new("second"));
        if first {
            ctx.send(&RoleId::new("first"), 1)?;
        }
        if second {
            ctx.send(&RoleId::new("second"), 1)?;
        }
        Ok((first, second))
    });
    let first = b.role("first", |ctx, ()| {
        ctx.recv_from(&RoleId::new("hub"))?;
        Ok(())
    });
    let second = b.role("second", |ctx, ()| {
        ctx.recv_from(&RoleId::new("hub"))?;
        Ok(())
    });
    b.critical_set(CriticalSet::new().role("hub").role("first"));
    b.critical_set(CriticalSet::new().role("hub").role("second"));
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();

    // Only "second" offers: set 2 fires.
    let inst = script.instance();
    let (f, sec) = std::thread::scope(|s| {
        let h = {
            let inst = inst.clone();
            let second = second.clone();
            s.spawn(move || inst.enroll(&second, ()))
        };
        let out = inst.enroll(&hub, ()).unwrap();
        h.join().unwrap().unwrap();
        out
    });
    assert!(!f && sec);

    // Both offer: set 1 covers first, and the greedy extension sweeps
    // "second" in too (the paper's "or both").
    let inst = script.instance();
    let (f, sec) = std::thread::scope(|s| {
        let h1 = {
            let inst = inst.clone();
            let first = first.clone();
            s.spawn(move || inst.enroll(&first, ()))
        };
        let h2 = {
            let inst = inst.clone();
            let second = second.clone();
            s.spawn(move || inst.enroll(&second, ()))
        };
        while inst.pending_enrollments() < 2 {
            std::thread::yield_now();
        }
        let out = inst.enroll(&hub, ()).unwrap();
        h1.join().unwrap().unwrap();
        h2.join().unwrap().unwrap();
        out
    });
    assert!(f && sec);
}

#[test]
fn try_recv_polls_without_blocking() {
    let mut b = Script::<u8>::builder("poll");
    let poller = b.role("poller", |ctx, ()| {
        // Nothing yet: poll returns None without blocking.
        assert_eq!(ctx.try_recv_from(&RoleId::new("pusher"))?, None);
        // Tell the pusher to go ahead, then poll until the value lands.
        ctx.send(&RoleId::new("pusher"), 0)?;
        loop {
            if let Some(v) = ctx.try_recv_from(&RoleId::new("pusher"))? {
                return Ok(v);
            }
            std::thread::yield_now();
        }
    });
    let pusher = b.role("pusher", |ctx, ()| {
        ctx.recv_from(&RoleId::new("poller"))?;
        ctx.send(&RoleId::new("poller"), 42)?;
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    let got = std::thread::scope(|s| {
        let i2 = inst.clone();
        let pusher = pusher.clone();
        let h = s.spawn(move || i2.enroll(&pusher, ()));
        let got = inst.enroll(&poller, ()).unwrap();
        h.join().unwrap().unwrap();
        got
    });
    assert_eq!(got, 42);
}

/// A minimal gossip-shaped open script: members report to a counting
/// seeder; the cast freezes at `seeder + at least one member`. The
/// member's data parameter is a flag it raises the moment its body
/// starts, so tests can sequence against admission into the gathering
/// performance.
type OpenScript = (
    Script<u8>,
    RoleHandle<u8, (), u64>,
    FamilyHandle<u8, Arc<AtomicBool>, usize>,
);

fn open_family_script(max: usize) -> OpenScript {
    let mut b = Script::<u8>::builder("open_edges");
    let seeder = b.role("seeder", |ctx, ()| {
        let mut got = 0u64;
        loop {
            match ctx.recv_any() {
                Ok(_) => got += 1,
                Err(ScriptError::AllPartnersTerminated) => return Ok(got),
                Err(e) => return Err(e),
            }
        }
    });
    let member = b.open_family("member", Some(max), |ctx, started: Arc<AtomicBool>| {
        started.store(true, Ordering::SeqCst);
        ctx.send(&RoleId::new("seeder"), 1)?;
        Ok(ctx.role().index().expect("indexed"))
    });
    b.initiation(Initiation::Immediate)
        .termination(Termination::Immediate)
        .critical_set(
            CriticalSet::new()
                .role("seeder")
                .family_at_least("member", 1),
        );
    (b.build().unwrap(), seeder, member)
}

fn await_flag(flag: &AtomicBool) {
    let t0 = std::time::Instant::now();
    while !flag.load(Ordering::SeqCst) {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "member never admitted"
        );
        std::thread::yield_now();
    }
}

/// Enrolling into an open family after the previous cast froze must not
/// error or hang: the late member gathers into the *next* performance
/// and completes once that one fires.
#[test]
fn frozen_cast_late_enrollment_joins_next_performance() {
    let (script, seeder, member) = open_family_script(8);
    let inst = script.instance();
    std::thread::scope(|s| {
        for round in 0..2 {
            let started = Arc::new(AtomicBool::new(false));
            let h = {
                let inst = inst.clone();
                let member = member.clone();
                let started = started.clone();
                s.spawn(move || inst.enroll_auto(&member, started))
            };
            await_flag(&started);
            // Freeze the cast (seeder + the one gathered member covers
            // the critical set). In round 1 this enrollment arrives
            // *after* round 0's cast froze and dissolved.
            assert_eq!(inst.enroll(&seeder, ()).unwrap(), 1, "round {round}");
            assert_eq!(h.join().unwrap().unwrap(), 0, "round {round}");
        }
    });
    assert_eq!(inst.completed_performances(), 2);
}

/// An enrollment that cannot be admitted (the gathering cast is at the
/// family's max) waits, and a deadline turns that wait into a clean
/// `Timeout` — no panic, no watchdog window, instance still usable.
#[test]
fn frozen_cast_overflow_enrollment_times_out_cleanly() {
    let (script, seeder, member) = open_family_script(1);
    let inst = script.instance();
    std::thread::scope(|s| {
        let started = Arc::new(AtomicBool::new(false));
        let h = {
            let inst = inst.clone();
            let member = member.clone();
            let started = started.clone();
            s.spawn(move || inst.enroll_auto(&member, started))
        };
        await_flag(&started);
        // The gathering performance already holds its one member; this
        // one can only wait, and the deadline expires first.
        let t0 = std::time::Instant::now();
        let err = inst
            .enroll_auto_with(
                &member,
                Arc::new(AtomicBool::new(false)),
                Enrollment::new().timeout(Duration::from_millis(150)),
            )
            .unwrap_err();
        assert_eq!(err, ScriptError::Timeout);
        assert!(t0.elapsed() < Duration::from_secs(5));
        // The instance is unharmed: the gathered performance completes…
        assert_eq!(inst.enroll(&seeder, ()).unwrap(), 1);
        assert_eq!(h.join().unwrap().unwrap(), 0);
        // …and the once-rejected member can enroll again into the next.
        let started = Arc::new(AtomicBool::new(false));
        let h = {
            let inst = inst.clone();
            let member = member.clone();
            let started = started.clone();
            s.spawn(move || inst.enroll_auto(&member, started))
        };
        await_flag(&started);
        assert_eq!(inst.enroll(&seeder, ()).unwrap(), 1);
        assert_eq!(h.join().unwrap().unwrap(), 0);
    });
    assert_eq!(inst.completed_performances(), 2);
}

/// `close()` gives gathered-but-unfrozen members a clean
/// `PerformanceAborted`, and later enrollments a clean
/// `InstanceClosed`.
#[test]
fn close_unblocks_gathering_member_and_rejects_late_enrollments() {
    let (script, _seeder, member) = open_family_script(8);
    let inst = script.instance();
    std::thread::scope(|s| {
        let started = Arc::new(AtomicBool::new(false));
        let h = {
            let inst = inst.clone();
            let member = member.clone();
            let started = started.clone();
            s.spawn(move || inst.enroll_auto(&member, started))
        };
        await_flag(&started);
        inst.close();
        // The member was blocked mid-rendezvous in a performance that
        // will never freeze; close aborts it rather than stranding it.
        assert_eq!(
            h.join().unwrap().unwrap_err(),
            ScriptError::PerformanceAborted
        );
    });
    assert_eq!(
        inst.enroll_auto(&member, Arc::new(AtomicBool::new(false)))
            .unwrap_err(),
        ScriptError::InstanceClosed
    );
}

/// `seal_cast()` on a gathering performance finishes the unfilled fixed
/// roles, so a member blocked on the absent seeder surfaces a prompt
/// `RoleUnavailable` instead of hanging out a watchdog window.
#[test]
fn seal_cast_surfaces_role_unavailable_to_gathering_straggler() {
    let (script, seeder, member) = open_family_script(8);
    let inst = script.instance();
    std::thread::scope(|s| {
        let started = Arc::new(AtomicBool::new(false));
        let h = {
            let inst = inst.clone();
            let member = member.clone();
            let started = started.clone();
            s.spawn(move || inst.enroll_auto(&member, started))
        };
        await_flag(&started);
        let t0 = std::time::Instant::now();
        inst.seal_cast();
        assert_eq!(
            h.join().unwrap().unwrap_err(),
            ScriptError::RoleUnavailable(RoleId::new("seeder"))
        );
        assert!(t0.elapsed() < Duration::from_secs(2), "straggler hung");
    });
    // The instance remains usable for a full follow-up performance.
    std::thread::scope(|s| {
        let started = Arc::new(AtomicBool::new(false));
        let h = {
            let inst = inst.clone();
            let member = member.clone();
            let started = started.clone();
            s.spawn(move || inst.enroll_auto(&member, started))
        };
        await_flag(&started);
        assert_eq!(inst.enroll(&seeder, ()).unwrap(), 1);
        assert_eq!(h.join().unwrap().unwrap(), 0);
    });
}

/// Chaos: many processes hammer a small script concurrently across many
/// performances; nothing deadlocks, everything is serialized.
#[test]
fn chaos_many_concurrent_enrollments() {
    let mut b = Script::<u64>::builder("chaos");
    let left = b.role("left", |ctx, v: u64| {
        ctx.send(&RoleId::new("right"), v)?;
        Ok(())
    });
    let right = b.role("right", |ctx, ()| ctx.recv_from(&RoleId::new("left")));
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    const PER_SIDE: usize = 8;
    const ROUNDS: usize = 5;
    let total: u64 = std::thread::scope(|s| {
        let mut lefts = Vec::new();
        let mut rights = Vec::new();
        for t in 0..PER_SIDE {
            let inst_l = inst.clone();
            let left = left.clone();
            lefts.push(s.spawn(move || {
                for r in 0..ROUNDS {
                    inst_l.enroll(&left, (t * ROUNDS + r) as u64).unwrap();
                }
            }));
            let inst_r = inst.clone();
            let right = right.clone();
            rights.push(s.spawn(move || {
                let mut sum = 0;
                for _ in 0..ROUNDS {
                    sum += inst_r.enroll(&right, ()).unwrap();
                }
                sum
            }));
        }
        for l in lefts {
            l.join().unwrap();
        }
        rights.into_iter().map(|r| r.join().unwrap()).sum()
    });
    // Every sent value was received exactly once.
    let n = (PER_SIDE * ROUNDS) as u64;
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(inst.completed_performances(), n);
}

/// Finishes and the completion of a performance, in observation order,
/// in a log the enrolling threads also write their returns to.
struct FinishOrder(Arc<Mutex<Vec<String>>>);

impl Observer for FinishOrder {
    fn on_event(&self, event: TelemetryEvent) {
        match event.payload {
            TelemetryPayload::RoleFinished { role } => self
                .0
                .lock()
                .unwrap()
                .push(format!("finished {}", role.name())),
            TelemetryPayload::PerformanceCompleted { .. } => {
                self.0.lock().unwrap().push("completed".to_string())
            }
            _ => {}
        }
    }
}

/// Delayed termination is a barrier on the *last* finish: a sibling's
/// finish that is not the last wakes nobody, and the last one releases
/// every role that finished early — none is left asleep.
#[test]
fn delayed_termination_releases_early_finishers_on_the_last_finish() {
    let mut b = Script::<u8>::builder("barrier");
    let early = b.role("early", |_ctx, ()| Ok(()));
    let mid = b.role("mid", |_ctx, ()| Ok(()));
    let late = b.role("late", |_ctx, hold: Arc<AtomicBool>| {
        await_flag(&hold);
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let inst = b.build().unwrap().instance();
    let log = Arc::new(Mutex::new(Vec::new()));
    inst.set_observer(Arc::new(FinishOrder(Arc::clone(&log))));
    let hold = Arc::new(AtomicBool::new(false));
    let has = |entry: &str| log.lock().unwrap().iter().any(|e| e == entry);
    std::thread::scope(|s| {
        let returned = |name: &'static str| {
            let log = Arc::clone(&log);
            move || log.lock().unwrap().push(format!("returned {name}"))
        };
        for (role, done) in [(&early, returned("early")), (&mid, returned("mid"))] {
            let inst = inst.clone();
            s.spawn(move || {
                inst.enroll(role, ()).unwrap();
                done();
            });
        }
        let (inst, hold2, done) = (inst.clone(), Arc::clone(&hold), returned("late"));
        s.spawn(move || {
            inst.enroll(&late, hold2).unwrap();
            done();
        });
        let t0 = Instant::now();
        while !(has("finished early") && has("finished mid")) {
            assert!(t0.elapsed() < Duration::from_secs(5), "roles never ran");
            std::thread::yield_now();
        }
        // Time for a role released by a sibling's finish to show itself.
        std::thread::sleep(Duration::from_millis(50));
        let so_far = log.lock().unwrap().clone();
        assert_eq!(so_far.len(), 2, "two finishes and no return: {so_far:?}");
        hold.store(true, Ordering::SeqCst);
    });
    let log = log.lock().unwrap();
    assert_eq!(log[2], "finished late");
    assert_eq!(log[3], "completed");
    let mut returns = log[4..].to_vec();
    returns.sort();
    assert_eq!(
        returns,
        ["returned early", "returned late", "returned mid"],
        "every role is released, and only after the completion: {log:?}"
    );
}

/// An enrollment that admits nobody wakes nobody: an enroller already
/// waiting still times out at its own deadline, not at the newcomer's.
#[test]
fn an_enrollment_admitting_nobody_leaves_a_waiters_deadline_alone() {
    let mut b = Script::<u8>::builder("three");
    let a = b.role("a", |_ctx, ()| Ok(()));
    let c = b.role("c", |_ctx, ()| Ok(()));
    b.role("d", |_ctx, ()| Ok(()));
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let inst = b.build().unwrap().instance();
    std::thread::scope(|s| {
        let waiter = {
            let inst = inst.clone();
            s.spawn(move || {
                let t0 = Instant::now();
                let r = inst.enroll_with(
                    &a,
                    (),
                    Enrollment::new().timeout(Duration::from_millis(150)),
                );
                (r, t0.elapsed())
            })
        };
        let t0 = Instant::now();
        while inst.pending_enrollments() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "a never queued");
            std::thread::yield_now();
        }
        let newcomer = inst.enroll_with(&c, (), Enrollment::new().timeout(Duration::from_secs(1)));
        let (r, waited) = waiter.join().unwrap();
        assert_eq!(r.unwrap_err(), ScriptError::Timeout);
        assert!(
            waited < Duration::from_millis(600),
            "a waited {waited:?}: out at its own deadline, not c's"
        );
        assert_eq!(newcomer.unwrap_err(), ScriptError::Timeout);
    });
    assert_eq!(inst.completed_performances(), 0);
}
