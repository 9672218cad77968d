//! Failure injection across the stack: panicking roles, absent partners,
//! conflicting constraints, closed instances, and recovery.

use std::time::Duration;

use script::core::{
    CriticalSet, Enrollment, FaultPlan, Guard, Initiation, ProcessSel, RoleId, Script, ScriptError,
    Termination, WatchdogPolicy,
};
use script::lib::broadcast::{self, Order};

#[test]
fn panicking_recipient_aborts_star_broadcast() {
    let mut b = Script::<u64>::builder("boom_star");
    let sender = b.role("sender", |ctx, v: u64| {
        ctx.send(&RoleId::indexed("recipient", 0), v)?;
        ctx.send(&RoleId::indexed("recipient", 1), v)?;
        Ok(())
    });
    let recipient = b.family("recipient", 2, |ctx, explode: bool| {
        if explode {
            panic!("injected recipient failure");
        }
        ctx.recv_from(&RoleId::new("sender"))
    });
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let bomber = {
            let inst = inst.clone();
            let r = recipient.clone();
            s.spawn(move || inst.enroll_member(&r, 0, true))
        };
        let victim = {
            let inst = inst.clone();
            let r = recipient.clone();
            s.spawn(move || inst.enroll_member(&r, 1, false))
        };
        let sender_result = inst.enroll(&sender, 9);
        assert!(sender_result.is_err());
        assert_eq!(
            bomber.join().unwrap().unwrap_err(),
            ScriptError::RolePanicked(RoleId::indexed("recipient", 0))
        );
        assert_eq!(
            victim.join().unwrap().unwrap_err(),
            ScriptError::PerformanceAborted
        );
    });
    // The instance stays usable.
    std::thread::scope(|s| {
        let r0 = {
            let inst = inst.clone();
            let r = recipient.clone();
            s.spawn(move || inst.enroll_member(&r, 0, false))
        };
        let r1 = {
            let inst = inst.clone();
            let r = recipient.clone();
            s.spawn(move || inst.enroll_member(&r, 1, false))
        };
        inst.enroll(&sender, 10).unwrap();
        assert_eq!(r0.join().unwrap().unwrap(), 10);
        assert_eq!(r1.join().unwrap().unwrap(), 10);
    });
}

#[test]
fn chaos_aborted_broadcast_leaves_instance_usable() {
    // A total-loss fault plan wrecks one star-broadcast performance; the
    // watchdog (or fail-fast termination detection) releases everyone.
    // With the plan cleared, the same instance admits a fresh cast and
    // completes cleanly.
    let b = broadcast::star::<u64>(2, Order::Sequential);
    let inst = b.script.instance();
    inst.set_chaos_seed(11);
    inst.set_fault_plan(FaultPlan::new(11).with_drop(1.0));
    inst.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_millis(80)));
    let err = broadcast::run_on(&inst, &b, 7).unwrap_err();
    assert!(
        matches!(
            err,
            ScriptError::Stalled
                | ScriptError::RoleUnavailable(_)
                | ScriptError::PerformanceAborted
        ),
        "expected a chaos-induced failure, got {err:?}"
    );
    inst.clear_fault_plan();
    inst.clear_watchdog();
    assert_eq!(broadcast::run_on(&inst, &b, 8).unwrap(), vec![8, 8]);
}

#[test]
fn absent_partner_times_out_cleanly() {
    let b = broadcast::pipeline::<u64>(3);
    let inst = b.script.instance();
    // Sender enrolls and delivers to recipient 0; recipient 1 never
    // arrives, so recipient 0 blocks forwarding and times out.
    std::thread::scope(|s| {
        let sender = {
            let inst = inst.clone();
            let h = b.sender.clone();
            s.spawn(move || {
                inst.enroll_with(&h, 5, Enrollment::new().timeout(Duration::from_millis(300)))
            })
        };
        let r0 = inst.enroll_member_with(
            &b.recipient,
            0,
            (),
            Enrollment::new().timeout(Duration::from_millis(300)),
        );
        // Immediate initiation let the sender deliver and leave; the
        // stuck forwarder fails with Timeout.
        assert!(sender.join().unwrap().is_ok());
        assert_eq!(r0.unwrap_err(), ScriptError::Timeout);
    });
}

#[test]
fn unsatisfiable_partner_constraints_block_forever() {
    let mut b = Script::<u8>::builder("nomatch");
    let left = b.role("left", |_ctx, ()| Ok(()));
    let right = b.role("right", |_ctx, ()| Ok(()));
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let l = {
            let inst = inst.clone();
            let left = left.clone();
            s.spawn(move || {
                inst.enroll_with(
                    &left,
                    (),
                    Enrollment::as_process("L")
                        .partner("right", ProcessSel::is("NOT_R"))
                        .timeout(Duration::from_millis(100)),
                )
            })
        };
        let r = inst.enroll_with(
            &right,
            (),
            Enrollment::as_process("R").timeout(Duration::from_millis(100)),
        );
        assert_eq!(l.join().unwrap().unwrap_err(), ScriptError::Timeout);
        assert_eq!(r.unwrap_err(), ScriptError::Timeout);
    });
    assert_eq!(inst.completed_performances(), 0);
}

#[test]
fn close_aborts_running_performance() {
    let mut b = Script::<u8>::builder("close_me");
    let waiter = b.role("waiter", |ctx, ()| {
        // Blocks forever: the partner never sends.
        ctx.recv_from(&RoleId::new("silent"))
    });
    let silent = b.role("silent", |_ctx, ()| {
        std::thread::sleep(Duration::from_millis(400));
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Immediate);
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let w = {
            let inst = inst.clone();
            let waiter = waiter.clone();
            s.spawn(move || inst.enroll(&waiter, ()))
        };
        let sil = {
            let inst = inst.clone();
            s.spawn(move || inst.enroll(&silent, ()))
        };
        std::thread::sleep(Duration::from_millis(50));
        inst.close();
        assert_eq!(
            w.join().unwrap().unwrap_err(),
            ScriptError::PerformanceAborted
        );
        // The sleeping role finishes its body; its enrollment reports
        // the abort too (its performance died under it).
        let _ = sil.join().unwrap();
        assert_eq!(
            inst.enroll(&waiter, ()).unwrap_err(),
            ScriptError::InstanceClosed
        );
    });
}

#[test]
fn watch_guards_survive_partner_crash() {
    // A server keeps serving while one of two clients panics.
    let mut b = Script::<u8>::builder("resilient");
    let server = b.role("server", |ctx, ()| {
        let mut got = 0;
        loop {
            let a_done = ctx.terminated(&RoleId::new("a"));
            let b_done = ctx.terminated(&RoleId::new("b"));
            if a_done && b_done {
                return Ok(got);
            }
            match ctx.select(vec![
                Guard::recv_from(RoleId::new("a")).when(!a_done),
                Guard::recv_from(RoleId::new("b")).when(!b_done),
                Guard::watch(RoleId::new("a")).when(!a_done),
                Guard::watch(RoleId::new("b")).when(!b_done),
            ]) {
                Ok(script::core::Event::Received { .. }) => got += 1,
                Ok(_) => {}
                Err(ScriptError::PerformanceAborted) => return Ok(got),
                Err(e) => return Err(e),
            }
        }
    });
    let a = b.role("a", |ctx, ()| ctx.send(&RoleId::new("server"), 1));
    let b_role = b.role("b", |_ctx, ()| -> Result<(), ScriptError> {
        panic!("client b crashes before sending");
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Immediate);
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let sh = {
            let inst = inst.clone();
            s.spawn(move || inst.enroll(&server, ()))
        };
        let ah = {
            let inst = inst.clone();
            s.spawn(move || inst.enroll(&a, ()))
        };
        let bh = {
            let inst = inst.clone();
            s.spawn(move || inst.enroll(&b_role, ()))
        };
        assert!(matches!(
            bh.join().unwrap().unwrap_err(),
            ScriptError::RolePanicked(_)
        ));
        // The server's enrollment either served `a` before the abort or
        // was itself released with an abort error; both are sound.
        let served = sh.join().unwrap();
        let a_out = ah.join().unwrap();
        match (&served, &a_out) {
            (Ok(_), _) | (_, Err(_)) => {}
            other => panic!("inconsistent outcomes: {other:?}"),
        }
    });
}

#[test]
fn critical_set_bars_latecomer_with_distinguished_error() {
    // Immediate initiation, critical set = {fast}: once `fast` has
    // enrolled (freezing the cast), communication with the never-filled
    // `slow` role fails with RoleUnavailable.
    let mut b = Script::<u8>::builder("barred");
    let fast = b.role("fast", |ctx, ()| {
        assert!(ctx.cast_frozen());
        assert!(ctx.terminated(&RoleId::new("slow")));
        match ctx.send(&RoleId::new("slow"), 1) {
            Err(ScriptError::RoleUnavailable(r)) => {
                assert_eq!(r, RoleId::new("slow"));
                Ok(())
            }
            other => panic!("expected RoleUnavailable, got {other:?}"),
        }
    });
    let _slow: script::core::RoleHandle<u8, (), ()> = b.role("slow", |_ctx, ()| Ok(()));
    b.initiation(Initiation::Immediate)
        .termination(Termination::Immediate)
        .critical_set(CriticalSet::new().role("fast"));
    let script = b.build().unwrap();
    let inst = script.instance();
    inst.enroll(&fast, ()).unwrap();
}
