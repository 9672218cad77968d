//! Chaos soak: deterministic fault injection, watchdog recovery, and
//! retry, replayed — the same seed must reproduce the same fault
//! schedule and the same event log, byte for byte.
//!
//! The protocol under test is a request/reply pair, chosen because every
//! fault class wedges or degrades it in a deterministic way:
//!
//! * a dropped request or reply blocks both roles → the watchdog calls
//!   the performance stalled and both enrollments return
//!   [`ScriptError::Stalled`];
//! * a crashed peer fails both roles with `RoleUnavailable`;
//! * delays and duplicates perturb timing without changing outcomes.
//!
//! A whole-round retry policy then replays failed rounds; because fault
//! decisions are pure functions of (seed, edge, sequence number), the
//! number of attempts each round consumes — and therefore the global
//! performance numbering, fault schedule, and event log — is identical
//! across runs.

use std::sync::Arc;
use std::time::Duration;

use script::core::{
    FaultPlan, Initiation, Instance, RetryPolicy, RingObserver, RoleId, Script, ScriptError,
    TelemetryPayload, Termination, WatchdogPolicy,
};

/// Builds the request/reply script and a fully chaos-instrumented
/// instance of it, with the ring log subscribed to its telemetry.
fn chaos_instance(seed: u64) -> (Instance<u8>, ChaosRoles, Arc<RingObserver>) {
    let mut b = Script::<u8>::builder("chaos_request_reply");
    let requester = b.role("requester", |ctx, v: u8| {
        ctx.send(&RoleId::new("replier"), v)?;
        ctx.recv_from(&RoleId::new("replier"))
    });
    let replier = b.role("replier", |ctx, ()| {
        let v = ctx.recv_from(&RoleId::new("requester"))?;
        ctx.send(&RoleId::new("requester"), v.wrapping_add(1))?;
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    inst.set_chaos_seed(seed);
    inst.set_fault_plan(
        FaultPlan::new(seed)
            .with_drop(0.25)
            .with_delay(0.2, Duration::from_micros(200))
            .with_duplicate(0.2),
    );
    inst.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_millis(60)));
    let ring = Arc::new(RingObserver::new(8192));
    inst.set_observer(Arc::clone(&ring) as _);
    (inst, ChaosRoles { requester, replier }, ring)
}

struct ChaosRoles {
    requester: script::core::RoleHandle<u8, u8, u8>,
    replier: script::core::RoleHandle<u8, (), ()>,
}

/// One round: both roles enroll once; the round fails if either side
/// failed. Every failure mode terminates both sides (the watchdog frees
/// wedged roles), so the round never hangs.
fn run_round(inst: &Instance<u8>, roles: &ChaosRoles, value: u8) -> Result<u8, ScriptError> {
    std::thread::scope(|s| {
        let h = {
            let inst = inst.clone();
            let replier = roles.replier.clone();
            s.spawn(move || inst.enroll(&replier, ()))
        };
        let got = inst.enroll(&roles.requester, value);
        let replied = h.join().expect("replier thread does not panic");
        replied?;
        got
    })
}

/// Runs `rounds` retried rounds and returns the chaos-relevant event
/// log, formatted. Engine events whose order depends on thread arrival
/// (queueing, admission) are filtered out; fault injections, stalls,
/// and completions are schedule-determined and must replay exactly.
fn chaos_log(seed: u64, rounds: u8) -> (Vec<String>, u32) {
    let (inst, roles, ring) = chaos_instance(seed);
    let policy = RetryPolicy::new(4)
        .with_base(Duration::from_millis(1))
        .with_cap(Duration::from_millis(4))
        .with_seed(seed);
    let mut failed_rounds = 0u32;
    for value in 0..rounds {
        let retryable =
            |e: &ScriptError| e.is_transient() || matches!(e, ScriptError::RoleUnavailable(_));
        match policy.run_if(retryable, |_attempt| run_round(&inst, &roles, value)) {
            Ok(got) => assert_eq!(got, value.wrapping_add(1)),
            Err(_) => failed_rounds += 1,
        }
    }
    let log = ring
        .drain()
        .into_iter()
        .filter_map(|e| {
            let performance = e.performance?;
            match e.payload {
                TelemetryPayload::Fault(fault) => Some(format!("{performance:?} fault {fault}")),
                TelemetryPayload::PerformanceStalled { .. } => {
                    Some(format!("{performance:?} stalled"))
                }
                TelemetryPayload::PerformanceCompleted { aborted } => {
                    Some(format!("{performance:?} completed aborted={aborted}"))
                }
                _ => None,
            }
        })
        .collect();
    (log, failed_rounds)
}

/// Non-ignored smoke variant: a short soak, replayed once.
#[test]
fn chaos_smoke_replays_identically() {
    let (a, failed_a) = chaos_log(0xC0FFEE, 8);
    let (b, failed_b) = chaos_log(0xC0FFEE, 8);
    assert_eq!(a, b, "same seed must produce the same event log");
    assert_eq!(failed_a, failed_b);
    assert!(
        a.iter().any(|l| l.contains("fault")),
        "the plan should have injected at least one fault: {a:?}"
    );
}

/// Different seeds must explore different schedules (otherwise the soak
/// proves nothing).
#[test]
fn chaos_seeds_differ() {
    let (a, _) = chaos_log(1, 8);
    let (b, _) = chaos_log(2, 8);
    assert_ne!(a, b, "distinct seeds should produce distinct schedules");
}

/// The full soak: longer runs over several seeds, each replayed.
#[test]
#[ignore = "multi-seed chaos soak; run with --ignored"]
fn chaos_soak_replays_identically() {
    for seed in [3, 7, 0xDEAD_BEEF, 0x5EED] {
        let (a, failed_a) = chaos_log(seed, 40);
        let (b, failed_b) = chaos_log(seed, 40);
        assert_eq!(a, b, "seed {seed}: event logs diverged");
        assert_eq!(failed_a, failed_b, "seed {seed}: outcomes diverged");
    }
}

/// A crash plan: peers die at their k-th operation, both sides observe
/// it, and the instance recovers for the next round.
#[test]
fn chaos_crash_is_recoverable() {
    let mut b = Script::<u8>::builder("crashy");
    let requester = b.role("requester", |ctx, v: u8| {
        ctx.send(&RoleId::new("replier"), v)?;
        ctx.recv_from(&RoleId::new("replier"))
    });
    let replier = b.role("replier", |ctx, ()| {
        let v = ctx.recv_from(&RoleId::new("requester"))?;
        ctx.send(&RoleId::new("requester"), v)?;
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    inst.set_chaos_seed(5);
    // Every peer crashes at its second network operation.
    inst.set_fault_plan(FaultPlan::new(5).with_crash(1.0, 2));
    inst.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_millis(60)));
    let roles = ChaosRoles { requester, replier };
    let err = run_round(&inst, &roles, 3).unwrap_err();
    assert!(
        matches!(err, ScriptError::RoleUnavailable(_) | ScriptError::Stalled),
        "expected a crash-induced failure, got {err:?}"
    );
    // Clear the plan: the same instance performs cleanly (this replier
    // echoes the value unchanged).
    inst.clear_fault_plan();
    inst.clear_watchdog();
    assert_eq!(run_round(&inst, &roles, 3).unwrap(), 3);
}

/// Regression: an enrollment deadline that expires *during the
/// communication phase* (the role is admitted and blocked in a receive)
/// must surface as `Timeout`, not hang.
#[test]
fn enrollment_deadline_expires_mid_communication() {
    let mut b = Script::<u8>::builder("mid_comm_timeout");
    let waiter = b.role("waiter", |ctx, ()| {
        // The partner never sends: only the enrollment deadline can end
        // this receive.
        ctx.recv_from(&RoleId::new("mute"))?;
        Ok(())
    });
    let mute = b.role("mute", |ctx, ()| {
        // Stays enrolled (and silent) past the waiter's deadline; once
        // the waiter departs, this receive fails with RoleUnavailable —
        // also fine.
        match ctx.recv_from_timeout(&RoleId::new("waiter"), Duration::from_millis(300)) {
            Ok(_) | Err(ScriptError::Timeout) | Err(ScriptError::RoleUnavailable(_)) => Ok(()),
            Err(e) => Err(e),
        }
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Immediate);
    let script = b.build().unwrap();
    let inst = script.instance();
    std::thread::scope(|s| {
        let h = {
            let inst = inst.clone();
            let mute = mute.clone();
            s.spawn(move || inst.enroll(&mute, ()))
        };
        let start = std::time::Instant::now();
        let err = inst
            .enroll_with(
                &waiter,
                (),
                script::core::Enrollment::new().timeout(Duration::from_millis(60)),
            )
            .unwrap_err();
        assert_eq!(err, ScriptError::Timeout);
        assert!(
            start.elapsed() < Duration::from_millis(280),
            "timeout should fire at the deadline, not at partner exit"
        );
        h.join().unwrap().unwrap();
    });
}

/// Every seeded derivation in the workspace draws from the one
/// `splitmix64` / `SeededFnv` pair, and each still yields the values it
/// did before they were shared: a moved bit would move every chaos
/// schedule, gossip view, backoff and descriptor signature.
#[test]
fn seeded_derivations_keep_their_golden_values() {
    // Per-performance seeds, as a network factory is handed them.
    let mut b = Script::<u8>::builder("golden");
    let only = b.role("only", |_ctx, ()| Ok(()));
    let inst = b.build().unwrap().instance();
    inst.set_chaos_seed(0x5eed);
    let seeds = Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen = Arc::clone(&seeds);
    inst.set_network_factory(Arc::new(move |perf: &script::core::PerformanceNet| {
        seen.lock().unwrap().push(perf.seed);
        script::chan::Network::new()
    }));
    inst.enroll(&only, ()).unwrap();
    inst.enroll(&only, ()).unwrap();
    assert_eq!(
        *seeds.lock().unwrap(),
        [Some(0x09f1_fd9d_03f0_a9b4), Some(0x5532_7416_1bbf_8475)]
    );

    // A gossip view: its ring successor, then two seeded draws.
    let members: Vec<usize> = (0..16).collect();
    let view = script::lib::gossip::PeerView::new(7, 3).view(2, 0, &members);
    assert_eq!(view, [1, 11, 12]);

    // A descriptor's MAC.
    let descriptor =
        script::net::PerfDescriptor::new(9, 2, Some(42), "127.0.0.1:7000".into()).sign(0xfeed);
    assert_eq!(descriptor.sig, 0x239a_ad50_5ba3_e327);

    // 64 drop decisions on one edge, one bit each.
    let plan = FaultPlan::new(42).with_drop(0.5);
    let (from, to) = (RoleId::new("sender"), RoleId::indexed("recipient", 1));
    let drops = (0..64u64)
        .filter(|&seq| plan.decide_drop(&from, &to, seq))
        .fold(0u64, |bits, seq| bits | 1 << seq);
    assert_eq!(drops, 0x36f4_629c_700d_560e);

    // Retry jitter.
    let policy = RetryPolicy::new(5)
        .with_base(Duration::from_millis(1))
        .with_seed(42);
    let nanos: Vec<u128> = policy.backoffs().map(|d| d.as_nanos()).collect();
    assert_eq!(nanos, [2_275_413, 5_973_569, 11_851_043, 10_011_603]);
}
