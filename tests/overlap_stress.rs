//! Overlapping-activation stress (paper §II): many performances of the
//! *same* script instance in flight at once, each on its own engine
//! shard and network.
//!
//! A [`std::sync::Barrier`] sized for every role body forces all
//! performances to be live simultaneously — no body can communicate
//! until all of them have been admitted — so completion proves the
//! engine really does run them side by side rather than serially.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use script::core::{
    splitmix64, Initiation, Instance, PerformanceId, RingObserver, RoleHandle, RoleId, Script,
    TelemetryPayload, Termination, WatchdogPolicy,
};

const PERFS: usize = 8;

/// A role whose body rendezvouses on a shared barrier before
/// communicating.
type BarrierRole = RoleHandle<u8, Arc<Barrier>, ()>;

/// Drains `ring`, keeping the events of a performance with its id.
fn perf_events(ring: &RingObserver) -> Vec<(PerformanceId, TelemetryPayload)> {
    ring.drain()
        .into_iter()
        .filter_map(|e| Some((e.performance?, e.payload)))
        .collect()
}

/// Builds the two-role ping/pong script whose bodies rendezvous on
/// `barrier` before communicating, with a ring log subscribed.
fn overlap_script() -> (Instance<u8>, BarrierRole, BarrierRole, Arc<RingObserver>) {
    let mut b = Script::<u8>::builder("overlap_stress");
    let ping = b.role("ping", |ctx, barrier: Arc<Barrier>| {
        barrier.wait();
        ctx.send(&RoleId::new("pong"), 7)
    });
    let pong = b.role("pong", |ctx, barrier: Arc<Barrier>| {
        barrier.wait();
        let v = ctx.recv_from(&RoleId::new("ping"))?;
        assert_eq!(v, 7);
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    let script = b.build().unwrap();
    let inst = script.instance();
    // A stuck run degrades to a clean `Stalled` failure instead of a
    // hang.
    inst.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_secs(5)));
    let ring = Arc::new(RingObserver::new(8192));
    inst.set_observer(Arc::clone(&ring) as _);
    (inst, ping, pong, ring)
}

/// Runs `PERFS` overlapping performances, with worker start order given
/// by `order` (indices `0..PERFS` for ping workers, `PERFS..2 * PERFS`
/// for pong workers).
fn run_overlap(inst: &Instance<u8>, ping: &BarrierRole, pong: &BarrierRole, order: &[usize]) {
    let barrier = Arc::new(Barrier::new(2 * PERFS));
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for &w in order {
            let inst = inst.clone();
            let barrier = Arc::clone(&barrier);
            let ping = ping.clone();
            let pong = pong.clone();
            handles.push(s.spawn(move || {
                if w < PERFS {
                    inst.enroll(&ping, barrier)
                } else {
                    inst.enroll(&pong, barrier)
                }
            }));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
    });
}

/// Checks the per-performance event ordering invariants and returns the
/// set of distinct performance ids seen.
fn assert_event_order(events: &[(PerformanceId, TelemetryPayload)]) -> Vec<PerformanceId> {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Trace {
        started: Vec<usize>,
        admitted: Vec<usize>,
        finished: Vec<usize>,
        completed: Vec<usize>,
    }
    let mut traces: BTreeMap<PerformanceId, Trace> = BTreeMap::new();
    for (i, (performance, e)) in events.iter().enumerate() {
        let trace = traces.entry(*performance).or_default();
        match e {
            TelemetryPayload::PerformanceStarted => trace.started.push(i),
            TelemetryPayload::RoleAdmitted { .. } => trace.admitted.push(i),
            TelemetryPayload::RoleFinished { .. } => trace.finished.push(i),
            TelemetryPayload::PerformanceCompleted { aborted } => {
                assert!(!aborted, "performance {performance:?} aborted");
                trace.completed.push(i)
            }
            _ => {}
        }
    }
    for (perf, t) in &traces {
        assert_eq!(t.started.len(), 1, "{perf:?}: exactly one start");
        assert_eq!(t.admitted.len(), 2, "{perf:?}: both roles admitted");
        assert_eq!(t.finished.len(), 2, "{perf:?}: both roles finished");
        assert_eq!(t.completed.len(), 1, "{perf:?}: exactly one completion");
        let started = t.started[0];
        let completed = t.completed[0];
        for &a in &t.admitted {
            assert!(started < a, "{perf:?}: start precedes admission");
            for &f in &t.finished {
                assert!(a < f, "{perf:?}: admission precedes any finish");
            }
        }
        for &f in &t.finished {
            assert!(f < completed, "{perf:?}: finishes precede completion");
        }
    }
    traces.keys().copied().collect()
}

/// All eight performances must be live before any can complete: the
/// barrier blocks every role body, so every `PerformanceStarted` has to
/// appear in the log before the first `PerformanceCompleted`.
#[test]
fn eight_overlapping_performances_complete_in_order() {
    let (inst, ping, pong, ring) = overlap_script();
    let order: Vec<usize> = (0..2 * PERFS).collect();
    run_overlap(&inst, &ping, &pong, &order);
    assert_eq!(inst.completed_performances(), PERFS as u64);

    let events = perf_events(&ring);
    let perfs = assert_event_order(&events);
    assert_eq!(perfs.len(), PERFS, "eight distinct performance ids");

    let last_start = events
        .iter()
        .rposition(|(_, e)| matches!(e, TelemetryPayload::PerformanceStarted))
        .unwrap();
    let first_complete = events
        .iter()
        .position(|(_, e)| matches!(e, TelemetryPayload::PerformanceCompleted { .. }))
        .unwrap();
    assert!(
        last_start < first_complete,
        "all performances start before any completes (genuine overlap)"
    );
}

/// The same stress under shuffled arrival order and varying chaos seeds
/// (which re-seed each performance's network delivery order): the
/// invariants are order- and seed-independent.
#[test]
fn overlap_stress_survives_seed_and_arrival_shuffle() {
    for seed in [11_u64, 42, 1983] {
        let (inst, ping, pong, ring) = overlap_script();
        inst.set_chaos_seed(seed);
        let order = shuffled(2 * PERFS, seed);
        run_overlap(&inst, &ping, &pong, &order);
        assert_eq!(inst.completed_performances(), PERFS as u64, "seed {seed}");
        let perfs = assert_event_order(&perf_events(&ring));
        assert_eq!(perfs.len(), PERFS, "seed {seed}");
    }
}

/// Deterministic Fisher–Yates shuffle of `0..n` driven by SplitMix64.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}
