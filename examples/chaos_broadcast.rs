//! Chaos engineering tour: a star broadcast performed on a lossy,
//! crash-prone network, recovered by a watchdog plus retry — and
//! deterministically, so the printed fault schedule is identical on
//! every run.
//!
//! ```sh
//! cargo run --example chaos_broadcast
//! ```

use std::sync::Arc;
use std::time::Duration;

use script::core::{
    FaultPlan, RetryPolicy, RingObserver, ScriptError, TelemetryPayload, WatchdogPolicy,
};
use script::lib::broadcast::{self, Order};

fn main() -> Result<(), ScriptError> {
    let b = broadcast::star::<u64>(3, Order::Sequential);

    // --- 1. Total loss, no recovery: the performance fails fast (the
    // sender "succeeds" and leaves, so waiters see RoleUnavailable) or,
    // where everyone wedges, the watchdog aborts it as stalled. ---
    let instance = b.script.instance();
    instance.set_chaos_seed(7);
    instance.set_fault_plan(FaultPlan::new(7).with_drop(1.0));
    instance.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_millis(60)));
    let err = broadcast::run_on(&instance, &b, 1).unwrap_err();
    println!("total loss, no retry   → {err}");

    // The same instance recovers once the plan is lifted.
    instance.clear_fault_plan();
    instance.clear_watchdog();
    let got = broadcast::run_on(&instance, &b, 2)?;
    println!("plan cleared           → delivered {got:?}");

    // --- 2. Partial loss + retry: the broadcast converges. ---
    let instance = b.script.instance();
    instance.set_chaos_seed(42);
    instance.set_fault_plan(
        FaultPlan::new(42)
            .with_drop(0.15)
            .with_delay(0.2, Duration::from_micros(300)),
    );
    instance.set_watchdog_policy(WatchdogPolicy::Fixed(Duration::from_millis(60)));
    // Telemetry is pushed: a bounded ring subscribes and is drained below.
    let ring = Arc::new(RingObserver::new(256));
    instance.set_observer(Arc::clone(&ring) as _);
    let policy = RetryPolicy::new(6)
        .with_base(Duration::from_millis(2))
        .with_seed(42);
    let got = broadcast::run_with_retry(&instance, &b, 7, &policy)?;
    println!("drop 15% + retry       → delivered {got:?}");

    // --- 3. Determinism: the injected fault schedule replays exactly. ---
    println!("fault schedule (seed 42):");
    for event in ring.drain() {
        let Some(performance) = event.performance else {
            continue;
        };
        match event.payload {
            TelemetryPayload::Fault(fault) => println!("  {performance:?}: {fault}"),
            TelemetryPayload::PerformanceStalled { .. } => {
                println!("  {performance:?}: stalled, watchdog abort");
            }
            _ => {}
        }
    }
    Ok(())
}
