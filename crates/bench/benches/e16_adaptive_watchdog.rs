//! E16: watchdog policy overhead under injected rendezvous delay.
//!
//! Compares a hand-tuned fixed quiescence window against the stock
//! adaptive policy on the same workload — an 8-round ping-pong whose
//! every send carries a certain 300 µs injected delay. The interesting
//! number is the *gap*: the adaptive arm pays for per-operation latency
//! sampling and per-poll quantile reads, and this bench bounds that
//! cost against the fixed baseline it replaces.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use script_chan::FaultPlan;
use script_core::{Initiation, RoleId, Script, Termination, WatchdogPolicy};

const ROUNDS: u64 = 8;

type Role = script_core::RoleHandle<u64, (), ()>;

fn ping_pong() -> (Script<u64>, Role, Role) {
    let mut b = Script::<u64>::builder("e16");
    let ping = b.role("ping", |ctx, ()| {
        for k in 0..ROUNDS {
            ctx.send(&RoleId::new("pong"), k)?;
            ctx.recv_from(&RoleId::new("pong"))?;
        }
        Ok(())
    });
    let pong = b.role("pong", |ctx, ()| {
        for _ in 0..ROUNDS {
            let v = ctx.recv_from(&RoleId::new("ping"))?;
            ctx.send(&RoleId::new("ping"), v + 1)?;
        }
        Ok(())
    });
    b.initiation(Initiation::Delayed)
        .termination(Termination::Delayed);
    (b.build().unwrap(), ping, pong)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_adaptive_watchdog");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1600));

    let arms = [
        (
            "fixed_tuned",
            WatchdogPolicy::Fixed(Duration::from_millis(250)),
        ),
        ("adaptive", WatchdogPolicy::Adaptive),
    ];
    for (name, policy) in arms {
        group.bench_function(name, |b| {
            let (script, ping, pong) = ping_pong();
            let inst = script.instance();
            inst.set_fault_plan(FaultPlan::new(9).with_delay(1.0, Duration::from_micros(300)));
            inst.set_watchdog_policy(policy);
            b.iter(|| {
                std::thread::scope(|s| {
                    let i = inst.clone();
                    let ping = ping.clone();
                    let h = s.spawn(move || i.enroll(&ping, ()));
                    inst.enroll(&pong, ()).unwrap();
                    h.join().unwrap().unwrap();
                });
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
