//! E17: cost of the unified observability plane.
//!
//! Four arms run the same 8-round ping-pong performance:
//!
//! * `disabled` — no subscriber, no ring: the emit path must collapse
//!   to one relaxed atomic load per would-be event.
//! * `noop_subscriber` — a subscriber that discards every event: the
//!   full emit path (sequence lock, timestamp, dispatch) with a free
//!   `on_event`. The gap to `disabled` is the price of *watching*.
//! * `ring` — a bounded [`RingObserver`] installed through
//!   `set_observer`.
//! * `metrics` — a [`MetricsObserver`] folding the stream into
//!   counters and latency histograms.
//!
//! The acceptance bar: `noop_subscriber` stays within noise of
//! `disabled`-plus-emit-work, and `disabled` itself must not regress
//! the kernel benches (the short-circuit mirrors `FaultPlan`'s).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use script_core::{
    Initiation, Instance, MetricsObserver, Observer, RingObserver, RoleId, Script, TelemetryEvent,
    Termination,
};

const ROUNDS: u64 = 8;

type Role = script_core::RoleHandle<u64, (), ()>;
type Install = fn(&Instance<u64>);

struct Noop;

impl Observer for Noop {
    fn on_event(&self, _event: TelemetryEvent) {}
}

fn ping_pong() -> (Script<u64>, Role, Role) {
    let mut b = Script::<u64>::builder("e17");
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
    let mut group = c.benchmark_group("e17_observer_overhead");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1600));

    let arms: [(&str, Install); 4] = [
        ("disabled", |_inst| {}),
        ("noop_subscriber", |inst| {
            inst.set_observer(Arc::new(Noop));
        }),
        ("ring", |inst| {
            inst.set_observer(Arc::new(RingObserver::new(4096)));
        }),
        ("metrics", |inst| {
            inst.set_observer(Arc::new(MetricsObserver::new()));
        }),
    ];
    for (name, install) in arms {
        group.bench_function(name, |b| {
            let (script, ping, pong) = ping_pong();
            let inst = script.instance();
            install(&inst);
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
