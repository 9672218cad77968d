//! Two kernel and engine arms the ledger (`benchmark/src/probes.rs`)
//! has no metric for yet. The plain round trip, two-way select and
//! solo performance that used to sit beside them are
//! `chan.rdv_blocking_ns`, `chan.select2_ns` and `core.solo_perf_ns`
//! there. This file goes when a `[benchmark]` PR adds a
//! `chan.rdv_noop_plan_ns` probe and an in-process overlap arm
//! (ROADMAP 1(c)).

use criterion::{criterion_group, criterion_main, Criterion};
use script_chan::{FaultPlan, Network};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_kernel");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1600));

    // The blocking round trip of `chan.rdv_blocking_ns` with a
    // zero-probability FaultPlan attached: the chaos hooks must stay
    // within noise of that metric, and with no plan at all they are a
    // single `Option` check.
    group.bench_function("rendezvous_round_trip_noop_faultplan", |b| {
        let net: Network<u8, u64> = Network::new();
        net.set_fault_plan(FaultPlan::new(0));
        net.activate(0);
        net.activate(1);
        let p0 = net.port(0).unwrap();
        let p1 = net.port(1).unwrap();
        std::thread::scope(|s| {
            let echo = s.spawn(move || {
                while let Ok(v) = p1.recv_from(&0) {
                    if p1.send(&0, v).is_err() {
                        break;
                    }
                }
            });
            b.iter(|| {
                p0.send(&1, 7).unwrap();
                p0.recv_from(&1).unwrap();
            });
            net.abort();
            echo.join().unwrap();
        });
    });

    // Contended throughput: N concurrent performances of the same
    // instance (N ping/pong pairs enrolling over and over), one
    // rendezvous round-trip per performance. On a global-lock engine
    // every enroll, finish, and completion funnels through one mutex
    // and broadcasts one condvar across all 2·N worker threads; on the
    // sharded engine each live performance signals on its own lock +
    // condvar and only enrollment matching stays global.
    group.bench_function("contended_performances_8x2", |b| {
        use script_core::{Initiation, RoleId, Script, Termination};
        use std::time::{Duration, Instant};
        const PERFS: usize = 8; // concurrent performances
        const REPEAT: usize = 25; // performances per worker pair, per iter

        let mut builder = Script::<u64>::builder("contended");
        let ping = builder.role("ping", |ctx, i: u64| {
            ctx.send(&RoleId::new("pong"), i)?;
            ctx.recv_from(&RoleId::new("pong"))?;
            Ok(())
        });
        let pong = builder.role("pong", |ctx, ()| {
            let v = ctx.recv_from(&RoleId::new("ping"))?;
            ctx.send(&RoleId::new("ping"), v)?;
            Ok(())
        });
        builder
            .initiation(Initiation::Delayed)
            .termination(Termination::Delayed);
        let script = builder.build().unwrap();
        let inst = script.instance();

        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                std::thread::scope(|s| {
                    for _ in 0..PERFS {
                        let i = inst.clone();
                        let p = ping.clone();
                        s.spawn(move || {
                            for n in 0..REPEAT {
                                i.enroll(&p, n as u64).unwrap();
                            }
                        });
                        let i = inst.clone();
                        let p = pong.clone();
                        s.spawn(move || {
                            for _ in 0..REPEAT {
                                i.enroll(&p, ()).unwrap();
                            }
                        });
                    }
                });
                total += start.elapsed();
            }
            total
        });
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
