//! The traced run (`--trace 1`): probes, then the workload once plain
//! and once with spans on and a `MetricsObserver` subscribed, and the
//! per-layer metrics made of the three sources — spans, counts, probes
//! — plus the ledger that sets layer costs against the end-to-end
//! latency they should explain.

use std::time::Instant;

use crate::json::{obj, Json};
use crate::probes;
use crate::run::{
    median_of, metric, rounds_json, Cfg, Driven, Metric, RoundStats, RunResult, Watchdog,
};
use crate::scripts::SOURCES;
use crate::stats;
use crate::trace::{self, Span};
use crate::workloads::{self, Report};

/// Names and units of every per-layer metric, in `BENCHMARK.json`
/// order. A traced run prints exactly these.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("e2e.op_p99_us", "us"),
    ("os.park_handoff_ns", "ns"),
    ("chan.rdv_blocking_ns", "ns"),
    ("chan.select2_ns", "ns"),
    ("chan.submit_rdv_ns", "ns"),
    ("chan.rdv_per_perf", "count"),
    ("chan.op_p50_us", "us"),
    ("chan.op_p99_us", "us"),
    ("core.solo_perf_ns", "ns"),
    ("core.cast4_null_us", "us"),
    ("core.telemetry_ring_overhead_ns", "ns"),
    ("core.enroll_us", "us"),
    ("core.member_enroll_us", "us"),
    ("core.roles_admitted_per_perf", "count"),
    ("core.events_per_perf", "count"),
    ("core.performances_aborted", "count"),
    ("core.performances_stalled", "count"),
    ("scripts.star.perf_p50_us", "us"),
    ("scripts.star.perf_p99_us", "us"),
    ("scripts.commit.perf_p50_us", "us"),
    ("scripts.commit.perf_p99_us", "us"),
    ("scripts.gossip.perf_p50_us", "us"),
    ("scripts.gossip.perf_p99_us", "us"),
    ("proto.monitor_ns_per_rdv", "ns"),
    ("net.wire.encode_send_ns", "ns"),
    ("net.wire.decode_send_ns", "ns"),
    ("net.wire.encode_send_4k_ns", "ns"),
    ("net.wire.decode_send_4k_ns", "ns"),
    ("net.wire.encode_selected_ns", "ns"),
    ("net.wire.decode_selected_ns", "ns"),
    ("net.frame.push_ns", "ns"),
    ("net.frame.next_ns", "ns"),
    ("net.client.connect_us", "us"),
    ("net.client.bytes_sent_per_op", "B"),
    ("net.client.bytes_recv_per_op", "B"),
    ("net.client.relay_dials", "count"),
    ("net.client.lost", "count"),
    ("net.client.sever_resume_us", "us"),
    ("net.server.bind_us", "us"),
    ("net.server.drop_us", "us"),
    ("net.server.session_cycle_us", "us"),
    ("net.server.rpc_depth1_us", "us"),
    ("net.server.rpc_depth8_per_s", "1/s"),
    ("net.fleet.place_us", "us"),
    ("net.fleet.relayed_bytes_per_op", "B"),
    ("net.fleet.relay_rpc_depth1_us", "us"),
    ("ledger.explained_ratio", "ratio"),
    ("ledger.unexplained_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
    ("setup.rig_build_us", "us"),
    ("setup.warmup_round_s", "s"),
];

/// Share of the run (after the probes) spent on the plain phase; the
/// rest goes to the traced phase.
const PLAIN_SHARE: f64 = 0.35;

struct Phase {
    rounds: Vec<RoundStats>,
    report: Report,
    attempted: u64,
    failed: u64,
    build_s: f64,
    warmup_s: f64,
}

/// Builds a rig, warms it up, runs rounds for `seconds`, tears it down.
fn phase(cfg: &Cfg, traced: bool, seconds: f64, watchdog: &Watchdog) -> Phase {
    let (warm, round) = workloads::counts(&cfg.workload, cfg.divisor());
    trace::set_enabled(traced);
    let t0 = Instant::now();
    let mut driven = Driven::build(cfg, traced, watchdog);
    let build_s = t0.elapsed().as_secs_f64();
    driven.round(&warm);
    let warmup_s = t0.elapsed().as_secs_f64() - build_s;
    let rounds = driven.rounds_for(&round, seconds, cfg.smoke);
    let (attempted, failed, report) = driven.finish();
    trace::set_enabled(false);
    Phase {
        rounds,
        report,
        attempted,
        failed,
        build_s,
        warmup_s,
    }
}

fn median_span_us(spans: &[Span], name: &str) -> f64 {
    let d = trace::durations_us(spans, name);
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d)
    }
}

fn span_quantiles_us(spans: &[Span], name: &str) -> (f64, f64) {
    let mut d = trace::durations_us(spans, name);
    if d.is_empty() {
        return (0.0, 0.0);
    }
    let s = stats::sort(&mut d);
    (stats::percentile(s, 0.5), stats::percentile(s, 0.99))
}

/// One line of the ledger: what the layer costs say an op should take.
struct Explained {
    what: String,
    /// How many ops the line speaks for.
    ops: f64,
    explained_us: f64,
    measured_us: f64,
}

/// Sets probe unit costs × workload counts against the measured median
/// latency. The models are deliberately the simplest that could hold —
/// a performance is its lifecycle plus its rendezvous, one after the
/// other — so the unexplained remainder is the next thing to find.
fn ledger(
    cfg: &Cfg,
    report: &Report,
    probe: &dyn Fn(&str) -> f64,
    traced: &Phase,
) -> Vec<Explained> {
    let measured_part = |script: &str| {
        stats::median(
            &traced
                .rounds
                .iter()
                .filter_map(|r| r.parts.iter().find(|p| p.0 == script).map(|p| p.1))
                .collect::<Vec<_>>(),
        )
    };
    let lifecycle_us = probe("core.cast4_null_us");
    match cfg.workload.as_str() {
        "inproc_mix" | "socket_mix" => {
            let socket = cfg.workload == "socket_mix";
            let (rdv_us, session_us, rdv_name) = if socket {
                (
                    probe("net.server.rpc_depth1_us"),
                    probe("net.server.session_cycle_us"),
                    "net.server.rpc_depth1_us",
                )
            } else {
                (
                    probe("chan.rdv_blocking_ns") / 1e3,
                    0.0,
                    "chan.rdv_blocking_ns",
                )
            };
            ["star", "commit", "gossip"]
                .into_iter()
                .map(|script| {
                    let perfs = report.count(&format!("{script}.performances")).max(1.0);
                    let rdv = report.count(&format!("{script}.rendezvous")) / perfs;
                    Explained {
                        what: format!(
                            "{script}: core.cast4_null_us {lifecycle_us:.1}{} + {rdv:.2} rdv x {rdv_name} {rdv_us:.2}",
                            if socket {
                                format!(" + net.server.session_cycle_us {session_us:.1}")
                            } else {
                                String::new()
                            }
                        ),
                        ops: perfs,
                        explained_us: lifecycle_us + session_us + rdv * rdv_us,
                        measured_us: measured_part(script),
                    }
                })
                .collect()
        }
        _ => {
            let name = if cfg.workload == "relay_stream" {
                "net.fleet.relay_rpc_depth1_us"
            } else {
                "net.server.rpc_depth1_us"
            };
            // A send returns once the sink has served every source
            // ahead of it: one hub round trip per source.
            vec![Explained {
                what: format!("send: {SOURCES} sources x {name} {:.1}", probe(name)),
                ops: 1.0,
                explained_us: SOURCES as f64 * probe(name),
                measured_us: median_of(&traced.rounds, |r| r.p50_us),
            }]
        }
    }
}

/// The `--trace 1` run.
pub fn traced(cfg: &Cfg) -> RunResult {
    let started = Instant::now();
    let watchdog = Watchdog::start();

    trace::set_enabled(true);
    watchdog.arm();
    let (probe_metrics, mut checks) = probes::run_all(cfg.seed, cfg.divisor());
    watchdog.disarm();
    trace::set_enabled(false);
    let probes_s = started.elapsed().as_secs_f64();

    let left = (cfg.seconds - probes_s).max(2.0);
    let plain = phase(cfg, false, left * PLAIN_SHARE, &watchdog);
    let traced = phase(cfg, true, left * (1.0 - PLAIN_SHARE), &watchdog);
    drop(watchdog);
    checks.extend(plain.report.checks.iter().cloned());
    checks.extend(traced.report.checks.iter().cloned());

    // Every thread that recorded spans has been joined by now.
    let spans = trace::take_all();
    let report = &traced.report;
    let probe = |name: &str| -> f64 {
        probe_metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    // Counts cover the rig's whole life, warm-up included.
    let rig_ops = traced.attempted as f64;
    let perfs = report.count("performances").max(1.0);

    let lines = ledger(cfg, report, &probe, &traced);
    let weight: f64 = lines.iter().map(|l| l.ops).sum();
    let explained: f64 = lines.iter().map(|l| l.ops * l.explained_us).sum::<f64>() / weight;
    let measured: f64 = lines.iter().map(|l| l.ops * l.measured_us).sum::<f64>() / weight;

    let weighted_chan = |key: &str| -> f64 {
        let scripts = ["star", "commit", "gossip", "stream"];
        let n = |s: &str| report.count(&format!("{s}.latency_count"));
        let total: f64 = scripts.iter().map(|s| n(s)).sum();
        scripts
            .iter()
            .map(|s| n(s) * report.count(&format!("{s}.{key}")))
            .sum::<f64>()
            / total.max(1.0)
    };
    let plain_rate = median_of(&plain.rounds, |r| r.ops_per_s);
    let traced_rate = median_of(&traced.rounds, |r| r.ops_per_s);
    let workload_spans = spans.iter().filter(|s| !s.probe).count() as f64;

    let value = |name: &str| -> f64 {
        if let Some(script_metric) = name.strip_prefix("scripts.") {
            let (script, which) = script_metric.split_once('.').expect("scripts.<s>.<m>");
            let (p50, p99) = span_quantiles_us(&spans, &format!("scripts.{script}.perf"));
            return if which == "perf_p50_us" { p50 } else { p99 };
        }
        match name {
            // Off the plain phase: tracing is not in it.
            "e2e.op_p99_us" => median_of(&plain.rounds, |r| r.p99_us),
            "chan.rdv_per_perf" => report.count("rendezvous") / perfs,
            "chan.op_p50_us" => weighted_chan("chan_op_p50_us"),
            "chan.op_p99_us" => weighted_chan("chan_op_p99_us"),
            "core.enroll_us" => median_span_us(&spans, "core.enroll"),
            "core.member_enroll_us" => median_span_us(&spans, "core.member_enroll"),
            "core.roles_admitted_per_perf" => report.count("roles_admitted") / perfs,
            "core.events_per_perf" => report.count("events") / perfs,
            "core.performances_aborted" => report.count("performances_aborted"),
            "core.performances_stalled" => report.count("performances_stalled"),
            "net.client.connect_us" => median_span_us(&spans, "net.client.connect"),
            "net.client.bytes_sent_per_op" => report.count("bytes_sent") / rig_ops,
            "net.client.bytes_recv_per_op" => report.count("bytes_received") / rig_ops,
            "net.client.relay_dials" => report.count("relay_dials"),
            "net.client.lost" => report.count("lost"),
            "net.server.bind_us" => median_span_us(&spans, "net.server.bind"),
            "net.server.drop_us" => median_span_us(&spans, "net.server.drop"),
            "net.fleet.place_us" => median_span_us(&spans, "net.fleet.place"),
            "net.fleet.relayed_bytes_per_op" => report.count("relayed_bytes") / rig_ops,
            "ledger.explained_ratio" => explained / measured,
            "ledger.unexplained_us" => measured - explained,
            "trace.overhead_pct" => (1.0 - traced_rate / plain_rate) * 100.0,
            "trace.spans_per_op" => workload_spans / rig_ops,
            "setup.rig_build_us" => traced.build_s * 1e6,
            "setup.warmup_round_s" => traced.warmup_s,
            probe_name => probe(probe_name),
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, value(name), unit))
        .collect();

    println!("# ledger — median latency the layer costs explain, per op");
    for l in &lines {
        println!(
            "#   {} = {:.1} us of {:.1} us measured ({:+.1} us unexplained)",
            l.what,
            l.explained_us,
            l.measured_us,
            l.measured_us - l.explained_us
        );
    }
    println!(
        "#   explained {:.1} of {:.1} us: ratio {:.3}; tracing cost {:.1}% of {:.0} ops/s",
        explained,
        measured,
        explained / measured,
        (1.0 - traced_rate / plain_rate) * 100.0,
        plain_rate
    );

    let path = crate::run::out_dir().join(format!("trace_{}.json", cfg.workload));
    std::fs::write(&path, trace::encode(&cfg.workload, &spans)).expect("write the trace file");
    println!("# {} spans written to {}", spans.len(), path.display());

    let detail = obj([
        ("probe_seconds", probes_s.into()),
        ("plain_rounds", rounds_json(&plain.rounds)),
        ("traced_rounds", rounds_json(&traced.rounds)),
        (
            "counts",
            Json::Obj(
                report
                    .counts
                    .iter()
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect(),
            ),
        ),
        (
            "ledger",
            Json::Arr(
                lines
                    .iter()
                    .map(|l| {
                        obj([
                            ("what", l.what.as_str().into()),
                            ("ops", l.ops.into()),
                            ("explained_us", l.explained_us.into()),
                            ("measured_us", l.measured_us.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    RunResult {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        checks,
        metrics,
        detail,
    }
}
