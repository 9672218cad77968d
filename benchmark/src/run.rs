//! One run of one workload: set-up, measured rounds, teardown, and the
//! numbers made of them. `--trace 0` measures the end-to-end metrics
//! with every span switched off; `--trace 1` is the separate traced
//! run that yields the per-layer metrics (see `layers.rs`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::json::{obj, Json};
use crate::stats;
use crate::sys;
use crate::workloads::{self, Check, Counts, Report, Rig, Round};

/// How often a run builds its rig and warms it up; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;
/// How old the process must be before anything is timed.
const SETTLE: Duration = Duration::from_secs(2);
/// A round or a rig build that takes longer than this is a deadlock.
const HARD_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--smoke`: counts divided by 50, one set-up, one round.
    pub smoke: bool,
}

impl Cfg {
    pub fn divisor(&self) -> u64 {
        if self.smoke {
            50
        } else {
            1
        }
    }
}

/// Names and units of the end-to-end metrics, in `BENCHMARK.json`
/// order. An untraced run prints exactly these. (The p99 of the op
/// latency is not among them: on `socket_mix` it spreads by more than
/// a quarter from run to run, so it is the per-layer metric
/// `e2e.op_p99_us`; untraced runs still record it per round.)
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("allocs_per_op", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// A named, united number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Per-round values, set-up times, counts: the detail file's body.
    pub detail: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The contract's result line.
    pub fn line(&self) -> Json {
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                obj([("value", m.value.into()), ("unit", m.unit.into())]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Kills the process when a round or a rig build overruns
/// [`HARD_LIMIT`]: every op still outstanding counts as failed, and a
/// non-zero exit without a result line says so — instead of a hang.
pub struct Watchdog {
    /// Milliseconds after `started` at which to give up; 0 = disarmed.
    deadline_ms: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    started: Instant,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Self {
        let started = Instant::now();
        let deadline_ms = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (deadline, stopped) = (Arc::clone(&deadline_ms), Arc::clone(&stop));
        let thread = thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || {
                while !stopped.load(Ordering::SeqCst) {
                    thread::park_timeout(Duration::from_millis(250));
                    let at = deadline.load(Ordering::SeqCst);
                    if at != 0 && started.elapsed().as_millis() as u64 > at {
                        eprintln!(
                            "benchmark: hard timeout — a round made no progress for {} s; \
                             its remaining ops count as failed",
                            HARD_LIMIT.as_secs()
                        );
                        std::process::exit(3);
                    }
                }
            })
            .expect("spawn watchdog");
        Watchdog {
            deadline_ms,
            stop,
            started,
            thread: Some(thread),
        }
    }

    pub fn arm(&self) {
        let at = (self.started.elapsed() + HARD_LIMIT).as_millis() as u64;
        self.deadline_ms.store(at.max(1), Ordering::SeqCst);
    }

    pub fn disarm(&self) {
        self.deadline_ms.store(0, Ordering::SeqCst);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// The numbers of one measured round, ready to be reported.
#[derive(Debug, Clone)]
pub struct RoundStats {
    pub seconds: f64,
    pub ops: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    /// `(script, p50, p99)` for the mix workloads.
    pub parts: Vec<(&'static str, f64, f64)>,
}

pub fn round_stats(mut r: Round) -> RoundStats {
    let quantiles = |v: &mut Vec<f64>| {
        let s = stats::sort(v);
        (stats::percentile(s, 0.5), stats::percentile(s, 0.99))
    };
    let samples = r.lat_us.len();
    let (p50_us, p99_us) = quantiles(&mut r.lat_us);
    RoundStats {
        seconds: r.seconds,
        ops: r.ops,
        failed: r.failed,
        ops_per_s: r.ops as f64 / r.seconds,
        p50_us,
        p99_us,
        samples,
        parts: r
            .parts
            .iter_mut()
            .map(|(name, lat)| {
                let (p50, p99) = quantiles(lat);
                (*name, p50, p99)
            })
            .collect(),
    }
}

pub fn median_of(rounds: &[RoundStats], f: impl Fn(&RoundStats) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn spread_json(rounds: &[RoundStats], f: impl Fn(&RoundStats) -> f64) -> Json {
    let s = stats::spread(&rounds.iter().map(f).collect::<Vec<_>>());
    obj([
        ("min", s.min.into()),
        ("median", s.median.into()),
        ("max", s.max.into()),
    ])
}

pub fn rounds_json(rounds: &[RoundStats]) -> Json {
    Json::Arr(
        rounds
            .iter()
            .map(|r| {
                obj([
                    ("seconds", r.seconds.into()),
                    ("ops", r.ops.into()),
                    ("failed", r.failed.into()),
                    ("ops_per_s", r.ops_per_s.into()),
                    ("op_p50_us", r.p50_us.into()),
                    ("op_p99_us", r.p99_us.into()),
                    (
                        "scripts",
                        Json::Obj(
                            r.parts
                                .iter()
                                .map(|(name, p50, p99)| {
                                    (
                                        name.to_string(),
                                        obj([("p50_us", (*p50).into()), ("p99_us", (*p99).into())]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                obj([
                    ("name", c.name.as_str().into()),
                    ("ok", c.ok.into()),
                    ("detail", c.detail.as_str().into()),
                ])
            })
            .collect(),
    )
}

fn counts_json(c: &Counts, workload: &str) -> Json {
    if workloads::is_stream(workload) {
        obj([
            ("messages_per_source", c.stream.into()),
            ("sources", crate::scripts::SOURCES.into()),
        ])
    } else {
        obj([
            ("star", c.mix[0].into()),
            ("commit", c.mix[1].into()),
            ("gossip", c.mix[2].into()),
        ])
    }
}

/// A rig driven under the watchdog, with its tallies.
pub struct Driven<'a> {
    rig: Box<dyn Rig>,
    attempted: u64,
    failed: u64,
    watchdog: &'a Watchdog,
}

impl<'a> Driven<'a> {
    pub fn build(cfg: &Cfg, traced: bool, watchdog: &'a Watchdog) -> Self {
        watchdog.arm();
        let rig = workloads::build(&cfg.workload, cfg.seed, traced);
        watchdog.disarm();
        Driven {
            rig,
            attempted: 0,
            failed: 0,
            watchdog,
        }
    }

    pub fn round(&mut self, counts: &Counts) -> Round {
        self.watchdog.arm();
        let round = self.rig.round(counts);
        self.watchdog.disarm();
        self.attempted += round.ops;
        self.failed += round.failed;
        round
    }

    /// Rounds of `counts` until `seconds` have passed (at least one).
    /// Each round is reduced to its statistics at once, so the samples
    /// of one round are all the runner ever holds.
    pub fn rounds_for(&mut self, counts: &Counts, seconds: f64, once: bool) -> Vec<RoundStats> {
        let t0 = Instant::now();
        let mut rounds = Vec::new();
        loop {
            rounds.push(round_stats(self.round(counts)));
            if once || t0.elapsed().as_secs_f64() >= seconds {
                return rounds;
            }
        }
    }

    pub fn finish(self) -> (u64, u64, Report) {
        self.watchdog.arm();
        let report = self.rig.finish();
        self.watchdog.disarm();
        (self.attempted, self.failed + report.failed, report)
    }
}

/// The `--trace 0` run.
pub fn untraced(cfg: &Cfg, started: Instant) -> RunResult {
    let (warm, round) = workloads::counts(&cfg.workload, cfg.divisor());
    let watchdog = Watchdog::start();
    let (mut attempted, mut failed, mut checks) = (0, 0, Vec::new());
    let mut absorb = |(a, f, report): (u64, u64, Report)| {
        attempted += a;
        failed += f;
        checks.extend(report.checks);
    };

    // Settle: the first rig, timed from process start, then warm-up
    // rounds until the process is `SETTLE` old — caches, page tables,
    // the allocator's arenas and the CPU's clock have stopped moving.
    let mut driven = Driven::build(cfg, false, &watchdog);
    driven.round(&warm);
    let cold_setup_s = started.elapsed().as_secs_f64();
    while !cfg.smoke && started.elapsed() < SETTLE {
        driven.round(&warm);
    }

    // Set-up, several times over and in the settled regime: tear the
    // previous rig down, build a fresh one, run the warm-up round (it
    // absorbs lazy initialisation). `setup_s` is the median; the last
    // rig built is the one measured.
    let repeats = if cfg.smoke { 0 } else { SETUP_REPEATS };
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        absorb(driven.finish());
        let t0 = Instant::now();
        driven = Driven::build(cfg, false, &watchdog);
        build_s.push(t0.elapsed().as_secs_f64());
        driven.round(&warm);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    if setup_s.is_empty() {
        setup_s.push(cold_setup_s);
    }

    let (cpu0, allocs0, bytes0) = (sys::cpu_seconds(), sys::allocs(), sys::alloc_bytes());
    let t0 = Instant::now();
    let rounds = driven.rounds_for(&round, cfg.seconds, cfg.smoke);
    let measured_s = t0.elapsed().as_secs_f64();
    let (cpu1, allocs1, bytes1) = (sys::cpu_seconds(), sys::allocs(), sys::alloc_bytes());
    absorb(driven.finish());
    drop(watchdog);

    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let samples = rounds.iter().map(|r| r.samples).min().unwrap_or(0);
    if !cfg.smoke {
        checks.push(workloads::check(
            "p99_has_ten_samples_beyond",
            stats::supported(samples, 0.99),
            format!("{samples} latency samples in the smallest round"),
        ));
    }
    let per_op = |total: f64| total / ops as f64;
    let values = [
        median_of(&rounds, |r| r.ops_per_s),
        median_of(&rounds, |r| r.p50_us),
        per_op((cpu1 - cpu0) * 1e6),
        per_op((allocs1 - allocs0) as f64),
        sys::peak_rss_mb(),
        stats::median(&setup_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect();
    let detail = obj([
        ("rounds_measured", rounds.len().into()),
        ("measured_seconds", measured_s.into()),
        ("counts_per_round", counts_json(&round, &cfg.workload)),
        ("counts_warmup", counts_json(&warm, &cfg.workload)),
        ("setup_s", setup_s.into()),
        ("rig_build_s", build_s.into()),
        ("cold_setup_s", cold_setup_s.into()),
        (
            "alloc_bytes_per_op",
            per_op((bytes1 - bytes0) as f64).into(),
        ),
        ("samples_per_round", samples.into()),
        (
            "highest_supported_percentile",
            stats::highest_supported(samples).map_or(Json::Null, Json::from),
        ),
        (
            "round_spread",
            obj([
                ("ops_per_s", spread_json(&rounds, |r| r.ops_per_s)),
                ("op_p50_us", spread_json(&rounds, |r| r.p50_us)),
                ("op_p99_us", spread_json(&rounds, |r| r.p99_us)),
            ]),
        ),
        ("rounds", rounds_json(&rounds)),
    ]);
    RunResult {
        attempted,
        failed,
        checks,
        metrics,
        detail,
    }
}

/// Where result and trace files go: `benchmark/out` from the repo
/// root, `out` from inside the package.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// The detail file of one run: the result line plus machine, seed,
/// counts, checks and per-round values.
pub fn detail_file(cfg: &Cfg, result: &RunResult, pinned_cpu: Option<usize>) -> Json {
    let m = sys::machine();
    obj([
        ("workload", cfg.workload.as_str().into()),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("trace", cfg.trace.into()),
        ("smoke", cfg.smoke.into()),
        (
            "machine",
            obj([
                ("git_rev", m.git_rev.into()),
                ("nproc", m.nproc.into()),
                ("pinned_cpu", pinned_cpu.map_or(Json::Null, Json::from)),
                ("kernel", m.kernel.into()),
                ("rustc", m.rustc.into()),
                ("network", "host loopback".into()),
            ]),
        ),
        ("result", result.line()),
        ("checks", checks_json(&result.checks)),
        ("detail", result.detail.clone()),
    ])
}
