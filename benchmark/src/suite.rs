//! The command-line faces of the benchmark: one run of one workload
//! (what `BENCHMARK.json`'s command invokes), and `--all` / `--smoke`,
//! which run every workload in a child process of its own — untraced,
//! then traced — and gather the results into one file for `--compare`.

use std::process::Command;
use std::time::Instant;

use crate::json::{obj, Json};
use crate::run::{self, Cfg, RunResult};
use crate::workloads::WORKLOADS;
use crate::{layers, sys};

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when
/// `--seconds` is not given.
pub const RUN_SECONDS: f64 = 20.0;

fn print_result(cfg: &Cfg, result: &RunResult) {
    println!(
        "# {} seed {} — {} run{}",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        if cfg.smoke { " (smoke)" } else { "" }
    );
    for m in &result.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for c in result.checks.iter().filter(|c| !c.ok) {
        println!("CHECK FAILED {}: {}", c.name, c.detail);
    }
    println!(
        "checks: {} of {} passed; ops attempted {}, failed {}",
        result.checks.iter().filter(|c| c.ok).count(),
        result.checks.len(),
        result.attempted,
        result.failed
    );
}

/// One run of one workload. The last line of stdout is the result.
pub fn one(cfg: &Cfg, started: Instant) -> bool {
    // Before any thread is spawned: they inherit the affinity.
    sys::single_malloc_arena();
    let pinned = sys::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("benchmark: could not pin to one CPU; timings will be noisier");
    }
    let result = if cfg.trace {
        layers::traced(cfg)
    } else {
        run::untraced(cfg, started)
    };
    let dir = run::out_dir();
    let tag = format!("{}_trace{}", cfg.workload, u8::from(cfg.trace));
    std::fs::write(
        dir.join(format!("result_{tag}.json")),
        run::detail_file(cfg, &result, pinned).encode(),
    )
    .expect("write the result file");
    print_result(cfg, &result);
    println!("{}", result.line().encode());
    result.correct()
}

/// Runs this executable once for one workload and returns its detail
/// file.
fn child(cfg: &Cfg) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child; its output goes to our terminal.
    let status = cmd.status().map_err(|e| format!("spawn child: {e}"))?;
    let tag = format!("{}_trace{}", cfg.workload, u8::from(cfg.trace));
    let path = run::out_dir().join(format!("result_{tag}.json"));
    if !status.success() {
        return Err(format!("{tag}: child exited with {status}"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// `--all` and `--smoke`: every workload, untraced then traced, each
/// run in its own process.
pub fn all(seed: u64, seconds: Option<f64>, smoke: bool, out: Option<&str>) -> bool {
    let started = Instant::now();
    let mut ok = true;
    let mut runs = Vec::new();
    for trace in [false, true] {
        for workload in WORKLOADS {
            let cfg = Cfg {
                workload: workload.to_string(),
                seed,
                seconds: seconds.unwrap_or(if smoke { 0.1 } else { RUN_SECONDS }),
                trace,
                smoke,
            };
            match child(&cfg) {
                Ok(detail) => {
                    let correct = detail
                        .get("result")
                        .and_then(|r| r.get("correct"))
                        .is_some_and(|c| *c == Json::Bool(true));
                    ok &= correct;
                    runs.push(detail);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
            println!();
        }
    }
    let file = obj([
        ("seed", seed.into()),
        ("smoke", smoke.into()),
        ("wall_seconds", started.elapsed().as_secs_f64().into()),
        ("runs", Json::Arr(runs)),
    ]);
    let path = out.map_or_else(
        || run::out_dir().join(format!("bench_seed{seed}.json")),
        std::path::PathBuf::from,
    );
    std::fs::write(&path, file.encode()).expect("write the gathered results");
    println!(
        "# all runs {} in {:.1} s; gathered into {}",
        if ok { "correct" } else { "NOT correct" },
        started.elapsed().as_secs_f64(),
        path.display()
    );
    ok
}
