//! The repo benchmark (see README.md and ../BENCHMARK.json).
//!
//! ```text
//! script-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! script-benchmark --all [--seed <n>] [--seconds <s>] [--out <file>]
//! script-benchmark --smoke
//! script-benchmark --compare <a.json> <b.json>
//! ```

mod compare;
mod json;
mod layers;
mod probes;
mod run;
mod scripts;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage:
  script-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last line of stdout is the result
  script-benchmark --all [--seed <n>] [--seconds <s>] [--out <file>]
      every workload, untraced then traced, each in a child process
  script-benchmark --smoke
      every workload and probe at 1/50 of the counts, one round each
  script-benchmark --compare <a.json> <b.json>
      two --all result files against the bounds in BENCHMARK.json
workloads: inproc_mix socket_mix socket_stream relay_stream";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    all: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(workload) = &args.workload {
        let cfg = run::Cfg {
            workload: workload.clone(),
            seed: args.seed,
            seconds: args.seconds.unwrap_or(suite::RUN_SECONDS),
            trace: args.trace,
            smoke: args.smoke,
        };
        suite::one(&cfg, started)
    } else if args.smoke || args.all {
        suite::all(args.seed, args.seconds, args.smoke, args.out.as_deref())
    } else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `BENCHMARK.json` and the runner must name the same things.
    #[test]
    fn contract_file_matches_the_runner() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let contract = json::Json::parse(&text).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            contract
                .get(key)
                .and_then(json::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(json::Json::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let pairs = |key: &str| -> Vec<(String, String)> {
            listed(key, "name")
                .into_iter()
                .zip(listed(key, "unit"))
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("workloads", "name"), workloads::WORKLOADS);
        assert_eq!(pairs("end_to_end"), own(&run::END_TO_END));
        assert_eq!(pairs("per_layer"), own(&layers::PER_LAYER));
        assert_eq!(
            contract.get("run_seconds").and_then(json::Json::as_f64),
            Some(suite::RUN_SECONDS)
        );
        assert_eq!(
            contract.get("paths"),
            Some(&json::Json::Arr(vec!["benchmark".into()]))
        );
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload socket_mix --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("socket_mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--compare only_one")).is_err());
    }
}
