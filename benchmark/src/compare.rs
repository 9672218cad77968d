//! `--compare <a.json> <b.json>`: two `--all` result files, metric by
//! metric, against the bounds `BENCHMARK.json` fixes.
//!
//! A metric is `ok` when `b` is not worse than `a` by more than its
//! bound, `unresolved` when it is but the rounds of either side spread
//! wider than the bound and the two ranges overlap (the runs cannot
//! tell), and `regressed` otherwise. Per-layer metrics have no bound
//! and are listed with their change only.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

/// Min and max a metric took over one side's measured rounds.
pub type Range = Option<(f64, f64)>;

/// By how much of `a` the value `b` is worse; negative when better.
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = if higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if change > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        change / a.abs()
    }
}

pub fn verdict(
    a: f64,
    b: f64,
    higher_is_better: bool,
    bound: f64,
    range_a: Range,
    range_b: Range,
) -> Verdict {
    if worse_by(a, b, higher_is_better) <= bound {
        return Verdict::Ok;
    }
    if let (Some((a_lo, a_hi)), Some((b_lo, b_hi))) = (range_a, range_b) {
        let wide = (a_hi - a_lo) / a.abs() > bound || (b_hi - b_lo) / b.abs() > bound;
        let overlap = a_lo <= b_hi && b_lo <= a_hi;
        if wide && overlap {
            return Verdict::Unresolved;
        }
    }
    Verdict::Regressed
}

struct Side {
    file: Json,
}

impl Side {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if file.get("runs").and_then(Json::as_arr).is_none() {
            return Err(format!("{path}: not an --all result file (no \"runs\")"));
        }
        Ok(Side { file })
    }

    fn run(&self, workload: &str, traced: bool) -> Option<&Json> {
        self.file.get("runs")?.as_arr()?.iter().find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace") == Some(&Json::Bool(traced))
        })
    }

    fn value(&self, workload: &str, traced: bool, metric: &str) -> Option<f64> {
        self.run(workload, traced)?
            .get("result")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }

    fn range(&self, workload: &str, metric: &str) -> Range {
        let detail = self.run(workload, false)?.get("detail")?;
        if metric == "setup_s" {
            let samples: Vec<f64> = detail
                .get("setup_s")?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            return (!samples.is_empty()).then_some((lo, hi));
        }
        let s = detail.get("round_spread")?.get(metric)?;
        Some((s.get("min")?.as_f64()?, s.get("max")?.as_f64()?))
    }
}

fn load_contract() -> Result<Json, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .into_iter()
        .find(|p| std::path::Path::new(p).is_file())
        .ok_or("BENCHMARK.json not found here or one directory up")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn names(contract: &Json, key: &str) -> Vec<String> {
    contract
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from))
        .collect()
}

fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let contract = load_contract()?;
    let (a, b) = (Side::load(a_path)?, Side::load(b_path)?);
    let workloads = names(&contract, "workloads");
    let mut regressed = 0;

    println!("# end to end: a = {a_path}, b = {b_path}");
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in &workloads {
        for m in contract
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let (Some(name), Some(better), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                return Err("BENCHMARK.json: malformed end_to_end entry".into());
            };
            let (Some(va), Some(vb)) = (
                a.value(workload, false, name),
                b.value(workload, false, name),
            ) else {
                println!("{workload:<14} {name:<14} missing from one side");
                regressed += 1;
                continue;
            };
            let higher = better == "higher";
            let v = verdict(
                va,
                vb,
                higher,
                bound,
                a.range(workload, name),
                b.range(workload, name),
            );
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{workload:<14} {name:<14} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%  {}",
                worse_by(va, vb, higher) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "regressed",
                }
            );
        }
    }

    println!("# per layer (traced runs; no bounds)");
    for workload in &workloads {
        for name in names(&contract, "per_layer") {
            if let (Some(va), Some(vb)) = (
                a.value(workload, true, &name),
                b.value(workload, true, &name),
            ) {
                let change = if va == 0.0 {
                    0.0
                } else {
                    (vb - va) / va.abs() * 100.0
                };
                println!("{workload:<14} {name:<34} {va:>14.4} {vb:>14.4} {change:>+8.1}%");
            }
        }
    }
    println!("# {regressed} regressed");
    Ok(regressed == 0)
}

pub fn run(a_path: &str, b_path: &str) -> bool {
    compare(a_path, b_path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        false
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_bound() {
        // Throughput (higher is better) down 5 %: inside a 10 % bound.
        assert_eq!(verdict(1000.0, 950.0, true, 0.10, None, None), Verdict::Ok);
        // Down 20 %: out.
        assert_eq!(
            verdict(1000.0, 800.0, true, 0.10, None, None),
            Verdict::Regressed
        );
        // Latency (lower is better) up 20 %: out; down 50 %: fine.
        assert_eq!(
            verdict(100.0, 120.0, false, 0.10, None, None),
            Verdict::Regressed
        );
        assert_eq!(verdict(100.0, 50.0, false, 0.10, None, None), Verdict::Ok);
        assert!((worse_by(100.0, 120.0, false) - 0.2).abs() < 1e-12);
        assert!((worse_by(1000.0, 800.0, true) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn wide_overlapping_rounds_are_unresolved_not_regressed() {
        let wide_a = Some((80.0, 130.0));
        let wide_b = Some((95.0, 150.0));
        assert_eq!(
            verdict(100.0, 120.0, false, 0.10, wide_a, wide_b),
            Verdict::Unresolved
        );
        // Tight rounds that do not overlap: a real regression.
        assert_eq!(
            verdict(
                100.0,
                120.0,
                false,
                0.10,
                Some((99.0, 101.0)),
                Some((119.0, 121.0))
            ),
            Verdict::Regressed
        );
        // Wide but disjoint: every round of b is worse than every round of a.
        assert_eq!(
            verdict(
                100.0,
                160.0,
                false,
                0.10,
                Some((80.0, 120.0)),
                Some((140.0, 180.0))
            ),
            Verdict::Regressed
        );
    }
}
