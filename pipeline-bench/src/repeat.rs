//! `repeat`: run workloads in fresh child processes and report how much each metric moves
//! between runs.
//!
//! Round `r` runs every workload with seed `FIRST_SEED + r`, so like the acceptance check
//! each run draws its own inputs, and measures for `run_seconds` from `BENCHMARK.json`. For
//! every metric it prints the median, the interquartile range (Python's
//! `statistics.quantiles(n=4)` cut points) and the max–min range, both as shares of the
//! median, next to the bound `BENCHMARK.json` fixes. It exits non-zero when a child run
//! fails or when an end-to-end metric's max–min range exceeds its bound.

use crate::json::Json;
use crate::report::Declared;
use crate::stats::quartiles;
use crate::Workload;
use ldpjs_common::stats::median;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Seed of the first round; round `r` uses `FIRST_SEED + r`.
const FIRST_SEED: u64 = 1;

struct Args {
    workloads: Vec<Workload>,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        runs: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => out.workloads = vec![Workload::parse(value).ok_or_else(bad)?],
            "--runs" => out.runs = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workloads.is_empty() || out.runs < 2 {
        return Err("repeat needs --workload <name|all> and --runs <n >= 2>".into());
    }
    Ok(out)
}

/// Metric name → (unit, one value per successful run).
type Samples = BTreeMap<String, (String, Vec<f64>)>;

/// Run one child and return the metrics of its full result line.
fn run_child(
    exe: &std::path::Path,
    w: Workload,
    seed: u64,
    seconds: u64,
) -> Result<Samples, String> {
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    if !out.status.success() || lines.len() < 2 {
        return Err(format!(
            "{} seed {seed} exited with {}",
            w.name(),
            out.status
        ));
    }
    let detail = Json::parse(lines[lines.len() - 2])?;
    let metrics = detail
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?;
    let mut samples = Samples::new();
    for (name, m) in metrics {
        if let (Some(v), Some(u)) = (
            m.get("value").and_then(Json::as_f64),
            m.get("unit").and_then(Json::as_str),
        ) {
            samples.insert(name.clone(), (u.to_string(), vec![v]));
        }
    }
    Ok(samples)
}

/// The median of `values`, then their interquartile range and max–min range, both as
/// shares of the median. `None` for an empty sample.
fn spreads(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mid = median(values)?;
    let share = |d: f64| if mid == 0.0 { 0.0 } else { d / mid.abs() };
    let iqr = quartiles(values).map_or(0.0, |q| share(q[2] - q[0]));
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    Some((mid, iqr, share(hi - lo)))
}

/// The subcommand's entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let args = match parse(args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let declared = match Declared::load() {
        Ok(d) => d,
        Err(msg) => {
            eprintln!("{msg}");
            return 1;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut results: BTreeMap<&str, Samples> = BTreeMap::new();
    let mut failures = 0usize;
    for round in 0..args.runs {
        // Alternate the workload order so slow drift does not land on one workload.
        let mut order = args.workloads.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        let seed = FIRST_SEED + round as u64;
        for w in order {
            eprintln!(
                "repeat: run {}/{} {} seed {seed}",
                round + 1,
                args.runs,
                w.name()
            );
            match run_child(&exe, w, seed, declared.run_seconds) {
                Ok(samples) => {
                    let acc = results.entry(w.name()).or_default();
                    for (name, (unit, v)) in samples {
                        acc.entry(name)
                            .or_insert_with(|| (unit, Vec::new()))
                            .1
                            .extend(v);
                    }
                }
                Err(msg) => {
                    eprintln!("repeat: {msg}");
                    failures += 1;
                }
            }
        }
    }
    let bounds: BTreeMap<&str, f64> = declared
        .end_to_end
        .iter()
        .map(|(n, _, b)| (n.as_str(), *b))
        .collect();
    let mut over = 0usize;
    println!(
        "{:<17} {:<24} {:>13} {:>16} {:>8} {:>8} {:>7} {:>3}",
        "workload", "metric", "unit", "median", "iqr%", "range%", "bound%", "n"
    );
    for (w, samples) in &results {
        for (name, (unit, values)) in samples {
            let Some((mid, iqr, range)) = spreads(values) else {
                continue;
            };
            let bound = bounds.get(name.as_str()).copied();
            let flag = match bound {
                Some(b) if range > b => {
                    over += 1;
                    " OVER"
                }
                _ => "",
            };
            println!(
                "{w:<17} {name:<24} {unit:>13} {mid:>16.6} {:>8.2} {:>8.2} {:>7} {:>3}{flag}",
                100.0 * iqr,
                100.0 * range,
                bound.map_or("-".to_string(), |b| format!("{:.0}", 100.0 * b)),
                values.len(),
            );
        }
    }
    if failures > 0 || over > 0 {
        eprintln!("repeat: {failures} failed runs, {over} max–min ranges over their bound");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spreads_are_shares_of_the_median() {
        let (mid, iqr, range) = spreads(&[1.0, 1.2, 1.0, 0.9, 1.1]).expect("non-empty");
        assert_eq!(mid, 1.0);
        // statistics.quantiles([0.9, 1.0, 1.0, 1.1, 1.2], n=4) == [0.95, 1.0, 1.15]
        assert!((iqr - 0.2).abs() < 1e-12);
        assert!((range - 0.3).abs() < 1e-12);
        assert_eq!(spreads(&[]), None);
    }

    #[test]
    fn parse_takes_only_workload_and_runs() {
        let args = |a: &[&str]| parse(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&["--workload", "all", "--runs", "5"]).expect("valid");
        assert_eq!((ok.workloads.len(), ok.runs), (4, 5));
        assert!(args(&["--workload", "all", "--runs", "5", "--seed", "2"]).is_err());
        assert!(args(&["--workload", "all", "--runs", "1"]).is_err());
        assert!(args(&["--workload", "nope", "--runs", "5"]).is_err());
    }
}
