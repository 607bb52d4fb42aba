//! What one run measured and checked, and the two output lines it prints.

use crate::json::{num, quote, Json};
use crate::probe::Samples;
use crate::stats::percentile;
use crate::RunConfig;
use ldpjs_common::stats::median;
use ldpjs_common::{kernel_dispatch_snapshot, KernelDispatchSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value with its unit and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit (`us`, `s`, `reports/s`, …).
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// The compared values, for the reader of a failure.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Output checks in the order they ran.
    pub checks: Vec<Check>,
    /// Workload parameters, as `(name, JSON value)` pairs.
    pub params: Vec<(&'static str, String)>,
    /// Library calls and output checks attempted.
    pub attempted: u64,
    /// Library calls that returned `Err` plus output checks that failed.
    pub failed: u64,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit, n });
    }

    /// Record the `q`-quantile of `samples_ns` in µs, unless the sample is too thin for it
    /// (see [`percentile`]); a refused percentile is simply absent.
    pub fn set_percentile_us(&mut self, name: &str, samples_ns: &[f64], q: f64) {
        if let Some(v) = percentile(samples_ns, q) {
            self.set(name, v / 1e3, "us", samples_ns.len());
        }
    }

    /// Record the `q`-quantile of `samples` twice: as `<name>_us` in µs and as
    /// `<name>_probe` in probe units (see [`crate::probe`]). Both are absent when the sample
    /// is too thin for the quantile.
    pub fn set_percentile(&mut self, name: &str, samples: &Samples, q: f64) {
        if let (Some(ns), Some(probes)) =
            (percentile(&samples.ns, q), percentile(&samples.probes, q))
        {
            self.set(&format!("{name}_us"), ns / 1e3, "us", samples.len());
            self.set(&format!("{name}_probe"), probes, "probe", samples.len());
        }
    }

    /// Record a throughput twice, each the median over the loop's units (epochs or
    /// repetitions) of a unit's reports ÷ its time: `reports_per_s` over wall time and
    /// `reports_per_probe` over probe units. `reports[i]` goes with the unit time
    /// `units[i]`. The median keeps the few units a host stall (a descheduled vCPU) hits
    /// from setting the value, where a total over the loop would absorb every stall.
    pub fn set_throughput(&mut self, reports: &[f64], units: &Samples) {
        let rate = |times: &[f64], per: f64| {
            let rates: Vec<f64> = reports
                .iter()
                .zip(times)
                .map(|(r, t)| r / (t * per))
                .collect();
            median(&rates)
        };
        if let Some(v) = rate(&units.ns, 1e-9) {
            self.set("reports_per_s", v, "reports/s", units.len());
        }
        if let Some(v) = rate(&units.probes, 1.0) {
            self.set("reports_per_probe", v, "reports/probe", units.len());
        }
    }

    /// Record a workload parameter.
    pub fn param(&mut self, name: &'static str, value: impl std::fmt::Display) {
        self.params.push((name, value.to_string()));
    }

    /// Count a library call's outcome, returning its value on success. An `Err` counts as a
    /// failed operation and is kept as a failed check so the run reports what broke.
    pub fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if !self.checks.iter().any(|c| !c.ok && c.name == what) {
                    self.checks.push(Check {
                        name: what.to_string(),
                        ok: false,
                        detail: format!("returned Err: {e}"),
                    });
                }
                None
            }
        }
    }

    /// Record an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Whether every check passed and every call succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The full result line: identity, host facts, parameters, checks and every metric with
    /// its sample count.
    pub fn detail_json(&self, cfg: &RunConfig, host: &Host) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\"host\":{},\"params\":{{",
            quote(cfg.workload.name()),
            cfg.seed,
            num(cfg.seconds),
            cfg.trace,
            num(cfg.scale),
            host.to_json()
        );
        for (i, (k, v)) in self.params.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{}:{v}", quote(k));
        }
        out.push_str("},\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                quote(&c.name),
                c.ok,
                quote(&c.detail)
            );
        }
        let _ = write!(
            out,
            "],\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(self.metrics.iter().map(|(k, m)| (k.as_str(), m)), true)
        );
        out
    }

    /// The last output line: exactly `correct`, `attempted`, `failed` and the metrics named
    /// in `names` (the benchmark's end-to-end or per-layer list).
    pub fn result_json(&self, names: &[String]) -> String {
        let picked = names
            .iter()
            .filter_map(|n| self.metrics.get(n).map(|m| (n.as_str(), m)));
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(picked, false)
        )
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, &'a Metric)>, with_n: bool) -> String {
    let mut out = String::from("{");
    for (i, (name, m)) in metrics.enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}{}:{{\"value\":{},\"unit\":{}",
            quote(name),
            num(m.value),
            quote(m.unit)
        );
        if with_n {
            let _ = write!(out, ",\"n\":{}", m.n);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Facts about the machine that explain a result: cores available to the process and the
/// SIMD kernels that actually ran.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// FWHT kernel tier dispatched most during the run.
    pub fwht_tier: &'static str,
    /// Histogram-drain kernel tier dispatched most during the run.
    pub drain_tier: &'static str,
}

impl Host {
    /// Host facts for the dispatch activity since `before`.
    pub fn since(before: &KernelDispatchSnapshot) -> Host {
        let d = kernel_dispatch_snapshot().delta_since(before);
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fwht_tier: busiest(&[
                ("avx512", d.fwht_avx512),
                ("avx2", d.fwht_avx2),
                ("portable", d.fwht_portable),
            ]),
            drain_tier: busiest(&[
                ("avx512", d.drain_avx512),
                ("avx2", d.drain_avx2),
                ("portable", d.drain_portable),
            ]),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"fwht_tier\":{},\"drain_tier\":{},\"os\":{},\"arch\":{}}}",
            self.available_parallelism,
            quote(self.fwht_tier),
            quote(self.drain_tier),
            quote(std::env::consts::OS),
            quote(std::env::consts::ARCH)
        )
    }
}

fn busiest(tiers: &[(&'static str, u64)]) -> &'static str {
    tiers
        .iter()
        .filter(|(_, n)| *n > 0)
        .max_by_key(|(_, n)| *n)
        .map_or("none", |(t, _)| t)
}

/// Peak resident set size of this process in MiB (`VmHWM`), where the OS reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The benchmark's declared metric lists, read from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
    /// `(name, unit, bound)` of every end-to-end metric.
    pub end_to_end: Vec<(String, String, f64)>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

/// Where the benchmark description lives: the repository root, one level above this
/// package.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

impl Declared {
    /// Read and parse `BENCHMARK.json`.
    ///
    /// # Errors
    /// A message if the file is missing or not shaped like a benchmark description.
    pub fn load() -> Result<Declared, String> {
        let text = std::fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
        Declared::parse(&text)
    }

    /// Parse a benchmark description.
    ///
    /// # Errors
    /// A message naming the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let field = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: metric without `{key}`"))
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| *s >= 1.0 && s.fract() == 0.0)
            .ok_or("BENCHMARK.json: `run_seconds` is not a whole number of seconds")?
            as u64;
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: end-to-end metric without `bound`")?;
            end_to_end.push((field(m, "name")?, field(m, "unit")?, bound));
        }
        let mut per_layer = Vec::new();
        for m in list("per_layer")? {
            per_layer.push((field(m, "name")?, field(m, "unit")?));
        }
        Ok(Declared {
            run_seconds,
            end_to_end,
            per_layer,
        })
    }

    /// Names of the metrics a run prints on its last line.
    pub fn names(&self, trace: bool) -> Vec<String> {
        if trace {
            self.per_layer.iter().map(|(n, _)| n.clone()).collect()
        } else {
            self.end_to_end.iter().map(|(n, _, _)| n.clone()).collect()
        }
    }

    /// Units of the metrics a run prints on its last line.
    pub fn units(&self, trace: bool) -> Vec<(String, String)> {
        if trace {
            self.per_layer.clone()
        } else {
            self.end_to_end
                .iter()
                .map(|(n, u, _)| (n.clone(), u.clone()))
                .collect()
        }
    }
}
