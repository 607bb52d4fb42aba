//! `ldpjs-pipeline`: the end-to-end benchmark of the LDPJoinSketch workspace.
//!
//! One invocation runs one workload in a fresh process and prints two JSON lines: a full
//! result (host facts, workload parameters, output checks, every metric with its sample
//! count), then the result line holding exactly the metrics `BENCHMARK.json` declares for
//! the mode (end-to-end untraced, per-layer traced).
//!
//! Four workloads exercise different layers through public APIs only:
//!
//! * `plain_ingest`, `plain_dashboard`, `plus_rotation` drive a `SketchService` online:
//!   one collector pushes pre-perturbed report batches back to back (a closed loop — the
//!   service is an in-process library with no request queue, so a fixed-rate open loop
//!   would only measure the harness sleeping), seals each epoch itself, and after every
//!   seal one analyst issues that epoch's queries;
//! * `offline_protocol` times the paper's one-shot protocol runners.
//!
//! Every timing is reported twice: in wall-clock units, and in probe units — divided by the
//! time of a fixed reference computation run just before (see [`probe`]) — which repeat
//! across runs on a host whose speed drifts. The gated metrics use probe units, and
//! `setup_s` uses them converted to reference seconds.
//!
//! See `README.md` beside this crate for the workload and metric catalogue.

#![forbid(unsafe_code)]

pub mod json;
pub mod offline;
pub mod online;
pub mod probe;
pub mod repeat;
pub mod report;
pub mod stats;
pub mod trace;

use ldpjs_common::stats::median;
use report::{peak_rss_mib, Declared, Host, Report};
use std::path::PathBuf;
use trace::{Span, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain mode, long epochs: bound by `ingest_batch`.
    PlainIngest,
    /// Plain mode, short epochs and many cold queries: seal, span assembly and kernels.
    PlainDashboard,
    /// LDPJoinSketch+ mode: bound by `rotate` (three lane FWHTs and FI re-discovery).
    PlusRotation,
    /// The one-shot protocol runners, no service.
    OfflineProtocol,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::PlainIngest,
        Workload::PlainDashboard,
        Workload::PlusRotation,
        Workload::OfflineProtocol,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlainIngest => "plain_ingest",
            Workload::PlainDashboard => "plain_dashboard",
            Workload::PlusRotation => "plus_rotation",
            Workload::OfflineProtocol => "offline_protocol",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Minimum length of the timed loop in seconds (the loop also runs a workload-specific
    /// minimum number of epochs or repetitions, so every reported percentile has samples).
    pub seconds: f64,
    /// Traced run: alternate untraced and traced loop units and report per-layer metrics.
    pub trace: bool,
    /// Where to write the recorded spans as JSON.
    pub trace_out: Option<PathBuf>,
    /// Multiplier on batch lengths, user counts and domain sizes (1 = the benchmark's
    /// sizes; tests run far smaller).
    pub scale: f64,
}

impl RunConfig {
    /// `base` scaled by [`RunConfig::scale`], never below `floor`.
    pub fn scaled(&self, base: usize, floor: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(floor)
    }

    /// Ceiling on a relative join-size error before the run counts as wrong. A sanity bound
    /// against gross estimator bugs, widened as `1/sqrt(scale)` because smaller inputs
    /// carry proportionally more privacy noise.
    pub fn re_ceiling(&self) -> f64 {
        0.05 / self.scale.min(1.0).sqrt()
    }
}

/// Set-ups per run: set-up time is reported as their median.
pub const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times, each right after a probe, and keep the last result.
/// Records `setup_wall_s`, the median wall time, and `setup_s`, the median of each
/// set-up's time in probe units converted to reference seconds (see [`probe`]). Each
/// previous result is dropped before the next set-up starts, so peak memory holds one.
///
/// # Errors
/// The first set-up error.
pub fn set_up<T>(
    report: &mut Report,
    probe: &mut probe::Probe,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut wall = Vec::with_capacity(SETUP_REPEATS);
    let mut reference = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let probe_ns = probe.measure();
        let t0 = trace::now();
        state = Some(setup()?);
        let ns = trace::ns(trace::now().duration_since(t0)) as f64;
        wall.push(ns / 1e9);
        reference.push(ns / probe_ns * probe::NOMINAL_PROBE_S);
    }
    let n = wall.len();
    report.set("setup_wall_s", median(&wall).unwrap_or(0.0), "s", n);
    report.set("setup_s", median(&reference).unwrap_or(0.0), "s", n);
    state.ok_or_else(|| "no set-up ran".to_string())
}

/// Record `probe_us`, the run's median probe time (see [`probe`]).
pub fn set_probe_time(report: &mut Report, probe: &probe::Probe) {
    if let Some(t) = median(probe.times_ns()) {
        report.set("probe_us", t / 1e3, "us", probe.times_ns().len());
    }
}

/// Cores the library may use: the service's default shard count and the offline runners'
/// `shards` argument.
pub const SHARDS: usize = 2;

/// A seed for input stream `tag`, derived from the run seed (SplitMix64 finaliser), so the
/// value pools, perturbation streams and public hash seeds are independent of each other.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The layers self time is attributed to, named after the modules doing the work: client
/// simulation (`core::client`, `core::fap`); report absorption (`SketchService::ingest_*`
/// → `core::aggregator`, `core::plus_state`, `common::batch`); sealing exact counters into
/// queryable views (`SketchService::rotate` online, `finalize` offline); offline phase-1
/// frequent-item discovery; span assembly from the service's ledger; the estimator kernels
/// (`core::kernel`); the rest of a cold query in the service (span resolution, cache
/// lookup and insertion, provenance); and queries answered from `service::cache`.
pub const LAYERS: [&str; 8] = [
    "client", "ingest", "seal", "discover", "assemble", "kernel", "query", "cache",
];

/// Record `<layer>.share` (self time ÷ traced loop wall time) for every layer in
/// [`LAYERS`], and `trace.layer_sum_ratio`, their sum.
pub fn layer_shares(
    report: &mut Report,
    layers: &std::collections::BTreeMap<&'static str, u64>,
    traced_wall_ns: f64,
    traced_units: usize,
) {
    let wall = traced_wall_ns.max(1.0);
    for layer in LAYERS {
        let self_ns = layers.get(layer).copied().unwrap_or(0);
        report.set(
            &format!("{layer}.share"),
            self_ns as f64 / wall,
            "ratio",
            traced_units,
        );
    }
    let total: u64 = layers.values().sum();
    report.set(
        "trace.layer_sum_ratio",
        total as f64 / wall,
        "ratio",
        traced_units,
    );
}

/// What a finished run hands back.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics, checks and counters.
    pub report: Report,
    /// Machine facts.
    pub host: Host,
    /// Recorded spans (empty unless traced).
    pub spans: Vec<Span>,
}

/// Run one workload in this process.
///
/// # Errors
/// A message if the workload could not be set up at all (a broken input, not a measured
/// failure: failures inside the timed loop are counted in the report instead).
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let dispatch_before = ldpjs_common::kernel_dispatch_snapshot();
    let mut report = Report::default();
    let mut tracer = Tracer::new(if cfg.trace { 1 << 17 } else { 0 });
    match cfg.workload {
        Workload::OfflineProtocol => offline::run(cfg, &mut report, &mut tracer)?,
        online => online::run(online, cfg, &mut report, &mut tracer)?,
    }
    if let Some(mib) = peak_rss_mib() {
        report.set("peak_rss_mb", mib, "MiB", 1);
    }
    report.set(
        "failed_op_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted as usize,
    );
    Ok(Outcome {
        report,
        host: Host::since(&dispatch_before),
        spans: tracer.spans().to_vec(),
    })
}

/// Check that the run emitted every metric `declared` lists for its mode, with the declared
/// unit; a missing metric (for example a percentile refused for lack of samples) fails the
/// run.
pub fn check_declared(report: &mut Report, declared: &Declared, trace: bool) {
    let missing: Vec<String> = declared
        .units(trace)
        .into_iter()
        .filter(|(name, unit)| report.metrics.get(name).is_none_or(|m| m.unit != unit))
        .map(|(name, unit)| format!("{name} [{unit}]"))
        .collect();
    report.check(
        "declared metrics emitted with their units",
        missing.is_empty(),
        if missing.is_empty() {
            "all present".to_string()
        } else {
            format!("missing or mis-united: {}", missing.join(", "))
        },
    );
}

const USAGE: &str = "usage:
  ldpjs-pipeline --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
                 [--trace-out <file>] [--scale <f>]
  ldpjs-pipeline repeat --workload <name|all> --runs <n>
workloads: plain_ingest, plain_dashboard, plus_rotation, offline_protocol";

/// Parse the arguments of a single run.
///
/// # Errors
/// A usage message.
pub fn parse_run_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut cfg = RunConfig {
        workload: Workload::PlainIngest,
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        scale: 1.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(value)),
            "--scale" => {
                cfg.scale = value.parse().map_err(|_| bad())?;
                if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    cfg.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    cfg.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    Ok(cfg)
}

/// The command line: run one workload (or the `repeat` subcommand) and return the process
/// exit code — 0 when every output check passed, 1 when one failed or the run could not
/// start, 2 on a usage error.
pub fn main_with_args(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("repeat") {
        return repeat::main(&args[1..]);
    }
    let cfg = match parse_run_args(args) {
        Ok(cfg) => cfg,
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
    let mut outcome = match run(&cfg) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{} failed to start: {msg}", cfg.workload.name());
            return 1;
        }
    };
    check_declared(&mut outcome.report, &declared, cfg.trace);
    if let Some(path) = &cfg.trace_out {
        let text = trace::to_json(cfg.workload.name(), cfg.seed, &outcome.spans);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write trace {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", outcome.report.detail_json(&cfg, &outcome.host));
    println!("{}", outcome.report.result_json(&declared.names(cfg.trace)));
    if outcome.report.correct() {
        0
    } else {
        1
    }
}
