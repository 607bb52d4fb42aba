//! Every workload, run in-process at a tiny scale: the metrics `BENCHMARK.json` declares are
//! emitted with their units, the output checks pass, the trace file parses, and the layers'
//! self times never exceed the traced loop time.

use ldpjs_pipeline_bench::json::Json;
use ldpjs_pipeline_bench::report::{Declared, BENCHMARK_JSON};
use ldpjs_pipeline_bench::trace::{self_times, NO_PARENT};
use ldpjs_pipeline_bench::{check_declared, main_with_args, run, RunConfig, Workload};

const SCALE: f64 = 1.0 / 128.0;

fn config(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        trace_out: None,
        scale: SCALE,
    }
}

fn declared() -> Declared {
    Declared::load().expect("BENCHMARK.json readable")
}

fn assert_run_passes(workload: Workload, trace: bool) {
    let declared = declared();
    let mut outcome = run(&config(workload, trace)).expect("workload sets up");
    check_declared(&mut outcome.report, &declared, trace);
    let failed: Vec<_> = outcome
        .report
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect();
    assert!(
        outcome.report.correct(),
        "{} (trace {trace}) failed: {failed:?}",
        workload.name()
    );
    if !trace {
        return;
    }
    let spans = &outcome.spans;
    assert!(!spans.is_empty(), "{} recorded no spans", workload.name());
    let top: u64 = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.dur_ns())
        .sum();
    assert_eq!(
        self_times(spans).iter().sum::<u64>(),
        top,
        "self times partition the top-level spans"
    );
    let ratio = outcome.report.metrics["trace.layer_sum_ratio"].value;
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "{}: layer self times sum to {ratio} of the traced loop",
        workload.name()
    );
}

#[test]
fn plain_ingest_emits_declared_metrics_and_passes_checks() {
    assert_run_passes(Workload::PlainIngest, false);
    assert_run_passes(Workload::PlainIngest, true);
}

#[test]
fn plain_dashboard_emits_declared_metrics_and_passes_checks() {
    assert_run_passes(Workload::PlainDashboard, false);
    assert_run_passes(Workload::PlainDashboard, true);
}

#[test]
fn plus_rotation_emits_declared_metrics_and_passes_checks() {
    assert_run_passes(Workload::PlusRotation, false);
    assert_run_passes(Workload::PlusRotation, true);
}

#[test]
fn offline_protocol_emits_declared_metrics_and_passes_checks() {
    assert_run_passes(Workload::OfflineProtocol, false);
    assert_run_passes(Workload::OfflineProtocol, true);
}

#[test]
fn benchmark_json_names_exactly_the_harness_workloads() {
    let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    let d = declared();
    assert!(d
        .end_to_end
        .iter()
        .any(|(n, u, _)| n == "setup_s" && u == "s"));
}

#[test]
fn command_line_writes_a_parseable_trace_and_rejects_bad_flags() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("offline_trace.json");
    let args: Vec<String> = [
        "--workload",
        "offline_protocol",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "1",
        "--trace-out",
        path.to_str().expect("utf-8 temp path"),
        "--scale",
        "0.0078125",
    ]
    .map(String::from)
    .to_vec();
    assert_eq!(main_with_args(&args), 0);
    let doc =
        Json::parse(&std::fs::read_to_string(&path).expect("trace written")).expect("trace parses");
    let spans = doc.get("spans").and_then(Json::as_arr).expect("span list");
    assert!(!spans.is_empty());
    for key in ["name", "layer", "start_ns", "end_ns", "parent", "unit"] {
        assert!(spans[0].get(key).is_some(), "span lacks {key}");
    }
    for bad in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "plain_ingest"][..],
        &["--workload", "plain_ingest", "--seed", "1", "--trace", "2"][..],
    ] {
        let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
        assert_eq!(main_with_args(&bad), 2, "accepted {bad:?}");
    }
}
