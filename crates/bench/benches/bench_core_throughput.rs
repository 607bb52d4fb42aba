//! Microbenchmarks of the core LDPJoinSketch primitives: client-side encoding/perturbation
//! into packed report batches (sequential and parallel fan-out), server-side batch absorption
//! into one builder, the one-shot Hadamard finalization, and the zero-copy join-size and
//! frequency estimators.
//!
//! These are the building blocks every figure-level experiment is composed of; tracking their
//! throughput separately makes regressions attributable.
//!
//! Besides the human-readable medians, this bench writes machine-readable results to
//! `BENCH_core.json` at the workspace root (override with the `BENCH_CORE_JSON` env var) so
//! the performance trajectory is tracked across PRs. The file also carries the frozen
//! pre-refactor baseline of the clone-heavy estimator path for comparison. Set
//! `BENCH_SMOKE=1` to run a seconds-fast smoke pass (CI uses this to keep the writer
//! compiling and the JSON schema exercised).

use criterion::{BatchSize, Bencher, Criterion};
use ldpjs_common::ReportBatch;
use ldpjs_core::client::LdpJoinSketchClient;
use ldpjs_core::protocol::{
    build_private_sketch, ldp_join_estimate_chunked, ldp_join_plus_estimate_chunked,
};
use ldpjs_core::server::SketchBuilder;
use ldpjs_core::{
    Candidates, Epsilon, LdpJoinSketchPlus, PlusConfig, PlusReportBatch, PlusTableRole,
    SketchParams,
};
use ldpjs_data::{StreamingJoinWorkload, ValueGenerator, ZipfGenerator};
use ldpjs_service::{PlusAttributeConfig, ServiceConfig, SketchService, WindowRange};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn params() -> SketchParams {
    SketchParams::new(18, 1024).unwrap()
}

fn eps() -> Epsilon {
    Epsilon::new(4.0).unwrap()
}

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| v != "0")
}

/// One machine-readable benchmark record.
struct Record {
    name: String,
    method: &'static str,
    n: usize,
    k: usize,
    m: usize,
    median_ns: f64,
}

/// Collects `(name, median)` pairs from the Criterion shim into typed records.
struct Recorder {
    records: Vec<Record>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            records: Vec::new(),
        }
    }

    /// Run one benchmark and attach the `(method, n, k, m)` metadata to its median.
    fn bench<F>(
        &mut self,
        c: &mut Criterion,
        name: &str,
        method: &'static str,
        n: usize,
        p: SketchParams,
        f: F,
    ) where
        F: FnMut(&mut Bencher),
    {
        c.bench_function(name, f);
        self.records.push(Record {
            name: name.to_string(),
            method,
            n,
            k: p.rows(),
            m: p.columns(),
            median_ns: c.last_median_ns().expect("bench just ran"),
        });
    }
}

fn bench_client_perturb(c: &mut Criterion, rec: &mut Recorder) {
    let client = LdpJoinSketchClient::new(params(), eps(), 7);
    let mut rng = StdRng::seed_from_u64(1);
    let mut value = 0u64;
    rec.bench(
        c,
        "core/client_perturb_one_value",
        "client_perturb",
        1,
        params(),
        |b| {
            b.iter(|| {
                value = value.wrapping_add(1) % 100_000;
                black_box(client.perturb(black_box(value), &mut rng))
            })
        },
    );

    // Packed perturbation, sequential and fanned out over worker threads. The parallel
    // path is thread-count-invariant, so the lanes compare like for like.
    let n = if smoke() { 20_000 } else { 200_000 };
    let gen = ZipfGenerator::new(1.3, 100_000);
    let values = gen.sample_many(n, &mut rng);
    rec.bench(
        c,
        &format!("core/client_perturb_batch_{n}_packed"),
        "client_perturb_batch",
        n,
        params(),
        |b| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(2);
                black_box(client.perturb_batch(black_box(&values), &mut r).unwrap())
            })
        },
    );
    let mut batch = ReportBatch::new(params().rows(), params().columns()).unwrap();
    for threads in [2usize, 4, 8] {
        rec.bench(
            c,
            &format!("core/client_perturb_batch_parallel_{n}_{threads}threads"),
            "client_perturb_batch_parallel",
            n,
            params(),
            |b| {
                b.iter(|| {
                    client
                        .perturb_batch_parallel_into(black_box(&values), 2, threads, &mut batch)
                        .unwrap();
                    black_box(batch.len())
                })
            },
        );
    }
}

fn bench_server_ingest(c: &mut Criterion, rec: &mut Recorder) {
    let client = LdpJoinSketchClient::new(params(), eps(), 7);
    let mut rng = StdRng::seed_from_u64(2);
    let gen = ZipfGenerator::new(1.3, 100_000);
    let n_small = 10_000;
    let small = client
        .perturb_batch(&gen.sample_many(n_small, &mut rng), &mut rng)
        .unwrap();
    rec.bench(
        c,
        "core/server_absorb_10k_reports",
        "server_absorb",
        n_small,
        params(),
        |b| {
            b.iter_batched(
                || SketchBuilder::new(params(), eps(), 7),
                |mut builder| {
                    builder.absorb_batch(black_box(&small)).unwrap();
                    black_box(builder)
                },
                BatchSize::SmallInput,
            )
        },
    );
}

fn bench_finalize_restore(c: &mut Criterion, rec: &mut Recorder) {
    let mut group_sizes: Vec<usize> = vec![256, 1024];
    if !smoke() {
        group_sizes.push(4096);
    }
    for m in group_sizes {
        let p = SketchParams::new(18, m).unwrap();
        let client = LdpJoinSketchClient::new(p, eps(), 3);
        let mut rng = StdRng::seed_from_u64(3);
        let gen = ZipfGenerator::new(1.3, 50_000);
        let n = if smoke() { 2_000 } else { 20_000 };
        let batch = client
            .perturb_batch(&gen.sample_many(n, &mut rng), &mut rng)
            .unwrap();
        let mut builder = SketchBuilder::new(p, eps(), 3);
        builder.absorb_batch(&batch).unwrap();
        rec.bench(
            c,
            &format!("core/finalize_restore/{m}"),
            "finalize_restore",
            n,
            p,
            |b| {
                b.iter_batched(
                    || builder.clone(),
                    |builder| black_box(builder.finalize()),
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

fn bench_estimation(c: &mut Criterion, rec: &mut Recorder) {
    let gen = ZipfGenerator::new(1.3, 50_000);
    let mut rng = StdRng::seed_from_u64(4);
    let n = if smoke() { 5_000 } else { 50_000 };
    let a = gen.sample_many(n, &mut rng);
    let b_vals = gen.sample_many(n, &mut rng);
    let sa = build_private_sketch(&a, params(), eps(), 9, &mut rng).unwrap();
    let sb = build_private_sketch(&b_vals, params(), eps(), 9, &mut rng).unwrap();
    rec.bench(
        c,
        "core/join_size_estimate",
        "join_size",
        n,
        params(),
        |b| b.iter(|| black_box(sa.join_size(&sb).unwrap())),
    );
    rec.bench(
        c,
        "core/frequency_estimate_one_value",
        "frequency",
        n,
        params(),
        |b| {
            let mut v = 0u64;
            b.iter(|| {
                v = (v + 1) % 1000;
                black_box(sa.frequency(black_box(v)))
            })
        },
    );
    // The one scan entry from its two candidate sources. The slice lane indexes its 10k
    // candidates itself, in two blocks, on every call; the indexed lane reuses a
    // `DomainIndex` hashed once, so it times the gather alone.
    let candidates: Vec<u64> = (0..10_000).collect();
    rec.bench(
        c,
        "core/frequency_scan_10k_candidates",
        "frequencies",
        n,
        params(),
        |b| {
            b.iter(|| {
                black_box(
                    sa.frequencies(Candidates::Slice(black_box(&candidates)))
                        .unwrap(),
                )
            })
        },
    );
    let index = ldpjs_core::DomainIndex::new(sa.hashes(), std::sync::Arc::new(candidates.clone()));
    rec.bench(
        c,
        "core/frequency_scan_10k_candidates_indexed",
        "frequencies",
        n,
        params(),
        |b| {
            b.iter(|| {
                black_box(
                    sa.frequencies(Candidates::Index(black_box(&index)))
                        .unwrap(),
                )
            })
        },
    );
}

/// End-to-end throughput of the large-n streaming regime: the full plain and adaptive-plus
/// protocols over chunked 1M-user Zipf(2.0) streams at the narrow (18, 64) sketch of the
/// default-on superiority regression. These are whole-protocol runs (workload replay,
/// client simulation, ingestion, estimation), so their medians record the wall-clock cost
/// of the regime the `large_n` test gates on — the entry the perf trajectory tracks.
fn bench_large_n_streaming(rec: &mut Recorder) {
    // Whole-protocol iterations are ~a second each in release; keep the sample count low
    // and separate from the microbench Criterion instance.
    let mut c = Criterion::default()
        .sample_size(if smoke() { 1 } else { 3 })
        .warm_up_time(std::time::Duration::from_millis(1))
        .measurement_time(std::time::Duration::from_millis(1));
    let n = if smoke() { 50_000 } else { 1_000_000 };
    let p = SketchParams::new(18, 64).unwrap();
    let gen = ZipfGenerator::new(2.0, 20_000);
    let w = StreamingJoinWorkload::generate("bench-large-n", &gen, n, 8_192, 4100).unwrap();
    let domain = w.domain();
    rec.bench(
        &mut c,
        &format!("core/large_n_streaming_plain_join_{n}"),
        "large_n_streaming_plain",
        n,
        p,
        |b| {
            b.iter(|| {
                black_box(
                    ldp_join_estimate_chunked(&w.table_a, &w.table_b, p, eps(), 80, 90, 2).unwrap(),
                )
            })
        },
    );
    let mut cfg = PlusConfig::new(p, eps());
    cfg.sampling_rate = 0.05;
    cfg.adaptive = true;
    cfg.seed = 800;
    rec.bench(
        &mut c,
        &format!("core/large_n_streaming_plus_join_{n}"),
        "large_n_streaming_plus",
        n,
        p,
        |b| {
            b.iter(|| {
                black_box(
                    ldp_join_plus_estimate_chunked(&w.table_a, &w.table_b, &domain, cfg, 900)
                        .unwrap(),
                )
            })
        },
    );
}

/// The online sketch service: continuous batch ingestion into the live engine, and the
/// cached query layer — a cold `All`-range join query pays the 8-window merge + restore +
/// row product, the repeated query is a hash lookup. The cold/cached pair is the service's
/// headline trade-off, tracked as `service_query_{cold,cached}` in BENCH_core.json.
fn bench_service(c: &mut Criterion, rec: &mut Recorder) {
    let windows = 8usize;
    let n_window = if smoke() { 4_000 } else { 32_000 };
    let mut config = ServiceConfig::new(params(), eps());
    config.shards = 2;
    config.epoch_reports = u64::MAX >> 1; // rotation driven explicitly below
    config.retained_windows = windows;
    let mut service = SketchService::new(config).unwrap();
    let a = service.register_attribute("bench.a", 7).unwrap();
    let b = service.register_attribute("bench.b", 7).unwrap();
    let gen = ZipfGenerator::new(1.3, 100_000);
    let mut rng = StdRng::seed_from_u64(11);
    for attr in [a, b] {
        let client = service.client(attr).unwrap();
        for _ in 0..windows {
            let batch = client
                .perturb_batch(&gen.sample_many(n_window, &mut rng), &mut rng)
                .unwrap();
            service.ingest(attr, &batch).unwrap();
            service.rotate(attr).unwrap();
        }
    }

    // One epoch payload carried in the packed sign-split shape end to end:
    // `perturb_batch` at the client, `SketchService::ingest_batch` into the live engine.
    let ingest_values = gen.sample_many(8_192, &mut rng);
    let packed = service
        .client(a)
        .unwrap()
        .perturb_batch(&ingest_values, &mut rng)
        .unwrap();
    rec.bench(
        c,
        "service/ingest_throughput_batched_8192_report_batch",
        "service_ingest_throughput_batched",
        8_192,
        params(),
        |bn| {
            bn.iter(|| {
                service.ingest_batch(a, black_box(&packed)).unwrap();
                black_box(service.live_reports(a).unwrap())
            })
        },
    );

    let n_total = 2 * windows * n_window;
    rec.bench(
        c,
        "service/query_cold_all_windows_join",
        "service_query_cold",
        n_total,
        params(),
        |bn| {
            bn.iter(|| {
                service.clear_cache();
                black_box(service.join_size(a, b, WindowRange::All).unwrap())
            })
        },
    );
    // Prime once, then every query is a memoized lookup.
    service.clear_cache();
    service.join_size(a, b, WindowRange::All).unwrap();
    rec.bench(
        c,
        "service/query_cached_all_windows_join",
        "service_query_cached",
        n_total,
        params(),
        |bn| bn.iter(|| black_box(service.join_size(a, b, WindowRange::All).unwrap())),
    );
}

/// The windowed LDPJoinSketch+ serving path: labeled three-lane batch ingestion, and the
/// cold/cached cost of a plus all-windows join-size query. The whole-ring state, with its
/// cross-window FI re-discovery, is rebuilt at rotation, so cold is an `Arc` clone of that
/// state plus the `JoinEst` kernel; the repeat is a hash lookup. Tracked as
/// `service_plus_ingest_throughput` and `service_plus_query_{cold,cached}` in
/// BENCH_core.json.
fn bench_service_plus(c: &mut Criterion, rec: &mut Recorder) {
    let windows = 8usize;
    let n_window = if smoke() { 4_000 } else { 32_000 };
    let n = windows * n_window;
    let chunk = 2_000usize;
    let p = params();
    let generator = ZipfGenerator::new(2.0, 4_096);
    let w = StreamingJoinWorkload::generate("bench-plus-svc", &generator, n, chunk, 4200).unwrap();
    let domain = w.domain();

    let mut plus_cfg = PlusConfig::new(p, eps());
    plus_cfg.sampling_rate = 0.05;
    plus_cfg.adaptive = true;
    plus_cfg.seed = 4300;
    let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();
    let rng_seed = 4400u64;
    let discovery = est
        .discover_frequent_items_chunked(&w.table_a, &w.table_b, &domain, rng_seed)
        .unwrap();

    let mut config = ServiceConfig::new(p, eps());
    config.epoch_reports = u64::MAX >> 1; // rotation driven explicitly below
    config.retained_windows = windows;
    let mut service = SketchService::new(config).unwrap();
    let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, domain.clone());
    let a = service
        .register_plus_attribute("bench.plus.a", plus_cfg.seed, attr_cfg.clone())
        .unwrap();
    let b = service
        .register_plus_attribute("bench.plus.b", plus_cfg.seed, attr_cfg)
        .unwrap();

    // Drive the full labeled stream in, sealing `windows` epochs per attribute, and keep
    // one emitted batch around as the ingest-throughput payload.
    let batches_per_window = n.div_ceil(chunk).div_ceil(windows);
    let mut payload = PlusReportBatch::new(p).unwrap();
    for (attr, table, role) in [
        (a, &w.table_a, PlusTableRole::A),
        (b, &w.table_b, PlusTableRole::B),
    ] {
        let mut in_window = 0usize;
        est.stream_plus_reports(
            table,
            role,
            &discovery.frequent_items,
            rng_seed,
            true,
            &mut |batch| {
                if payload.is_empty() {
                    payload = batch.clone();
                }
                service.ingest_plus(attr, batch)?;
                in_window += 1;
                if in_window == batches_per_window {
                    service.rotate(attr)?;
                    in_window = 0;
                }
                Ok(())
            },
        )
        .unwrap();
        service.rotate(attr).unwrap();
    }

    rec.bench(
        c,
        &format!("service/plus_ingest_throughput_{chunk}_report_batch"),
        "service_plus_ingest_throughput",
        chunk,
        p,
        |bn| {
            bn.iter(|| {
                service.ingest_plus(a, black_box(&payload)).unwrap();
                black_box(service.live_reports(a).unwrap())
            })
        },
    );

    let n_total = 2 * n;
    rec.bench(
        c,
        "service/plus_query_cold_all_windows_join",
        "service_plus_query_cold",
        n_total,
        p,
        |bn| {
            bn.iter(|| {
                service.clear_cache();
                black_box(service.plus_join_size(a, b, WindowRange::All).unwrap())
            })
        },
    );
    // Prime once, then every query is a memoized lookup.
    service.clear_cache();
    service.plus_join_size(a, b, WindowRange::All).unwrap();
    rec.bench(
        c,
        "service/plus_query_cached_all_windows_join",
        "service_plus_query_cached",
        n_total,
        p,
        |bn| bn.iter(|| black_box(service.plus_join_size(a, b, WindowRange::All).unwrap())),
    );
}

/// The clone-heavy estimator medians measured immediately before the zero-copy
/// builder/finalize refactor, on this repository's reference machine (k = 18, m = 1024;
/// same workloads as the current benches). Kept in the JSON so every future run can be
/// compared against the pre-refactor hot path without checking out an old commit.
const BASELINE_PRE_REFACTOR: &[(&str, &str, usize, usize, usize, f64)] = &[
    (
        "core/client_perturb_one_value",
        "client_perturb",
        1,
        18,
        1024,
        71.0,
    ),
    (
        "core/server_absorb_10k_reports",
        "server_absorb",
        10_000,
        18,
        1024,
        13_491.0,
    ),
    (
        "core/hadamard_restore/256",
        "finalize_restore",
        20_000,
        18,
        256,
        21_898.0,
    ),
    (
        "core/hadamard_restore/1024",
        "finalize_restore",
        20_000,
        18,
        1024,
        92_027.0,
    ),
    (
        "core/hadamard_restore/4096",
        "finalize_restore",
        20_000,
        18,
        4096,
        419_441.0,
    ),
    (
        "core/join_size_estimate",
        "join_size",
        50_000,
        18,
        1024,
        18_274.0,
    ),
    (
        "core/frequency_estimate_one_value",
        "frequency",
        50_000,
        18,
        1024,
        3_935.0,
    ),
    (
        "core/frequency_scan_10k_candidates",
        "frequencies",
        50_000,
        18,
        1024,
        3_075_000.0,
    ),
];

fn json_record(name: &str, method: &str, n: usize, k: usize, m: usize, median_ns: f64) -> String {
    format!(
        "    {{\"name\": \"{name}\", \"method\": \"{method}\", \"n\": {n}, \"k\": {k}, \
         \"m\": {m}, \"median_ns\": {median_ns:.1}}}"
    )
}

/// The `"name"` field of one serialized record line, if it has one.
fn record_name(line: &str) -> Option<&str> {
    let rest = &line[line.find("\"name\": \"")? + 9..];
    Some(&rest[..rest.find('"')?])
}

/// The `results` entries of a previously written BENCH_core.json, in file order. Missing
/// or unrecognizable files merge as empty.
fn existing_results(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(start) = text.find("\"results\": [") else {
        return Vec::new();
    };
    let Some(len) = text[start..].find(']') else {
        return Vec::new();
    };
    text[start..start + len]
        .lines()
        .skip(1)
        .map(|l| l.trim_end().trim_end_matches(',').to_string())
        .filter(|l| record_name(l).is_some())
        .collect()
}

fn write_json(records: &[Record]) {
    let path = std::env::var("BENCH_CORE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json").to_string()
    });
    // Merge this run into the existing file BY NAME: a bench that ran replaces its old
    // entry in place, benches this (possibly filtered) run skipped keep their last
    // result, and nothing is ever appended twice — so partial runs no longer drop or
    // duplicate entries.
    let mut fresh: Vec<(String, String)> = records
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                json_record(&r.name, r.method, r.n, r.k, r.m, r.median_ns),
            )
        })
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut current: Vec<String> = Vec::new();
    for line in existing_results(&path) {
        let name = record_name(&line).expect("filtered above").to_string();
        if !seen.insert(name.clone()) {
            continue; // drop duplicates a previous writer bug left behind
        }
        match fresh.iter().position(|(n, _)| *n == name) {
            Some(pos) => current.push(fresh.remove(pos).1),
            None => current.push(line),
        }
    }
    for (name, line) in fresh {
        if seen.insert(name) {
            current.push(line);
        }
    }
    let baseline: Vec<String> = BASELINE_PRE_REFACTOR
        .iter()
        .map(|&(name, method, n, k, m, ns)| json_record(name, method, n, k, m, ns))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"ldpjs-bench-core-v1\",\n  \"smoke\": {},\n  \"results\": [\n{}\n  ],\n  \"baseline_pre_refactor\": [\n{}\n  ]\n}}\n",
        smoke(),
        current.join(",\n"),
        baseline.join(",\n"),
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote machine-readable results to {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

fn main() {
    let samples = if smoke() { 3 } else { 20 };
    let mut c = Criterion::default()
        .sample_size(samples)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .configure_from_args();
    let mut rec = Recorder::new();
    bench_client_perturb(&mut c, &mut rec);
    bench_server_ingest(&mut c, &mut rec);
    bench_finalize_restore(&mut c, &mut rec);
    bench_estimation(&mut c, &mut rec);
    bench_service(&mut c, &mut rec);
    bench_service_plus(&mut c, &mut rec);
    bench_large_n_streaming(&mut rec);
    write_json(&rec.records);
}
