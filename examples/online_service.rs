//! The online sketch service end to end: 1M users per join attribute arriving in 8k-report
//! batches, epoch rotation every 64k reports, sliding-window join estimates over the
//! snapshot ring, and the query cache at work — first on plain-mode attributes, then on
//! **LDPJoinSketch+ attributes** (three-lane windows, cross-window FI reconciliation, and
//! full-span bit-identity with the one-shot chunked plus protocol).
//!
//! Run with: `cargo run --release --example online_service`

use ldp_join_sketch::prelude::*;
use ldp_join_sketch::service::WindowRange;

fn main() {
    plain_service_demo();
    plus_service_demo();
    telemetry_demo();
}

fn plain_service_demo() {
    let n = 1_000_000usize;
    let chunk = 8_192usize;
    let shards = 2usize;
    let params = SketchParams::new(18, 64).unwrap();
    let eps = Epsilon::new(4.0).unwrap();
    let hash_seed = 7u64;

    // Two private tables streamed in bounded chunks — no materialized columns anywhere.
    let generator = ZipfGenerator::new(2.0, 20_000);
    let workload = StreamingJoinWorkload::generate("online", &generator, n, chunk, 42).unwrap();
    let truth = workload.true_join_size() as f64;
    println!("workload: {n} users/table, Zipf(2.0) over 20k values, exact |A ⋈ B| = {truth:.3e}");

    let mut config = ServiceConfig::new(params, eps);
    config.shards = shards;
    config.epoch_reports = 64_000;
    config.retained_windows = 16;
    let mut service = SketchService::new(config).unwrap();
    // Join partners share the public hash seed; that is all the coordination they need.
    let orders = service
        .register_attribute("orders.user_id", hash_seed)
        .unwrap();
    let clicks = service
        .register_attribute("clicks.user_id", hash_seed)
        .unwrap();

    // Continuous ingestion: the protocol's canonical chunked report stream, batch by batch.
    for (attr, table, rng_seed) in [
        (orders, &workload.table_a, 9u64),
        (clicks, &workload.table_b, 9 ^ 0xB),
    ] {
        let client = service.client(attr).unwrap();
        let mut batches = 0u64;
        stream_reports_chunked(table, &client, rng_seed, shards, &mut |reports| {
            batches += 1;
            service.ingest(attr, reports).map(|_| ())
        })
        .unwrap();
        service.rotate(attr).unwrap();
        println!(
            "{}: {} reports in {batches} batches -> {} sealed windows ({} evicted), live {}",
            service.attribute_name(attr).unwrap(),
            service.total_reports(attr).unwrap(),
            service.window_count(attr).unwrap(),
            service.evicted_windows(attr).unwrap(),
            service.live_reports(attr).unwrap(),
        );
    }

    // Dashboard-style sliding-window queries.
    println!("\nsliding-window join estimates (truth {truth:.3e}):");
    for (label, range) in [
        ("latest window ", WindowRange::Latest),
        ("last 4 windows", WindowRange::LastK(4)),
        ("all 16 windows", WindowRange::All),
    ] {
        let q = service.join_size(orders, clicks, range).unwrap();
        println!(
            "  {label}: {:>12.4e}  ({} windows, {} reports, cached: {})",
            q.value, q.windows, q.reports, q.cached
        );
    }

    // The dashboard refreshes: every repeated query is a hash lookup, not an O(k·m) merge.
    for _ in 0..3 {
        for range in [WindowRange::Latest, WindowRange::LastK(4), WindowRange::All] {
            let q = service.join_size(orders, clicks, range).unwrap();
            assert!(q.cached);
        }
    }
    let all = service.join_size(orders, clicks, WindowRange::All).unwrap();
    let re = (all.value - truth).abs() / truth;
    println!("\nall-windows relative error vs exact truth: {re:.4}");

    let stats = service.cache_stats();
    println!(
        "cache: {} hits / {} misses ({} results, {} merged views, {} invalidations)",
        stats.hits, stats.misses, stats.entries, stats.views, stats.invalidations
    );
}

/// The telemetry layer end to end: a pinned-seed service run twice, the Prometheus-style
/// and JSON expositions, per-query provenance (kernel, span source, predicted Theorem 4/5
/// error), and the determinism contract on the deterministic slice, checked byte for byte.
fn telemetry_demo() {
    println!("\n=== telemetry: deterministic exposition + query provenance ===");

    // One pinned-seed service run: ingest, rotate, evict, query (hits and misses), then
    // render every exposition the service offers.
    let run = || {
        let params = SketchParams::new(10, 64).unwrap();
        let eps = Epsilon::new(4.0).unwrap();
        let mut config = ServiceConfig::new(params, eps);
        config.shards = 2;
        config.epoch_reports = 8_000;
        config.retained_windows = 4;
        let mut service = SketchService::new(config).unwrap();
        let orders = service.register_attribute("orders.user_id", 7).unwrap();
        let clicks = service.register_attribute("clicks.user_id", 7).unwrap();

        let generator = ZipfGenerator::new(1.5, 5_000);
        let workload =
            StreamingJoinWorkload::generate("telemetry", &generator, 50_000, 4_096, 11).unwrap();
        for (attr, table, rng_seed) in [
            (orders, &workload.table_a, 3u64),
            (clicks, &workload.table_b, 3 ^ 0xB),
        ] {
            let client = service.client(attr).unwrap();
            stream_reports_chunked(table, &client, rng_seed, 2, &mut |reports| {
                service.ingest(attr, reports).map(|_| ())
            })
            .unwrap();
            service.rotate(attr).unwrap();
        }
        let cold = service.join_size(orders, clicks, WindowRange::All).unwrap();
        let warm = service.join_size(orders, clicks, WindowRange::All).unwrap();
        service.frequency(orders, 1, WindowRange::Latest).unwrap();
        (service, cold, warm)
    };

    let (service, cold, warm) = run();
    let ex = &cold.explain;
    println!(
        "cold all-windows join provenance: kernel={} spans={} windows={} cached={} \
         predicted_err={:.3e} (Thm 5) variance={:.3e}",
        ex.kernel.as_str(),
        ex.span_source.as_str(),
        ex.windows,
        ex.cached,
        ex.predicted_error,
        ex.predicted_variance,
    );
    assert!(!cold.explain.cached && warm.explain.cached);
    assert!(cold.explain.predicted_error > 0.0);

    // The full exposition: ingest/rotation/cache/query counters plus the environment tier
    // (which SIMD kernel tiers this process has run, stage timings).
    let text = service.metrics_text();
    let json = service.metrics_json();
    println!(
        "\nmetrics exposition ({} text lines, {} JSON bytes):",
        text.lines().count(),
        json.len()
    );
    for line in text.lines().filter(|l| {
        l.starts_with("ldpjs_queries_total")
            || l.starts_with("ldpjs_cache_hits_total")
            || l.starts_with("ldpjs_kernel_tier")
            || l.starts_with("ldpjs_ingest_reports_total")
    }) {
        println!("  {line}");
    }

    // CI contract: the deterministic slice is byte-identical across pinned-seed runs.
    let det_a = service.deterministic_telemetry_snapshot().to_text();
    let (service_b, _, _) = run();
    let det_b = service_b.deterministic_telemetry_snapshot().to_text();
    assert_eq!(det_a, det_b, "deterministic exposition must be byte-stable");
    println!(
        "\ndeterministic exposition: {} series, byte-identical across two pinned-seed runs",
        det_a.lines().filter(|l| !l.starts_with('#')).count()
    );
}

/// The windowed LDPJoinSketch+ path: plus-mode attributes absorb labeled three-lane report
/// batches, windows seal the phase-1/phase-2 builders, and the query layer re-discovers the
/// frequent items on the merged phase-1 sketch before running the shared `JoinEst` kernel.
fn plus_service_demo() {
    let n = 1_000_000usize;
    let chunk = 8_192usize;
    let params = SketchParams::new(18, 64).unwrap();
    let eps = Epsilon::new(4.0).unwrap();
    let rng_seed = 900u64;

    let generator = ZipfGenerator::new(2.0, 20_000);
    let workload =
        StreamingJoinWorkload::generate("online-plus", &generator, n, chunk, 43).unwrap();
    let truth = workload.true_join_size() as f64;
    let domain = workload.domain();
    println!("\n=== LDPJoinSketch+ mode: {n} users/table, exact |A ⋈ B| = {truth:.3e} ===");

    let mut plus_cfg = PlusConfig::new(params, eps);
    plus_cfg.sampling_rate = 0.05;
    plus_cfg.adaptive = true;
    plus_cfg.seed = 801;
    let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();

    let mut config = ServiceConfig::new(params, eps);
    config.epoch_reports = 64_000;
    config.retained_windows = 16;
    let mut service = SketchService::new(config).unwrap();
    let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, domain.clone());
    let orders = service
        .register_plus_attribute("orders.user_id", plus_cfg.seed, attr_cfg.clone())
        .unwrap();
    let clicks = service
        .register_plus_attribute("clicks.user_id", plus_cfg.seed, attr_cfg)
        .unwrap();

    // Phase-1 discovery pass ("the server broadcasts FI"), then continuous labeled-batch
    // ingestion — exactly the report streams the one-shot runner absorbs internally.
    let discovery = est
        .discover_frequent_items_chunked(&workload.table_a, &workload.table_b, &domain, rng_seed)
        .unwrap();
    println!(
        "phase-1 discovery: {} frequent items at θ = ({:.4}, {:.4})",
        discovery.frequent_items.len(),
        discovery.thresholds.0,
        discovery.thresholds.1
    );
    for (attr, table, role) in [
        (orders, &workload.table_a, PlusTableRole::A),
        (clicks, &workload.table_b, PlusTableRole::B),
    ] {
        est.stream_plus_reports(
            table,
            role,
            &discovery.frequent_items,
            rng_seed,
            true,
            &mut |batch| service.ingest_plus(attr, batch).map(|_| ()),
        )
        .unwrap();
        service.rotate(attr).unwrap();
        println!(
            "{}: {} reports -> {} plus windows (three sealed lanes each)",
            service.attribute_name(attr).unwrap(),
            service.total_reports(attr).unwrap(),
            service.window_count(attr).unwrap(),
        );
    }

    println!("\nsliding-window plus join estimates (truth {truth:.3e}):");
    for (label, range) in [
        ("latest window ", WindowRange::Latest),
        ("last 4 windows", WindowRange::LastK(4)),
        ("all 16 windows", WindowRange::All),
    ] {
        let q = service.plus_join_size(orders, clicks, range).unwrap();
        println!(
            "  {label}: {:>12.4e}  ({} windows, {} reports, cached: {})",
            q.value, q.windows, q.reports, q.cached
        );
    }

    // The windowed-plus guarantee: the full span answers bit-identically to the one-shot
    // chunked plus protocol over the concatenated stream.
    let one_shot = ldp_join_plus_estimate_chunked(
        &workload.table_a,
        &workload.table_b,
        &domain,
        plus_cfg,
        rng_seed,
    )
    .unwrap();
    let all = service
        .plus_join_size(orders, clicks, WindowRange::All)
        .unwrap();
    assert_eq!(all.value.to_bits(), one_shot.join_size.to_bits());
    println!(
        "\nfull-span windowed plus == one-shot chunked plus (bit-identical): {:.4e}",
        all.value
    );
    println!(
        "all-windows relative error vs exact truth: {:.4}",
        (all.value - truth).abs() / truth
    );
    let stats = service.cache_stats();
    println!(
        "cache: {} hits / {} misses ({} results, {} merged views, {} invalidations)",
        stats.hits, stats.misses, stats.entries, stats.views, stats.invalidations
    );
}
