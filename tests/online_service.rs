//! Online-service soak: the serving layer under ≥1M reports per table with epoch rotation.
//!
//! This is both the default-on acceptance test of the `ldpjs-service` subsystem and the CI
//! release-mode soak lane. It pins the guarantees the service layer adds on top of the
//! offline protocol:
//!
//! 1. **Windowing is invisible to the estimate.** Streaming the protocol's report batches
//!    through `SketchService` — sealed into 16 epoch windows along the way — and then
//!    merging all windows yields a join estimate **bit-identical** to the one-shot
//!    `ldp_join_estimate_chunked` run over the same streams and seeds. (Sealed windows keep
//!    exact integer spectra; a span sums them before a single de-bias scale.)
//! 2. **Repeated queries are served from the cache** with identical output (hit counter
//!    asserted), and the snapshot ring stays within its configured retention bound.
//! 3. **The same holds for the LDPJoinSketch+ path** (`service_plus_soak_*`): windowed
//!    three-lane ingestion with cross-window FI reconciliation answers a full-span plus
//!    join-size query **bit-identical** to `ldp_join_plus_estimate_chunked` over the
//!    concatenated stream, and `Latest`/`LastK` spans stay servable online citizens: a
//!    `LastK` range read after every rotation is served from the span its rotation
//!    re-warmed, bit-identical to a cold assembly.

use ldp_join_sketch::prelude::*;
use ldp_join_sketch::service::WindowRange;

#[test]
fn service_soak_1m_reports_is_bit_identical_to_one_shot_and_caches_queries() {
    let n = 1_000_000usize;
    let chunk = 8_192usize;
    let shards = 2usize;
    let params = SketchParams::new(18, 64).unwrap();
    let eps = Epsilon::new(4.0).unwrap();
    let (hash_seed, rng_seed) = (83u64, 93u64);

    // The same streamed workload regime as the large-n regression (Zipf(2.0), 20k domain).
    let generator = ZipfGenerator::new(2.0, 20_000);
    let w = StreamingJoinWorkload::generate("service-soak", &generator, n, chunk, 4103).unwrap();
    let truth = w.true_join_size() as f64;

    // The service: rotation every 64k reports, ring sized to hold the whole soak.
    let mut config = ServiceConfig::new(params, eps);
    config.shards = shards;
    config.epoch_reports = 64_000;
    config.retained_windows = 16;
    let mut service = SketchService::new(config).unwrap();
    let orders = service
        .register_attribute("orders.user_id", hash_seed)
        .unwrap();
    let clicks = service
        .register_attribute("clicks.user_id", hash_seed)
        .unwrap();

    // Drive the protocol's canonical chunked report stream into the service. The batches
    // (and their per-chunk RNG streams) are exactly what `ldp_join_estimate_chunked` feeds
    // its own aggregators: table A from `rng_seed`, table B from `rng_seed ^ 0xB`.
    for (attr, table, seed) in [
        (orders, &w.table_a, rng_seed),
        (clicks, &w.table_b, rng_seed ^ 0xB),
    ] {
        let client = service.client(attr).unwrap();
        stream_reports_chunked(table, &client, seed, shards, &mut |reports| {
            service.ingest(attr, reports).map(|_| ())
        })
        .unwrap();
        // Seal the sub-threshold tail into the final window.
        service.rotate(attr).unwrap();
    }

    // Epoch accounting: 15 auto-rotations at 65,536 reports (the 8k batch that crosses the
    // 64k threshold) plus the sealed tail; the ring held every window (bounded, no
    // eviction), and nothing is left unsealed.
    for attr in [orders, clicks] {
        assert_eq!(service.total_reports(attr).unwrap(), n as u64);
        assert_eq!(service.window_count(attr).unwrap(), 16);
        assert!(service.window_count(attr).unwrap() <= config.retained_windows);
        assert_eq!(service.evicted_windows(attr).unwrap(), 0);
        assert_eq!(service.live_reports(attr).unwrap(), 0);
    }

    // The one-shot offline reference over the identical streams and seeds.
    let one_shot = ldp_join_estimate_chunked(
        &w.table_a, &w.table_b, params, eps, hash_seed, rng_seed, shards,
    )
    .unwrap();

    // Guarantee 1: merged-all-windows == one-shot, bit for bit.
    let cold = service
        .query(Query::Join(orders, clicks, WindowRange::All))
        .unwrap();
    assert!(!cold.cached);
    assert_eq!((cold.windows, cold.reports), (32, 2 * n as u64));
    assert_eq!(
        cold.value.to_bits(),
        one_shot.to_bits(),
        "windowed estimate {} diverged from one-shot {one_shot}",
        cold.value
    );
    let re = (cold.value - truth).abs() / truth;
    assert!(re < 0.1, "merged estimate lost the truth: RE {re}");

    // Guarantee 2: the repeat is a cache hit with identical output.
    let warm = service
        .query(Query::Join(orders, clicks, WindowRange::All))
        .unwrap();
    assert!(warm.cached, "repeated query must be served from the cache");
    assert_eq!(warm.value.to_bits(), cold.value.to_bits());
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 1, "exactly the repeat hits");
    assert_eq!(stats.misses, 1, "exactly the cold query misses");

    // Final-window sanity: one 16,960-report window still yields a finite, positive
    // estimate of a positive join (a sanity bound, not an accuracy claim — a single small
    // window is legitimately noisy).
    let latest = service
        .query(Query::Join(orders, clicks, WindowRange::Latest))
        .unwrap();
    assert_eq!(latest.reports, 2 * 16_960);
    assert!(latest.value.is_finite());
    assert!(
        latest.value > 0.0,
        "latest-window estimate should see the (heavily skewed) join signal"
    );
}

#[test]
fn service_plus_soak_1m_reports_is_bit_identical_to_one_shot_chunked_plus() {
    let n = 1_000_000usize;
    let chunk = 8_192usize;
    let params = SketchParams::new(18, 64).unwrap();
    let eps = Epsilon::new(4.0).unwrap();
    let rng_seed = 900u64;

    // The large-n regime of the plus-superiority regression: Zipf(2.0) over a 20k domain.
    let generator = ZipfGenerator::new(2.0, 20_000);
    let w = StreamingJoinWorkload::generate("plus-soak", &generator, n, chunk, 4104).unwrap();
    let truth = w.true_join_size() as f64;
    let domain = w.domain();

    let mut plus_cfg = PlusConfig::new(params, eps);
    plus_cfg.sampling_rate = 0.05;
    plus_cfg.adaptive = true;
    plus_cfg.seed = 800;
    let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();

    // The service: plus-mode attributes sharing the protocol seed and estimator knobs,
    // count-triggered rotation every 64k reports, ring sized to hold the whole soak.
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

    // The online flow: the server's phase-1 discovery pass broadcasts FI, then each
    // table's clients emit labeled (phase-1 + FAP phase-2) batches — exactly the report
    // streams the one-shot runner absorbs internally — which the service windows.
    let discovery = est
        .discover_frequent_items_chunked(&w.table_a, &w.table_b, &domain, rng_seed)
        .unwrap();
    assert!(
        !discovery.frequent_items.is_empty(),
        "Zipf(2.0) must surface frequent items"
    );
    for (attr, table, role) in [
        (orders, &w.table_a, PlusTableRole::A),
        (clicks, &w.table_b, PlusTableRole::B),
    ] {
        let mut rotations = 0;
        est.stream_plus_reports(
            table,
            role,
            &discovery.frequent_items,
            rng_seed,
            true,
            &mut |batch| {
                let rotated = service.ingest(attr, batch)?.rotations;
                rotations += rotated;
                if rotated == 0 || rotations < 2 {
                    return Ok(());
                }
                // Right after each rotation from the second on, `LastK(4)` spans several
                // windows: the whole ring (a kept state) through the fourth, then a suffix
                // the rotation re-warmed because this read recorded it in the epoch before.
                // The re-warmed state must give the bits a cold assembly gives.
                let warm = service.query(Query::Frequency(attr, 0, WindowRange::LastK(4)))?;
                assert_eq!(warm.explain.span_source, SpanSource::MemoizedView);
                service.clear_cache();
                let cold = service.query(Query::Frequency(attr, 0, WindowRange::LastK(4)))?;
                assert_eq!(cold.value.to_bits(), warm.value.to_bits());
                Ok(())
            },
        )
        .unwrap();
        // Seal the sub-threshold tail into the final window.
        service.rotate(attr).unwrap();
    }

    // Epoch accounting mirrors the plain soak: every user contributes exactly one report
    // to exactly one lane, so 1M reports seal into 16 windows with nothing left live.
    for attr in [orders, clicks] {
        assert_eq!(service.total_reports(attr).unwrap(), n as u64);
        assert_eq!(service.window_count(attr).unwrap(), 16);
        assert_eq!(service.evicted_windows(attr).unwrap(), 0);
        assert_eq!(service.live_reports(attr).unwrap(), 0);
    }

    // The one-shot offline reference over the identical streams, seeds and knobs.
    let one_shot =
        ldp_join_plus_estimate_chunked(&w.table_a, &w.table_b, &domain, plus_cfg, rng_seed)
            .unwrap();

    // The windowed-plus guarantee: merged-all-windows == one-shot, bit for bit — the
    // merged per-lane counters are exact, and the frequent items re-discovered on the
    // merged phase-1 sketch (cross-window FI reconciliation) equal the broadcast set.
    let cold = service
        .query(Query::PlusJoin(orders, clicks, WindowRange::All))
        .unwrap();
    assert!(!cold.cached);
    assert_eq!((cold.windows, cold.reports), (32, 2 * n as u64));
    assert_eq!(
        cold.value.to_bits(),
        one_shot.join_size.to_bits(),
        "windowed plus estimate {} diverged from one-shot {}",
        cold.value,
        one_shot.join_size
    );
    let re = (cold.value - truth).abs() / truth;
    assert!(re < 0.1, "merged plus estimate lost the truth: RE {re}");

    // Repeats are cache hits with identical output.
    let warm = service
        .query(Query::PlusJoin(orders, clicks, WindowRange::All))
        .unwrap();
    assert!(warm.cached, "repeated plus query must be served from cache");
    assert_eq!(warm.value.to_bits(), cold.value.to_bits());

    // Sliding-window plus queries resolve and answer finitely online (single windows are
    // legitimately noisier — sanity bounds, not accuracy claims).
    for range in [WindowRange::Latest, WindowRange::LastK(4)] {
        let q = service
            .query(Query::PlusJoin(orders, clicks, range))
            .unwrap();
        assert!(q.value.is_finite(), "{range:?} answer must be finite");
        assert!(
            service
                .query(Query::PlusJoin(orders, clicks, range))
                .unwrap()
                .cached
        );
    }

    // Plus frequency of the heaviest value over the full span tracks its exact count.
    let f = service
        .query(Query::Frequency(orders, 0, WindowRange::All))
        .unwrap();
    let truth_f = w.count_a(0) as f64;
    let fre = (f.value - truth_f).abs() / truth_f;
    assert!(
        fre < 0.2,
        "plus frequency RE {fre} (est {}, truth {truth_f})",
        f.value
    );
}
