//! Release-mode performance smoke gates for the online service's cold-query path and for
//! packed ingest.
//!
//! A cold LDPJoinSketch+ all-windows join stays at interactive latency because each plus
//! attribute keeps its whole-ring merged state, rebuilt at rotation from the span ledger:
//! without it a cold plus query re-merges three lanes, restores three sketches, and
//! re-scans the full public domain for frequent items — a measured 16× cliff over the
//! plain path (10.3× when the state is assembled from the span ledger on the query path
//! instead of at rotation). The query gate
//! pins the ratio: on a pinned config (k = 18, m = 1024, 8 windows
//! × 4k reports per window, Zipf(2.0) over a 4096 domain), a cold plus all-windows join
//! must cost **at most 4×** a cold plain all-windows join. Other plus ranges are assembled
//! on first use and re-warmed at rotation, so they are not what this gate times.
//!
//! The two ingest gates time 400k reports on the same shape: packed
//! `SketchBuilder::absorb_batch` must run **at least 4×** faster than per-report
//! `SketchBuilder::absorb`, and `SketchService::ingest`, where telemetry is always on, may
//! cost **at most 3%** more than a bare `absorb_batch`.
//!
//! The kernel gate times Eq. 5 on two restored sketches of the pinned shape:
//! `PlainKernel::join_size`, whose row products run the 16-lane fixed-association
//! reduction, must cost **at most 0.6×** a test-local Eq. 5 whose row sums are one serial
//! `f64` add chain each, the form `Iterator::sum` compiles to.
//!
//! The row-total gate times the adaptive `JoinEst` partials on the same two sketches:
//! `row_products_centered` plus `row_products_masked`, which take each row's total from its
//! coordinate-0 count, must cost **at most 0.6×** test-local versions that sum every row
//! for it with the library's 16-lane reduction, the bodies the counts replaced.
//!
//! The gates only mean something with optimizations on, so under a debug build each prints
//! a skip notice and exits. Each times two alternating arms and gates on the median of the
//! per-round ratios, so CI runs them one at a time,
//! `cargo test --release --test perf_smoke -- --test-threads=1`, lest one gate's arms time
//! another gate's load.

use ldp_join_sketch::common::stats::median;
use ldp_join_sketch::prelude::*;
use ldp_join_sketch::service::WindowRange;
use rand::SeedableRng;
use std::time::Instant;

const WINDOWS: usize = 8;
const N_WINDOW: usize = 4_000;
const CHUNK: usize = 2_000;

fn pinned_params() -> SketchParams {
    SketchParams::new(18, 1024).unwrap()
}

fn pinned_eps() -> Epsilon {
    Epsilon::new(4.0).unwrap()
}

/// The median of the per-round time ratios `B_i / A_i` of two arms, sampled alternately so
/// host drift lands on both arms of a round alike instead of in their ratio. Each arm is
/// warmed up first (caches, branch predictors, the allocator); then every round times one
/// sample of each arm, swapping which arm goes first every round. Prints each arm's median,
/// the ratios' quartiles and the gate's resolution: the 10th and 22nd of the 31 sorted
/// ratios, a distribution-free interval that holds the true median ratio with 97.1%
/// confidence (`1 − 2·P[Bin(31, ½) ≤ 9]`).
fn paired_median_ratio(label: &str, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    const SAMPLES: usize = 31;
    for _ in 0..3 {
        a();
    }
    for _ in 0..3 {
        b();
    }
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    };
    let (mut sa, mut sb) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for round in 0..SAMPLES {
        if round % 2 == 0 {
            sa.push(time(&mut a));
            sb.push(time(&mut b));
        } else {
            sb.push(time(&mut b));
            sa.push(time(&mut a));
        }
    }
    let mut ratios: Vec<f64> = sb.iter().zip(&sa).map(|(b, a)| b / a).collect();
    let quartiles = |samples: &mut [f64]| {
        samples.sort_unstable_by(f64::total_cmp);
        let n = samples.len();
        (samples[n / 4], samples[n / 2], samples[3 * n / 4])
    };
    for (name, samples) in [("A", &mut sa), ("B", &mut sb)] {
        let (_, median, _) = quartiles(samples);
        eprintln!("{label}: {name} median {median:.0} ns");
    }
    let (q1, median, q3) = quartiles(&mut ratios);
    eprintln!("{label}: B/A median {median:.4} (quartiles {q1:.4}..{q3:.4}, {SAMPLES} rounds)");
    let (lo, hi) = (ratios[9], ratios[21]);
    eprintln!("{label}: B/A median 97.1% interval {lo:.4}..{hi:.4} (10th..22nd of {SAMPLES})");
    median
}

/// A plain two-attribute service with `WINDOWS` sealed epochs per attribute.
fn plain_service() -> (SketchService, AttributeId, AttributeId) {
    let mut config = ServiceConfig::new(pinned_params(), pinned_eps());
    config.epoch_reports = u64::MAX >> 1;
    config.retained_windows = WINDOWS;
    let mut service = SketchService::new(config).unwrap();
    let a = service.register_attribute("smoke.plain.a", 7).unwrap();
    let b = service.register_attribute("smoke.plain.b", 7).unwrap();
    let gen = ZipfGenerator::new(2.0, 4_096);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for attr in [a, b] {
        let client = service.client(attr).unwrap();
        for _ in 0..WINDOWS {
            let batch = client
                .perturb_batch(&gen.sample_many(N_WINDOW, &mut rng), &mut rng)
                .unwrap();
            service.ingest(attr, &batch).unwrap();
            service.rotate(attr).unwrap();
        }
    }
    (service, a, b)
}

/// A plus two-attribute service over the same pinned config, driven by the canonical
/// labeled report stream.
fn plus_service() -> (SketchService, AttributeId, AttributeId) {
    let n = WINDOWS * N_WINDOW;
    let generator = ZipfGenerator::new(2.0, 4_096);
    let w = StreamingJoinWorkload::generate("perf-smoke-plus", &generator, n, CHUNK, 4200).unwrap();
    let domain = w.domain();

    let mut plus_cfg = PlusConfig::new(pinned_params(), pinned_eps());
    plus_cfg.sampling_rate = 0.05;
    plus_cfg.adaptive = true;
    plus_cfg.seed = 4300;
    let est = LdpJoinSketchPlus::new(plus_cfg).unwrap();
    let rng_seed = 4400u64;
    let discovery = est
        .discover_frequent_items_chunked(&w.table_a, &w.table_b, &domain, rng_seed)
        .unwrap();

    let mut config = ServiceConfig::new(pinned_params(), pinned_eps());
    config.epoch_reports = u64::MAX >> 1;
    config.retained_windows = WINDOWS;
    let mut service = SketchService::new(config).unwrap();
    let attr_cfg = PlusAttributeConfig::from_plus_config(&plus_cfg, domain.clone());
    let a = service
        .register_plus_attribute("smoke.plus.a", plus_cfg.seed, attr_cfg.clone())
        .unwrap();
    let b = service
        .register_plus_attribute("smoke.plus.b", plus_cfg.seed, attr_cfg)
        .unwrap();

    let batches_per_window = n.div_ceil(CHUNK).div_ceil(WINDOWS);
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
    (service, a, b)
}

#[test]
fn batched_ingest_is_at_least_4x_scalar_absorb() {
    if cfg!(debug_assertions) {
        eprintln!("perf smoke gate skipped: meaningful only under --release");
        return;
    }

    // Pinned 400k-report workload on the same smoke shape as the query gate. The packed
    // batch is what the client hands over natively (`perturb_batch`); the baseline takes
    // one `ClientReport` per user, drawn here with per-value `perturb`, and absorbs each
    // with the per-report reference `SketchBuilder::absorb`. Reusing one builder per arm
    // across reps is fine: absorbing into non-zero counters costs the same as into zeros.
    let n = 400_000usize;
    let p = pinned_params();
    let e = pinned_eps();
    let client = LdpJoinSketchClient::new(p, e, 31);
    let gen = ZipfGenerator::new(2.0, 4_096);
    let mut rng = rand::rngs::StdRng::seed_from_u64(32);
    let values = gen.sample_many(n, &mut rng);
    let reports: Vec<ClientReport> = values
        .iter()
        .map(|&v| client.perturb(v, &mut rng))
        .collect();
    let batch = client.perturb_batch(&values, &mut rng).unwrap();

    let mut per_report = SketchBuilder::new(p, e, 31);
    let mut packed = SketchBuilder::new(p, e, 31);
    let ratio = paired_median_ratio(
        "ingest 400k reports (A = per-report absorb, B = packed absorb_batch)",
        || {
            for &r in &reports {
                per_report.absorb(r).unwrap();
            }
            std::hint::black_box(per_report.reports());
        },
        || {
            packed.absorb_batch(&batch).unwrap();
            std::hint::black_box(packed.reports());
        },
    );

    let speedup = 1.0 / ratio;
    eprintln!("ingest 400k reports: median per-round speedup {speedup:.2}x (gate: 4x)");
    assert!(
        speedup >= 4.0,
        "packed ingest regressed to {speedup:.2}x per-report absorb (gate is 4x) — \
         check the ReportBatch accumulate loop"
    );
}

#[test]
fn telemetry_overhead_on_packed_ingest_is_at_most_3_percent() {
    if cfg!(debug_assertions) {
        eprintln!("perf smoke gate skipped: meaningful only under --release");
        return;
    }

    // Same pinned 400k-report packed workload as the ingest gate, absorbed twice: once by a
    // bare `SketchBuilder`, once by `SketchService::ingest` into one plain attribute, where
    // telemetry is always on (per-batch counters and the live-report gauge). The epoch
    // trigger is out of reach, so no rotation runs. The service's bookkeeping is a few
    // relaxed atomic ops per batch against ~0.3 ms of ingest work, so it must stay within
    // 3% — the budget that lets telemetry ship always-on.
    let n = 400_000usize;
    let p = pinned_params();
    let e = pinned_eps();
    let mut config = ServiceConfig::new(p, e);
    config.epoch_reports = u64::MAX >> 1;
    let mut service = SketchService::new(config).unwrap();
    let attr = service.register_attribute("smoke.ingest", 31).unwrap();
    let client = service.client(attr).unwrap();
    let gen = ZipfGenerator::new(2.0, 4_096);
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let values = gen.sample_many(n, &mut rng);
    let batch = client.perturb_batch(&values, &mut rng).unwrap();

    let mut bare = SketchBuilder::new(p, e, 31);
    let ratio = paired_median_ratio(
        "packed ingest 400k reports (A = bare builder, B = service)",
        || {
            bare.absorb_batch(&batch).unwrap();
            std::hint::black_box(bare.reports());
        },
        || {
            std::hint::black_box(service.ingest(attr, &batch).unwrap());
        },
    );

    let overhead = ratio - 1.0;
    eprintln!(
        "packed ingest 400k reports: median per-round service overhead {:.2}% (gate: 3%)",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.03,
        "service ingest overhead regressed to {:.2}% over a bare builder (gate is 3%) — \
         instrumentation must stay off the per-report path",
        overhead * 100.0
    );
}

#[test]
fn cold_plus_join_is_at_most_4x_cold_plain_join() {
    if cfg!(debug_assertions) {
        eprintln!("perf smoke gate skipped: meaningful only under --release");
        return;
    }

    let (mut plain, pa, pb) = plain_service();
    let (mut plus, xa, xb) = plus_service();
    let ratio = paired_median_ratio(
        "cold all-windows join (A = plain, B = plus)",
        || {
            plain.clear_cache();
            std::hint::black_box(plain.join_size(pa, pb, WindowRange::All).unwrap());
        },
        || {
            plus.clear_cache();
            std::hint::black_box(plus.plus_join_size(xa, xb, WindowRange::All).unwrap());
        },
    );

    eprintln!("cold all-windows join: median per-round plus/plain ratio {ratio:.2}x (gate: 4x)");
    assert!(
        ratio <= 4.0,
        "cold plus query regressed to {ratio:.2}x the plain path (gate is 4x) — \
         check the span ledger and the restore kernels"
    );
}

/// Eq. 5 with every row product one serial `f64` add chain, the reference arm of the kernel
/// gate.
fn serial_join_size(a: &FinalizedSketch, b: &FinalizedSketch) -> f64 {
    let products: Vec<f64> = (0..a.params().rows())
        .map(|j| a.row(j).iter().zip(b.row(j)).map(|(x, y)| x * y).sum())
        .collect();
    median(&products).unwrap()
}

#[test]
fn plain_join_kernel_is_at_most_0_6x_a_serial_row_sum() {
    if cfg!(debug_assertions) {
        eprintln!("perf smoke gate skipped: meaningful only under --release");
        return;
    }

    // Two restored sketches of the pinned shape over 32k Zipf(2.0) values each, the size of
    // the query gate's all-windows span. One sample is 100 estimates, ≈1 ms per arm, so the
    // timer's own cost is far below the gate's resolution.
    let (p, e) = (pinned_params(), pinned_eps());
    let gen = ZipfGenerator::new(2.0, 4_096);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut sketch = || {
        let values = gen.sample_many(WINDOWS * N_WINDOW, &mut rng);
        build_private_sketch(&values, p, e, 7, &mut rng).unwrap()
    };
    let (a, b) = (sketch(), sketch());
    let (serial, kernel) = (
        serial_join_size(&a, &b),
        PlainKernel.join_size(&a, &b).unwrap(),
    );
    assert!(
        (kernel - serial).abs() <= 1e-12 * serial.abs(),
        "the kernel and the serial reference disagree: {kernel} vs {serial}"
    );
    const REPS: usize = 100;
    // Opaque operands, so no estimate can be hoisted out of a sample's loop.
    let (a, b) = (&a, &b);
    let opaque = std::hint::black_box::<&FinalizedSketch>;
    let ratio = paired_median_ratio(
        "Eq. 5 on two restored 18x1024 sketches (A = serial row sums, B = PlainKernel)",
        || {
            for _ in 0..REPS {
                std::hint::black_box(serial_join_size(opaque(a), opaque(b)));
            }
        },
        || {
            for _ in 0..REPS {
                std::hint::black_box(PlainKernel.join_size(opaque(a), opaque(b)).unwrap());
            }
        },
    );

    eprintln!("Eq. 5 kernel: median per-round kernel/serial ratio {ratio:.3}x (gate: 0.6x)");
    assert!(
        ratio <= 0.6,
        "the plain join kernel regressed to {ratio:.3}x a serial row sum (gate is 0.6x) — \
         check the fixed-association reduction behind FinalizedSketch::row_products"
    );
}

/// `Σ_i term(a[i], b[i])` by the library's estimator reduction: sixteen lanes held as eight
/// pairs, the pairwise 8/4/2/1 fold, then the tail. The reference arm of the row-total gate
/// sums rows with it. (Folded any other way, the compiler pairs the lanes across element
/// pairs and the sum runs ≈1.7× slower.)
fn lanes16(a: &[f64], b: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    let ((body_a, tail_a), (body_b, tail_b)) = (a.as_chunks::<16>(), b.as_chunks::<16>());
    let mut pairs = [[0.0f64; 2]; 8];
    for (xa, xb) in body_a.iter().zip(body_b) {
        let (pa, pb) = (xa.as_chunks::<2>().0, xb.as_chunks::<2>().0);
        for (s, (x, y)) in pairs.iter_mut().zip(pa.iter().zip(pb)) {
            s[0] += term(x[0], y[0]);
            s[1] += term(x[1], y[1]);
        }
    }
    for width in [4, 2, 1] {
        for p in 0..width {
            pairs[p][0] += pairs[p + width][0];
            pairs[p][1] += pairs[p + width][1];
        }
    }
    let tail = (tail_a.iter().zip(tail_b)).fold(0.0, |s, (&x, &y)| s + term(x, y));
    (pairs[0][0] + pairs[0][1]) + tail
}

/// The centered and masked row products with every row total summed over the row, as
/// `FinalizedSketch` computed them before it kept the coordinate-0 counts: the reference
/// arm of the row-total gate.
fn row_summed_partials(
    a: &FinalizedSketch,
    b: &FinalizedSketch,
    targets: &[u64],
) -> (Vec<f64>, Vec<(f64, bool)>) {
    let (k, m) = (a.params().rows(), a.params().columns());
    let (mf, sum) = (m as f64, |r: &[f64]| lanes16(r, r, |v, _| v));
    let centered = (0..k)
        .map(|j| {
            let (ra, rb) = (a.row(j), b.row(j));
            let (mean_a, mean_b) = (sum(ra) / mf, sum(rb) / mf);
            lanes16(ra, rb, |x, y| (x - mean_a) * (y - mean_b)) / (1.0 - 1.0 / mf)
        })
        .collect();
    let mut in_s = vec![false; m];
    let mut buckets: Vec<usize> = Vec::with_capacity(targets.len());
    let masked = (0..k)
        .map(|j| {
            let pair = a.hashes().pair(j);
            buckets.clear();
            let mut collision_free = true;
            for &d in targets {
                let x = pair.bucket_of(d);
                if in_s[x] {
                    collision_free = false;
                } else {
                    in_s[x] = true;
                    buckets.push(x);
                }
            }
            if buckets.is_empty() {
                return (0.0, true);
            }
            buckets.sort_unstable();
            let (ra, rb) = (a.row(j), b.row(j));
            let (mut s_a, mut s_b) = (0.0f64, 0.0f64);
            for &x in &buckets {
                s_a += ra[x];
                s_b += rb[x];
            }
            let free = (m - buckets.len()) as f64;
            let (u_a, u_b) = ((sum(ra) - s_a) / free, (sum(rb) - s_b) / free);
            let mut product = 0.0f64;
            for &x in &buckets {
                product += (ra[x] - u_a) * (rb[x] - u_b);
                in_s[x] = false;
            }
            (product, collision_free)
        })
        .collect();
    (centered, masked)
}

#[test]
fn row_total_partials_are_at_most_0_6x_row_summing_ones() {
    if cfg!(debug_assertions) {
        eprintln!("perf smoke gate skipped: meaningful only under --release");
        return;
    }

    // The kernel gate's two sketches, and the 16 heaviest Zipf values as the target set of
    // the masked partial. One sample is 100 pairs of partials, ≈1 ms per arm.
    let (p, e) = (pinned_params(), pinned_eps());
    let gen = ZipfGenerator::new(2.0, 4_096);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut sketch = || {
        let values = gen.sample_many(WINDOWS * N_WINDOW, &mut rng);
        build_private_sketch(&values, p, e, 7, &mut rng).unwrap()
    };
    let (a, b) = (sketch(), sketch());
    let targets: Vec<u64> = (0..16).collect();
    let partials = |a: &FinalizedSketch, b: &FinalizedSketch| {
        let centered = a.row_products_centered(b).unwrap();
        (centered, a.row_products_masked(b, &targets).unwrap())
    };
    let ((centered, masked), (want_centered, want_masked)) =
        (partials(&a, &b), row_summed_partials(&a, &b, &targets));
    let masked_products = |m: &[(f64, bool)]| m.iter().map(|&(v, _)| v).collect::<Vec<_>>();
    for (got, want) in [
        (centered, want_centered),
        (masked_products(&masked), masked_products(&want_masked)),
    ] {
        for (x, y) in got.iter().zip(&want) {
            assert!(
                (x - y).abs() <= 1e-12 * y.abs(),
                "the partials and the row-summing reference disagree: {x} vs {y}"
            );
        }
    }
    const REPS: usize = 100;
    let (a, b) = (&a, &b);
    let opaque = std::hint::black_box::<&FinalizedSketch>;
    let ratio = paired_median_ratio(
        "JoinEst partials on two restored 18x1024 sketches (A = row-summing, B = library)",
        || {
            for _ in 0..REPS {
                std::hint::black_box(row_summed_partials(opaque(a), opaque(b), &targets));
            }
        },
        || {
            for _ in 0..REPS {
                std::hint::black_box(partials(opaque(a), opaque(b)));
            }
        },
    );

    eprintln!(
        "JoinEst partials: median per-round library/row-summing ratio {ratio:.3}x (gate: 0.6x)"
    );
    assert!(
        ratio <= 0.6,
        "the centered and masked partials regressed to {ratio:.3}x row-summing ones (gate is \
         0.6x) — check that FinalizedSketch takes its row totals from the coordinate-0 counts"
    );
}
