//! Figure-level benches: one Criterion benchmark per evaluation figure, each running the same
//! pipeline as the corresponding `ldpjs-experiments` binary at a reduced scale.
//!
//! These benches measure the end-to-end cost of regenerating each figure's data point(s) and
//! double as smoke tests that every experiment pipeline stays runnable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldpjs_common::stats::median;
use ldpjs_core::multiway::{build_edge_sketch, build_vertex_sketch, ldp_chain_join_3};
use ldpjs_core::{Candidates, Epsilon, SketchParams};
use ldpjs_data::PaperDataset;
use ldpjs_experiments::{estimate_join, Method, PlusKnobs};
use ldpjs_sketch::compass::JoinAttribute;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const BENCH_SCALE: f64 = 0.0001;

fn params() -> SketchParams {
    SketchParams::new(18, 1024).unwrap()
}

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// Fig. 5: one accuracy evaluation (all methods would be too slow per iteration, so the bench
/// parameterises over the method and runs the full protocol once per iteration).
fn bench_fig5_accuracy(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 1.1 }.generate_join(BENCH_SCALE, 7);
    let mut group = c.benchmark_group("fig5_accuracy");
    group.sample_size(10);
    for method in [
        Method::Fagms,
        Method::AppleHcms,
        Method::LdpJoinSketch,
        Method::LdpJoinSketchPlus,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |b, &m| {
                b.iter(|| {
                    black_box(
                        estimate_join(m, &workload, params(), eps(4.0), PlusKnobs::default(), 3)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Fig. 6: space sweep (varying m at fixed k) for LDPJoinSketch.
fn bench_fig6_space(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 2.0 }.generate_join(BENCH_SCALE, 7);
    let mut group = c.benchmark_group("fig6_space");
    group.sample_size(10);
    for m in [512usize, 2048] {
        let p = SketchParams::new(18, m).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(m), &p, |b, &p| {
            b.iter(|| {
                black_box(
                    estimate_join(
                        Method::LdpJoinSketch,
                        &workload,
                        p,
                        eps(10.0),
                        PlusKnobs::default(),
                        5,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// Fig. 7: communication accounting (cheap; measures the bookkeeping path).
fn bench_fig7_communication(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 1.1 }.generate_join(BENCH_SCALE, 7);
    c.bench_function("fig7_communication/ldpjoinsketch", |b| {
        b.iter(|| {
            let out = estimate_join(
                Method::LdpJoinSketch,
                &workload,
                params(),
                eps(4.0),
                PlusKnobs::default(),
                11,
            )
            .unwrap();
            black_box(out.communication_bits)
        })
    });
}

/// Fig. 8: the ε sweep for LDPJoinSketch (one protocol run per ε per iteration).
fn bench_fig8_epsilon(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 1.5 }.generate_join(BENCH_SCALE, 7);
    let mut group = c.benchmark_group("fig8_epsilon");
    group.sample_size(10);
    for e in [0.5f64, 4.0, 10.0] {
        group.bench_with_input(BenchmarkId::from_parameter(e), &e, |b, &e| {
            b.iter(|| {
                black_box(
                    estimate_join(
                        Method::LdpJoinSketch,
                        &workload,
                        params(),
                        eps(e),
                        PlusKnobs::default(),
                        3,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// Fig. 9: sketch-parameter sweeps (m and k).
fn bench_fig9_params(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 1.1 }.generate_join(BENCH_SCALE, 7);
    let mut group = c.benchmark_group("fig9_params");
    group.sample_size(10);
    for (k, m) in [(18usize, 512usize), (18, 4096), (9, 1024), (36, 1024)] {
        let p = SketchParams::new(k, m).unwrap();
        group.bench_with_input(BenchmarkId::new("k_m", format!("{k}x{m}")), &p, |b, &p| {
            b.iter(|| {
                black_box(
                    estimate_join(
                        Method::LdpJoinSketch,
                        &workload,
                        p,
                        eps(10.0),
                        PlusKnobs::default(),
                        3,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// Fig. 10 / Fig. 11: the LDPJoinSketch+ knob sweeps (sampling rate r and threshold θ).
fn bench_fig10_fig11_plus_knobs(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 1.1 }.generate_join(BENCH_SCALE, 7);
    let mut group = c.benchmark_group("fig10_fig11_plus_knobs");
    group.sample_size(10);
    for (label, knobs) in [
        (
            "r=0.1_theta=1e-3",
            PlusKnobs {
                sampling_rate: 0.1,
                threshold: 1e-3,
                paper_literal_subtraction: false,
                variance_weighted_recombination: false,
            },
        ),
        (
            "r=0.3_theta=1e-3",
            PlusKnobs {
                sampling_rate: 0.3,
                threshold: 1e-3,
                paper_literal_subtraction: false,
                variance_weighted_recombination: false,
            },
        ),
        (
            "r=0.1_theta=1e-1",
            PlusKnobs {
                sampling_rate: 0.1,
                threshold: 1e-1,
                paper_literal_subtraction: false,
                variance_weighted_recombination: false,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &knobs, |b, &knobs| {
            b.iter(|| {
                black_box(
                    estimate_join(
                        Method::LdpJoinSketchPlus,
                        &workload,
                        params(),
                        eps(4.0),
                        knobs,
                        3,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// Fig. 12: skewness sweep.
fn bench_fig12_skewness(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_skewness");
    group.sample_size(10);
    for alpha in [1.1f64, 1.9] {
        let workload = PaperDataset::Zipf { alpha }.generate_join(BENCH_SCALE, 7);
        group.bench_with_input(BenchmarkId::from_parameter(alpha), &workload, |b, w| {
            b.iter(|| {
                black_box(
                    estimate_join(
                        Method::LdpJoinSketch,
                        w,
                        params(),
                        eps(4.0),
                        PlusKnobs::default(),
                        3,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// Fig. 13: offline (construction) vs online (query) phases, benchmarked separately.
fn bench_fig13_efficiency(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 1.1 }.generate_join(BENCH_SCALE, 7);
    let mut rng = StdRng::seed_from_u64(1);
    let sa = ldpjs_core::protocol::build_private_sketch(
        &workload.table_a,
        params(),
        eps(4.0),
        3,
        &mut rng,
    )
    .unwrap();
    let sb = ldpjs_core::protocol::build_private_sketch(
        &workload.table_b,
        params(),
        eps(4.0),
        3,
        &mut rng,
    )
    .unwrap();
    c.bench_function("fig13_efficiency/offline_construction", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            black_box(
                ldpjs_core::protocol::build_private_sketch(
                    &workload.table_a,
                    params(),
                    eps(4.0),
                    3,
                    &mut rng,
                )
                .unwrap(),
            )
        })
    });
    c.bench_function("fig13_efficiency/online_query", |b| {
        b.iter(|| black_box(sa.join_size(&sb).unwrap()))
    });
}

/// Fig. 14: frequency estimation over the observed distinct values.
fn bench_fig14_frequency(c: &mut Criterion) {
    let workload = PaperDataset::Zipf { alpha: 1.5 }.generate_join(BENCH_SCALE, 7);
    let mut rng = StdRng::seed_from_u64(3);
    let sketch = ldpjs_core::protocol::build_private_sketch(
        &workload.table_a,
        params(),
        eps(4.0),
        3,
        &mut rng,
    )
    .unwrap();
    let distinct: Vec<u64> = ldpjs_common::stats::frequency_table(&workload.table_a)
        .keys()
        .copied()
        .collect();
    c.bench_function("fig14_frequency/scan_distinct_values", |b| {
        b.iter(|| {
            black_box(
                sketch
                    .frequencies(Candidates::Slice(black_box(&distinct)))
                    .unwrap(),
            )
        })
    });
}

/// Fig. 15: one 3-way LDP chain-join estimation round.
fn bench_fig15_multiway(c: &mut Criterion) {
    let chain = PaperDataset::Zipf { alpha: 1.5 }.generate_chain(BENCH_SCALE, 7);
    let attr_a = JoinAttribute::from_seed(1, 9, 256);
    let attr_b = JoinAttribute::from_seed(2, 9, 256);
    let t3_b = chain.t3_b_column();
    c.bench_function("fig15_multiway/3way_chain_estimate", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(4);
            let s1 = build_vertex_sketch(&chain.t1, &attr_a, eps(4.0), &mut rng).unwrap();
            let s2 = build_edge_sketch(&chain.t2, &attr_a, &attr_b, eps(4.0), &mut rng).unwrap();
            let s3 = build_vertex_sketch(&t3_b, &attr_b, eps(4.0), &mut rng).unwrap();
            let est = ldp_chain_join_3(&s1, &attr_a, &s2, &s3, &attr_b).unwrap();
            black_box(median(&[est]).unwrap())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets =
        bench_fig5_accuracy,
        bench_fig6_space,
        bench_fig7_communication,
        bench_fig8_epsilon,
        bench_fig9_params,
        bench_fig10_fig11_plus_knobs,
        bench_fig12_skewness,
        bench_fig13_efficiency,
        bench_fig14_frequency,
        bench_fig15_multiway
);
criterion_main!(benches);
