//! The offline workload: the paper's one-shot protocol (the path `fig13_efficiency` times)
//! over materialised tables, with no service.
//!
//! Untraced repetitions call the runners `ldp_join_estimate_chunked` and
//! `ldp_join_plus_estimate_chunked` as a user would; the harness only sees the chunks they
//! pull from its [`ChunkedValues`] source, which is where per-batch latency is timed. The
//! traced repetitions compose the runners' public pieces themselves so each piece can be
//! timed, and their estimates must be bit-identical to the runners'.

use crate::online::fwht_calls;
use crate::probe::{Probe, Samples};
use crate::report::Report;
use crate::trace::{durations, layer_self_ns, now, ns, Tracer};
use crate::{derive_seed, set_up, RunConfig, SHARDS};
use ldpjs_common::stats::{exact_join_size, median};
use ldpjs_common::stream::{ChunkedValues, SliceChunks};
use ldpjs_common::{kernel_dispatch_snapshot, Epsilon, Value};
use ldpjs_core::{
    ldp_join_estimate_chunked, ldp_join_plus_estimate_chunked, stream_reports_chunked,
    AggregatorInstruments, FinalizedPlusState, LdpJoinSketchClient, LdpJoinSketchPlus, PlainKernel,
    PlusConfig, PlusKernel, PlusStateBuilder, PlusTableRole, ShardedAggregator, SketchParams,
};
use ldpjs_data::{ValueGenerator, ZipfGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

/// Users per table at scale 1 (128 chunks).
pub const USERS: usize = 1 << 20;
/// Values per chunk at scale 1.
pub const CHUNK: usize = 8192;
const ALPHA: f64 = 1.5;
const DOMAIN: usize = 100_000;
const SAMPLING: f64 = 0.05;
/// Fewest repetitions (pairs, when traced): one estimation-tail sample each gives its
/// median ten samples beyond it.
const MIN_REPS: usize = 20;

struct Setup {
    values: [Vec<Value>; 2],
    domain: Vec<u64>,
    chunk: usize,
    params: SketchParams,
    eps: Epsilon,
    hash_seed: u64,
    plus: PlusConfig,
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let users = cfg.scaled(USERS, 1024);
    let domain = cfg.scaled(DOMAIN, 64) as u64;
    let zipf = ZipfGenerator::new(ALPHA, domain);
    let values: [Vec<u64>; 2] = [2, 3].map(|tag| {
        zipf.sample_many(
            users,
            &mut StdRng::seed_from_u64(derive_seed(cfg.seed, tag)),
        )
    });
    let params =
        SketchParams::new(crate::online::K, crate::online::M).map_err(|e| e.to_string())?;
    let eps = Epsilon::new(crate::online::EPS).map_err(|e| e.to_string())?;
    let hash_seed = derive_seed(cfg.seed, 1);
    let mut plus = PlusConfig::new(params, eps);
    plus.sampling_rate = SAMPLING;
    plus.adaptive = true;
    plus.seed = hash_seed;
    Ok(Setup {
        values,
        domain: (0..domain).collect(),
        chunk: cfg.scaled(CHUNK, 16),
        params,
        eps,
        hash_seed,
        plus,
    })
}

/// A table streamed to a runner in chunks, noting when the runner's pass over it ended and,
/// when given a sample vector, timing each chunk's trip through the runner (client
/// perturbation plus absorption).
struct TimedChunks<'a> {
    inner: SliceChunks<'a>,
    chunk_ns: Option<&'a RefCell<Vec<f64>>>,
    last_end: Cell<Option<Instant>>,
}

impl<'a> TimedChunks<'a> {
    fn new(values: &'a [Value], chunk: usize, chunk_ns: Option<&'a RefCell<Vec<f64>>>) -> Self {
        TimedChunks {
            inner: SliceChunks::new(values, chunk),
            chunk_ns,
            last_end: Cell::new(None),
        }
    }
}

impl ChunkedValues for TimedChunks<'_> {
    fn total_values(&self) -> usize {
        self.inner.total_values()
    }

    fn chunk_len(&self) -> usize {
        self.inner.chunk_len()
    }

    fn for_each_chunk(&self, sink: &mut dyn FnMut(u64, &[Value])) {
        match self.chunk_ns {
            Some(samples) => self.inner.for_each_chunk(&mut |start, chunk| {
                let t0 = now();
                sink(start, chunk);
                samples
                    .borrow_mut()
                    .push(ns(now().duration_since(t0)) as f64);
            }),
            None => self.inner.for_each_chunk(sink),
        }
        self.last_end.set(Some(now()));
    }
}

/// Time from the later of two streams' last pass to `done`: what a runner spends turning
/// absorbed reports into its estimate (finalize, discovery, kernel).
fn tail_ns(a: &TimedChunks<'_>, b: &TimedChunks<'_>, done: Instant) -> u64 {
    a.last_end
        .get()
        .max(b.last_end.get())
        .map_or(0, |end| ns(done.duration_since(end)))
}

/// One repetition through the one-shot runners: the `(plain, plus)` estimates and the two
/// runners' estimation tails summed. Per-batch latency is sampled on the plain runner,
/// whose chunks are all alike (each is one 8192-report batch perturbed and absorbed); the
/// plus runner's two passes do different work per chunk.
fn runner_rep(
    x: &Setup,
    rng_seed: u64,
    report: &mut Report,
    chunk_ns: &RefCell<Vec<f64>>,
) -> (Option<f64>, Option<f64>, u64) {
    let ta = TimedChunks::new(&x.values[0], x.chunk, Some(chunk_ns));
    let tb = TimedChunks::new(&x.values[1], x.chunk, Some(chunk_ns));
    let plain = ldp_join_estimate_chunked(&ta, &tb, x.params, x.eps, x.hash_seed, rng_seed, SHARDS);
    let mut tail = tail_ns(&ta, &tb, now());
    let plain = report.call("ldp_join_estimate_chunked", plain);

    let pa = TimedChunks::new(&x.values[0], x.chunk, None);
    let pb = TimedChunks::new(&x.values[1], x.chunk, None);
    let plus = ldp_join_plus_estimate_chunked(&pa, &pb, &x.domain, x.plus, rng_seed);
    tail += tail_ns(&pa, &pb, now());
    let plus = report
        .call("ldp_join_plus_estimate_chunked", plus)
        .map(|e| e.join_size);
    (plain, plus, tail)
}

/// Counters the composed repetitions accumulate for the per-layer metrics.
#[derive(Default)]
struct Pieces {
    seal_fwht: u64,
    seal_calls: u64,
    aggregator: AggregatorInstruments,
}

impl Pieces {
    /// Time a seal (finalize) call, counting the FWHT kernels it dispatched when traced.
    fn seal<T>(&mut self, tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = kernel_dispatch_snapshot();
        let out = tracer.span(name, "seal", |_| f());
        if tracer.enabled() {
            self.seal_fwht += fwht_calls(&kernel_dispatch_snapshot().delta_since(&before));
            self.seal_calls += 1;
        }
        out
    }
}

/// One repetition composed from the runners' public pieces, each timed as a span:
/// `(plain, plus)` estimates, which must equal [`runner_rep`]'s bit for bit.
fn composed_rep(
    x: &Setup,
    rng_seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
    pieces: &mut Pieces,
) -> (Option<f64>, Option<f64>) {
    // Plain: what `ldp_join_estimate_chunked` does, one table at a time.
    let client = LdpJoinSketchClient::new(x.params, x.eps, x.hash_seed);
    let mut sketches = Vec::with_capacity(2);
    for (values, seed) in [(&x.values[0], rng_seed), (&x.values[1], rng_seed ^ 0xB)] {
        let engine =
            ShardedAggregator::with_hashes(x.params, x.eps, Arc::clone(client.hashes()), SHARDS);
        let Some(mut engine) = report.call("ShardedAggregator::with_hashes", engine) else {
            return (None, None);
        };
        engine.set_instruments(Some(pieces.aggregator.clone()));
        let src = SliceChunks::new(values, x.chunk);
        let streamed = tracer.span("stream_reports_chunked", "client", |t| {
            stream_reports_chunked(&src, &client, seed, SHARDS, &mut |reports| {
                t.span("ShardedAggregator::ingest", "ingest", |_| {
                    engine.ingest(reports)
                })
            })
        });
        report.call("stream_reports_chunked", streamed);
        sketches.push(pieces.seal(tracer, "ShardedAggregator::finalize", || engine.finalize()));
    }
    let plain = tracer.span("PlainKernel::join_size", "kernel", |_| {
        PlainKernel.join_size(&sketches[0], &sketches[1])
    });
    let plain = report.call("PlainKernel::join_size", plain);

    // Plus: the phase-1 discovery pass, then each table's labeled batches into a fresh
    // state builder, whose lanes are restored and paired with the discovered frequent items
    // as the runner does (the kernel reads only the union of the two states' sets, so the
    // broadcast union stands in for each table's own set without a second domain scan).
    let Some(est) = report.call("LdpJoinSketchPlus::new", LdpJoinSketchPlus::new(x.plus)) else {
        return (plain, None);
    };
    let tables = [
        SliceChunks::new(&x.values[0], x.chunk),
        SliceChunks::new(&x.values[1], x.chunk),
    ];
    let discovery = tracer.span("discover_frequent_items_chunked", "discover", |_| {
        est.discover_frequent_items_chunked(&tables[0], &tables[1], &x.domain, rng_seed)
    });
    let Some(discovery) = report.call("discover_frequent_items_chunked", discovery) else {
        return (plain, None);
    };
    let thetas = [discovery.thresholds.0, discovery.thresholds.1];
    let mut states = Vec::with_capacity(2);
    for ((table, role), theta) in tables
        .iter()
        .zip([PlusTableRole::A, PlusTableRole::B])
        .zip(thetas)
    {
        let mut builder = PlusStateBuilder::new(x.params, x.eps, x.plus.seed);
        let streamed = tracer.span("stream_plus_reports", "client", |t| {
            est.stream_plus_reports(
                table,
                role,
                &discovery.frequent_items,
                rng_seed,
                true,
                &mut |batch| {
                    t.span("PlusStateBuilder::absorb_batch", "ingest", |_| {
                        builder.absorb_batch(batch)
                    })
                },
            )
        });
        report.call("stream_plus_reports", streamed);
        let (phase1, low, high) = builder.lane_builders();
        states.push(pieces.seal(tracer, "finalize_view lanes", || {
            FinalizedPlusState::with_discovery(
                phase1.finalize_view(),
                low.finalize_view(),
                high.finalize_view(),
                discovery.frequent_items.clone(),
                theta,
            )
        }));
    }
    let plus = tracer.span("PlusKernel::join_est", "kernel", |_| {
        PlusKernel::from_config(&x.plus).join_est(&states[0], &states[1])
    });
    let plus = report
        .call("PlusKernel::join_est", plus)
        .map(|e| e.join_size);
    (plain, plus)
}

fn same_bits(a: Option<f64>, b: Option<f64>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x.to_bits() == y.to_bits())
}

/// Run the offline workload: set up (see [`set_up`]), repeat the protocol pair for the timed
/// loop, then check accuracy and runner/pieces bit-identity.
///
/// # Errors
/// A message if set-up fails.
pub fn run(cfg: &RunConfig, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let mut probe = Probe::default();
    let x = set_up(report, &mut probe, || setup(cfg))?;
    // Ground truth for the output checks, outside the timed set-up.
    let exact = exact_join_size(&x.values[0], &x.values[1]) as f64;
    let users = x.values[0].len();
    report.param("mode", "\"one-shot runners\"");
    report.param("k", x.params.rows());
    report.param("m", x.params.columns());
    report.param("eps", x.eps.value());
    report.param("users_per_table", users);
    report.param("chunk", x.chunk);
    report.param("zipf_alpha", ALPHA);
    report.param("domain", x.domain.len());
    report.param("sampling_rate", SAMPLING);
    report.param("adaptive", true);
    report.param("shards", SHARDS);

    let mut rep_time = Samples::default();
    let mut chunks = Samples::default();
    let mut tails = Samples::default();
    let (mut plain_re, mut plus_re) = (Vec::new(), Vec::new());
    let mut mismatches = 0usize;
    let mut compared = 0usize;
    let mut wall_ns = [0u64; 2];
    let mut pieces = Pieces::default();
    let mut first = (None, None);
    let start = now();
    let mut reps = 0usize;
    loop {
        let probe_ns = probe.tick();
        let rng_seed = cfg.seed.wrapping_add(reps as u64);
        tracer.set_unit(2 * reps as u32);
        let rep_chunks = RefCell::new(Vec::new());
        let t0 = now();
        let (plain, plus, tail) = runner_rep(&x, rng_seed, report, &rep_chunks);
        let dt = ns(now().duration_since(t0));
        for chunk_ns in rep_chunks.into_inner() {
            chunks.push(chunk_ns, probe_ns);
        }
        tails.push(tail as f64, probe_ns);
        wall_ns[0] += dt;
        rep_time.push(dt as f64, probe_ns);
        plain_re.extend(plain.map(|v| (v - exact).abs() / exact));
        plus_re.extend(plus.map(|v| (v - exact).abs() / exact));
        if reps == 0 {
            first = (plain, plus);
        }
        if cfg.trace {
            tracer.set_enabled(true);
            tracer.set_unit(2 * reps as u32 + 1);
            let t0 = now();
            let (cp, cq) = composed_rep(&x, rng_seed, report, tracer, &mut pieces);
            wall_ns[1] += ns(now().duration_since(t0));
            tracer.set_enabled(false);
            compared += 1;
            mismatches += usize::from(!same_bits(plain, cp) || !same_bits(plus, cq));
        }
        reps += 1;
        if reps >= MIN_REPS && now().duration_since(start).as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let loop_ns = ns(now().duration_since(start));
    report.param("repetitions", reps);
    report.set("loop_s", loop_ns as f64 / 1e9, "s", 1);
    if !cfg.trace {
        // One untimed composed repetition keeps the bit-identity check in every run.
        let (cp, cq) = composed_rep(&x, cfg.seed, report, tracer, &mut pieces);
        compared += 1;
        mismatches += usize::from(!same_bits(first.0, cp) || !same_bits(first.1, cq));
    }

    // Every user's report is perturbed and absorbed once per estimator: 2 tables × 2.
    report.set_throughput(&vec![(4 * users) as f64; reps], &rep_time);
    report.set_percentile("batch_p50", &chunks, 0.5);
    report.set_percentile("batch_p99", &chunks, 0.99);
    report.set_percentile("estimate_p50", &tails, 0.5);
    crate::set_probe_time(report, &probe);
    if let Some(p) = median(&rep_time.ns) {
        report.set("protocol_s", p / 1e9, "s", rep_time.len());
    }

    let ceiling = cfg.re_ceiling();
    for (name, res) in [("join_re", &plain_re), ("plus_join_re", &plus_re)] {
        let worst = res.iter().copied().fold(0.0, f64::max);
        if !res.is_empty() {
            report.set(
                name,
                res.iter().sum::<f64>() / res.len() as f64,
                "ratio",
                res.len(),
            );
        }
        report.check(
            &format!("{name} under the sanity ceiling on every repetition"),
            res.len() == reps && worst < ceiling,
            format!(
                "worst {worst} over {} repetitions (ceiling {ceiling})",
                res.len()
            ),
        );
    }
    report.check(
        "composed pieces bit-identical to the one-shot runners",
        mismatches == 0,
        format!("{mismatches} of {compared} repetitions differ"),
    );

    if cfg.trace {
        layer_metrics(report, tracer, &pieces, wall_ns, reps, users);
    }
    Ok(())
}

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    pieces: &Pieces,
    wall_ns: [u64; 2],
    reps: usize,
    users: usize,
) {
    let spans = tracer.spans();
    let layers = layer_self_ns(spans);
    crate::layer_shares(report, &layers, wall_ns[1] as f64, reps);
    report.set(
        "trace.overhead",
        wall_ns[1] as f64 / wall_ns[0].max(1) as f64 - 1.0,
        "ratio",
        reps,
    );
    let reports = (4 * users * reps).max(1) as f64;
    let per_report = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / reports;
    report.set("client.ns_per_report", per_report("client"), "ns", reps);
    report.set("ingest.ns_per_report", per_report("ingest"), "ns", reps);
    let mut ingest = durations(spans, "ShardedAggregator::ingest");
    ingest.extend(durations(spans, "PlusStateBuilder::absorb_batch"));
    report.set_percentile_us("ingest.p99_us", &ingest, 0.99);
    let parallel = pieces.aggregator.parallel_batches.get();
    let inline = pieces.aggregator.inline_batches.get();
    report.set(
        "ingest.parallel_share",
        parallel as f64 / (parallel + inline).max(1) as f64,
        "ratio",
        (parallel + inline) as usize,
    );
    let mut seals = durations(spans, "ShardedAggregator::finalize");
    seals.extend(durations(spans, "finalize_view lanes"));
    report.set_percentile_us("seal.p50_us", &seals, 0.5);
    report.set(
        "seal.fwht_per_call",
        pieces.seal_fwht as f64 / pieces.seal_calls.max(1) as f64,
        "count",
        pieces.seal_calls as usize,
    );
    let mut kernel = durations(spans, "PlainKernel::join_size");
    kernel.extend(durations(spans, "PlusKernel::join_est"));
    let kernel_mean = kernel.iter().sum::<f64>() / kernel.len().max(1) as f64;
    report.set("kernel.mean_us", kernel_mean / 1e3, "us", kernel.len());
    // No service, so no cache.
    report.set("cache.hit_ratio", 0.0, "ratio", 0);
    report.set("cache.invalidations_per_epoch", 0.0, "count", 0);
}
