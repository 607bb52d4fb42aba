//! The three online workloads over one `SketchService`.
//!
//! Shared shape: k = 18, m = 1024, ε = 4, two join attributes with one public hash seed,
//! 8192-report batches. Each attribute replays a pool of batches perturbed once during
//! set-up. The harness seals every epoch itself (`epoch_reports` is out of reach and
//! `rotate` is called right after the batch that fills the epoch), so rotation is timed as
//! its own call. Pool, epoch and ring sizes are chosen so the final `All` span holds whole
//! copies of the pool, which makes its exact join size `c² ×` the pool's.

use crate::probe::{Probe, Samples};
use crate::report::Report;
use crate::trace::{durations, layer_self_ns, now, ns, Tracer};
use crate::{derive_seed, set_up, RunConfig, Workload};
use ldpjs_common::stats::exact_join_size;
use ldpjs_common::stream::SliceChunks;
use ldpjs_common::{kernel_dispatch_snapshot, Epsilon, KernelDispatchSnapshot, ReportBatch};
use ldpjs_core::{
    LdpJoinSketchPlus, PlainKernel, PlusConfig, PlusKernel, PlusReportBatch, PlusStateBuilder,
    PlusTableRole, SketchBuilder, SketchParams,
};
use ldpjs_data::{ValueGenerator, ZipfGenerator};
use ldpjs_metrics::telemetry::Value;
use ldpjs_service::{
    AttributeId, PlusAttributeConfig, QueryClock, QueryResult, ServiceConfig, SketchService,
    WindowRange,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sketch rows.
pub const K: usize = 18;
/// Sketch columns.
pub const M: usize = 1024;
/// Privacy budget.
pub const EPS: f64 = 4.0;
/// Reports per ingest batch at scale 1.
pub const BATCH: usize = 8192;

/// One analyst query.
#[derive(Debug, Clone, Copy)]
enum Query {
    Join(WindowRange),
    Frequency(u64, WindowRange),
}

/// The shape of one online workload.
#[derive(Debug, Clone)]
struct Spec {
    plus: bool,
    alpha: f64,
    domain: usize,
    pool_batches: usize,
    epoch_batches: usize,
    ring: usize,
    /// Issued once per epoch right after the seal; cold unless two ranges resolve to the
    /// same span (early epochs, before the ring fills).
    queries: Vec<Query>,
    /// Rounds re-issuing `queries`, all served from the cache.
    refresh_rounds: usize,
    /// Fewest epochs per run: enough to fill the ring and to give every reported percentile
    /// ten samples beyond it.
    min_epochs: usize,
}

fn spec(workload: Workload) -> Spec {
    use WindowRange::{All, LastK, Latest};
    match workload {
        Workload::PlainIngest => Spec {
            plus: false,
            alpha: 1.1,
            domain: 1 << 20,
            pool_batches: 256,
            epoch_batches: 256,
            ring: 16,
            queries: vec![Query::Join(All)],
            refresh_rounds: 4,
            min_epochs: 20,
        },
        Workload::PlainDashboard => Spec {
            plus: false,
            alpha: 1.5,
            domain: 1 << 16,
            pool_batches: 256,
            epoch_batches: 4,
            ring: 64,
            queries: [Latest, LastK(8), LastK(32), All]
                .into_iter()
                .map(Query::Join)
                .chain((0..16).map(|v| Query::Frequency(v, LastK(8))))
                .collect(),
            refresh_rounds: 4,
            min_epochs: 128,
        },
        Workload::PlusRotation => Spec {
            plus: true,
            alpha: 2.0,
            domain: 20_000,
            pool_batches: 128,
            epoch_batches: 8,
            ring: 16,
            queries: [Latest, LastK(4), All]
                .into_iter()
                .map(Query::Join)
                .collect(),
            refresh_rounds: 4,
            min_epochs: 64,
        },
        Workload::OfflineProtocol => unreachable!("the offline workload has no service"),
    }
}

/// The pre-perturbed batches each attribute replays.
enum Pool {
    Plain([Vec<ReportBatch>; 2]),
    Plus([Vec<PlusReportBatch>; 2], Box<PlusConfig>, Vec<u64>),
}

/// Everything set-up builds.
struct Setup {
    service: SketchService,
    attrs: [AttributeId; 2],
    pool: Pool,
    hash_seed: u64,
    /// The pool's values per attribute, kept until the exact join size is computed.
    values: [Vec<u64>; 2],
    /// Client simulation time and reports produced, for `client.ns_per_report`.
    client_ns: u64,
    client_reports: u64,
}

fn params() -> Result<(SketchParams, Epsilon), String> {
    Ok((
        SketchParams::new(K, M).map_err(|e| e.to_string())?,
        Epsilon::new(EPS).map_err(|e| e.to_string())?,
    ))
}

fn setup(spec: &Spec, cfg: &RunConfig) -> Result<Setup, String> {
    let err = |e: ldpjs_common::Error| e.to_string();
    let (params, eps) = params()?;
    let batch = cfg.scaled(BATCH, 16);
    let domain = cfg.scaled(spec.domain, 64) as u64;
    let hash_seed = derive_seed(cfg.seed, 1);
    let zipf = ZipfGenerator::new(spec.alpha, domain);
    let users = spec.pool_batches * batch;
    let values: [Vec<u64>; 2] = [2, 3].map(|tag| {
        zipf.sample_many(
            users,
            &mut StdRng::seed_from_u64(derive_seed(cfg.seed, tag)),
        )
    });

    let mut config = ServiceConfig::new(params, eps);
    config.epoch_reports = u64::MAX >> 1;
    config.retained_windows = spec.ring;
    let mut service = SketchService::new(config).map_err(err)?;
    let (mut client_ns, mut client_reports) = (0u64, 0u64);
    let (attrs, pool) = if spec.plus {
        let mut plus = PlusConfig::new(params, eps);
        plus.sampling_rate = 0.05;
        plus.adaptive = true;
        plus.seed = hash_seed;
        let domain_values: Vec<u64> = (0..domain).collect();
        let attr_cfg = PlusAttributeConfig::from_plus_config(&plus, domain_values.clone());
        let attrs = [
            service
                .register_plus_attribute("pipeline.a", plus.seed, attr_cfg.clone())
                .map_err(err)?,
            service
                .register_plus_attribute("pipeline.b", plus.seed, attr_cfg)
                .map_err(err)?,
        ];
        let est = LdpJoinSketchPlus::new(plus).map_err(err)?;
        let tables = [
            SliceChunks::new(&values[0], batch),
            SliceChunks::new(&values[1], batch),
        ];
        let rng_seed = derive_seed(cfg.seed, 4);
        // The phase-1 pass a deployment runs before clients start emitting phase-2 reports.
        let discovery = est
            .discover_frequent_items_chunked(&tables[0], &tables[1], &domain_values, rng_seed)
            .map_err(err)?;
        let mut batches: [Vec<PlusReportBatch>; 2] = Default::default();
        for ((table, role), out) in tables
            .iter()
            .zip([PlusTableRole::A, PlusTableRole::B])
            .zip(&mut batches)
        {
            let t0 = now();
            est.stream_plus_reports(
                table,
                role,
                &discovery.frequent_items,
                rng_seed,
                true,
                &mut |b| {
                    out.push(b.clone());
                    Ok(())
                },
            )
            .map_err(err)?;
            client_ns += ns(now().duration_since(t0));
            client_reports += out.iter().map(|b| b.len() as u64).sum::<u64>();
        }
        (attrs, Pool::Plus(batches, Box::new(plus), domain_values))
    } else {
        let attrs = [
            service
                .register_attribute("pipeline.a", hash_seed)
                .map_err(err)?,
            service
                .register_attribute("pipeline.b", hash_seed)
                .map_err(err)?,
        ];
        let mut batches: [Vec<ReportBatch>; 2] = Default::default();
        for (i, out) in batches.iter_mut().enumerate() {
            let client = service.client(attrs[i]).map_err(err)?;
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 4 + i as u64));
            let t0 = now();
            for chunk in values[i].chunks(batch) {
                out.push(client.perturb_batch(chunk, &mut rng).map_err(err)?);
            }
            client_ns += ns(now().duration_since(t0));
            client_reports += values[i].len() as u64;
        }
        (attrs, Pool::Plain(batches))
    };
    Ok(Setup {
        service,
        attrs,
        pool,
        hash_seed,
        values,
        client_ns,
        client_reports,
    })
}

impl Setup {
    fn ingest(&mut self, side: usize, index: usize) -> ldpjs_common::Result<u64> {
        let attr = self.attrs[side];
        match &self.pool {
            Pool::Plain(p) => {
                let b = &p[side][index % p[side].len()];
                self.service.ingest_batch(attr, b).map(|s| s.reports)
            }
            Pool::Plus(p, ..) => {
                let b = &p[side][index % p[side].len()];
                self.service.ingest_plus(attr, b).map(|s| s.reports)
            }
        }
    }

    fn query(&mut self, q: Query) -> ldpjs_common::Result<QueryResult> {
        let [a, b] = self.attrs;
        match (q, &self.pool) {
            (Query::Join(r), Pool::Plain(_)) => self.service.join_size(a, b, r),
            (Query::Join(r), Pool::Plus(..)) => self.service.plus_join_size(a, b, r),
            (Query::Frequency(v, r), _) => self.service.frequency(a, v, r),
        }
    }

    /// The join size of the pool batches `first..first + count` (cyclic) computed from
    /// scratch: fresh builders absorb the batches, then the kernel runs once. The service's
    /// answer over the same reports must match it bit for bit.
    fn reference_join(&self, first: usize, count: usize) -> ldpjs_common::Result<f64> {
        let (params, eps) = params().map_err(ldpjs_common::Error::InvalidWorkload)?;
        match &self.pool {
            Pool::Plain(p) => {
                let mut views = Vec::with_capacity(2);
                for side in p {
                    let mut builder = SketchBuilder::new(params, eps, self.hash_seed);
                    for i in first..first + count {
                        builder.absorb_batch(&side[i % side.len()])?;
                    }
                    views.push(builder.finalize());
                }
                PlainKernel.join_size(&views[0], &views[1])
            }
            Pool::Plus(p, plus, domain) => {
                let mut states = Vec::with_capacity(2);
                for side in p {
                    let mut builder = PlusStateBuilder::new(params, eps, plus.seed);
                    for i in first..first + count {
                        builder.absorb_batch(&side[i % side.len()])?;
                    }
                    states.push(builder.finalize(ldpjs_core::FiPolicy::from_config(plus), domain));
                }
                Ok(PlusKernel::from_config(plus)
                    .join_est(&states[0], &states[1])?
                    .join_size)
            }
        }
    }
}

/// The service ingest call a mode's batches go through.
fn ingest_name(plus: bool) -> &'static str {
    if plus {
        "ingest_plus"
    } else {
        "ingest_batch"
    }
}

/// FWHT kernel invocations in a dispatch-counter delta, over every SIMD tier.
pub(crate) fn fwht_calls(d: &KernelDispatchSnapshot) -> u64 {
    d.fwht_avx512 + d.fwht_avx2 + d.fwht_portable
}

/// Sum and count of the service's query-stage histograms for `stage`, over query kinds.
fn stage_ns(service: &SketchService, stage: &str) -> (u64, u64) {
    let needle = format!("stage=\"{stage}\"");
    service
        .telemetry_snapshot()
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("ldpjs_query_ns{") && name.contains(&needle))
        .fold((0, 0), |(s, c), (_, sample)| match &sample.value {
            Value::Histogram { sum, count, .. } => (s + sum, c + count),
            _ => (s, c),
        })
}

/// Sum of the service's counters whose name starts with `prefix`.
fn counter_total(service: &SketchService, prefix: &str) -> u64 {
    service
        .telemetry_snapshot()
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, sample)| match sample.value {
            Value::Counter(v) | Value::Gauge(v) => v,
            Value::Histogram { .. } => 0,
        })
        .sum()
}

/// Measurements of one timed loop, split by unit kind: index 0 untraced, 1 traced.
#[derive(Default)]
struct Loop {
    epochs: usize,
    wall_ns: [u64; 2],
    units: [usize; 2],
    reports: [u64; 2],
    /// Reports absorbed in each untraced unit, and that unit's time.
    unit_reports: Vec<f64>,
    unit_time: Samples,
    probe: Probe,
    batch: Samples,
    join_cold: Samples,
    freq_cold: Samples,
    join_warm: Samples,
    refresh_misses: u64,
    seal_calls: u64,
    seal_fwht: u64,
    cursor: usize,
}

/// Run an online workload: set up (see [`set_up`]), then the timed loop, then the output
/// checks.
///
/// # Errors
/// A message if set-up fails.
pub fn run(
    workload: Workload,
    cfg: &RunConfig,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let spec = spec(workload);
    let mut lp = Loop::default();
    let mut st = set_up(report, &mut lp.probe, || setup(&spec, cfg))?;
    // Ground truth for the output checks, outside the timed set-up; the values are freed
    // before the timed loop.
    let exact = {
        let [a, b] = std::mem::take(&mut st.values);
        exact_join_size(&a, &b) as f64
    };
    report.param("mode", if spec.plus { "\"plus\"" } else { "\"plain\"" });
    report.param("k", K);
    report.param("m", M);
    report.param("eps", EPS);
    report.param("batch_reports", cfg.scaled(BATCH, 16));
    report.param("zipf_alpha", spec.alpha);
    report.param("domain", cfg.scaled(spec.domain, 64));
    report.param("pool_batches", spec.pool_batches);
    report.param("epoch_batches", spec.epoch_batches);
    report.param("ring_windows", spec.ring);
    report.param("queries_per_epoch", spec.queries.len());
    report.param("refresh_rounds", spec.refresh_rounds);
    report.param("shards", st.service.config().shards);

    let min_epochs = if cfg.trace {
        2 * spec.min_epochs
    } else {
        spec.min_epochs
    };
    let start = now();
    loop {
        epoch(&spec, &mut st, &mut lp, cfg.trace, report, tracer);
        if lp.epochs >= min_epochs && now().duration_since(start).as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let loop_ns = ns(now().duration_since(start));
    tracer.set_enabled(false);
    st.service.set_query_clock(None);
    report.param("epochs", lp.epochs);
    report.set("loop_s", loop_ns as f64 / 1e9, "s", 1);

    // End-to-end metrics, from untraced epochs only.
    report.set_throughput(&lp.unit_reports, &lp.unit_time);
    report.set_percentile("batch_p50", &lp.batch, 0.5);
    report.set_percentile("batch_p99", &lp.batch, 0.99);
    report.set_percentile("estimate_p50", &lp.join_cold, 0.5);
    report.set_percentile("join_cold_p99", &lp.join_cold, 0.99);
    report.set_percentile("join_warm_p50", &lp.join_warm, 0.5);
    report.set_percentile("freq_cold_p50", &lp.freq_cold, 0.5);
    crate::set_probe_time(report, &lp.probe);

    output_checks(&spec, cfg, &mut st, &lp, exact, report);
    if cfg.trace {
        layer_metrics(&st, &lp, report, tracer);
    }
    Ok(())
}

/// One epoch: ingest `epoch_batches` batches per attribute (sealing after the last), then
/// the epoch's queries and the cached refresh rounds.
fn epoch(
    spec: &Spec,
    st: &mut Setup,
    lp: &mut Loop,
    trace: bool,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let traced = trace && lp.epochs % 2 == 1;
    let kind = usize::from(traced);
    tracer.set_enabled(traced);
    tracer.set_unit(lp.epochs as u32);
    if trace {
        st.service.set_query_clock(traced.then(QueryClock::wall));
    }
    let ingest_name = ingest_name(spec.plus);
    let query_name = if spec.plus {
        "plus_join_size"
    } else {
        "join_size"
    };
    let probe_ns = lp.probe.tick();
    let reports_before = lp.reports[kind];
    let t_unit = now();
    for i in 0..spec.epoch_batches {
        let seals = i + 1 == spec.epoch_batches;
        for side in 0..2 {
            let t0 = now();
            let r = tracer.span(ingest_name, "ingest", |_| st.ingest(side, lp.cursor));
            if let Some(n) = report.call(ingest_name, r) {
                lp.reports[kind] += n;
            }
            if seals {
                let before = traced.then(kernel_dispatch_snapshot);
                let attr = st.attrs[side];
                let r = tracer.span("rotate", "seal", |_| st.service.rotate(attr));
                report.call("rotate", r);
                if let Some(b) = before {
                    lp.seal_fwht += fwht_calls(&kernel_dispatch_snapshot().delta_since(&b));
                    lp.seal_calls += 1;
                }
            }
            if !traced {
                lp.batch.push(ns(now().duration_since(t0)) as f64, probe_ns);
            }
        }
        lp.cursor += 1;
    }
    for &q in &spec.queries {
        let name = match q {
            Query::Join(_) => query_name,
            Query::Frequency(..) => "frequency",
        };
        let t0 = now();
        let r = tracer.span(name, "query", |_| st.query(q));
        let dt = ns(now().duration_since(t0)) as f64;
        let Some(res) = report.call(name, r) else {
            continue;
        };
        match (res.cached || traced, q) {
            (false, Query::Join(_)) => lp.join_cold.push(dt, probe_ns),
            (false, Query::Frequency(..)) => lp.freq_cold.push(dt, probe_ns),
            _ => {}
        }
    }
    for _ in 0..spec.refresh_rounds {
        let t0 = now();
        tracer.span("refresh_round", "cache", |_| {
            for &q in &spec.queries {
                if let Some(res) = report.call("cached query", st.query(q)) {
                    lp.refresh_misses += u64::from(!res.cached);
                }
            }
        });
        if !traced {
            let per_query = ns(now().duration_since(t0)) as f64 / spec.queries.len() as f64;
            lp.join_warm.push(per_query, probe_ns);
        }
    }
    let unit_ns = ns(now().duration_since(t_unit));
    lp.wall_ns[kind] += unit_ns;
    if !traced {
        lp.unit_reports
            .push((lp.reports[0] - reports_before) as f64);
        lp.unit_time.push(unit_ns as f64, probe_ns);
    }
    lp.units[kind] += 1;
    lp.epochs += 1;
}

/// `exact` is the join size of one copy of the pool.
fn output_checks(
    spec: &Spec,
    cfg: &RunConfig,
    st: &mut Setup,
    lp: &Loop,
    exact: f64,
    report: &mut Report,
) {
    report.check(
        "refresh rounds served from the cache",
        lp.refresh_misses == 0,
        format!("{} cache misses", lp.refresh_misses),
    );
    // The `All` span covers the ring's windows: the last `ring × epoch_batches` batches.
    let covered = spec.ring * spec.epoch_batches;
    let copies = covered / spec.pool_batches;
    let final_answer = report.call(
        "final All-span join",
        st.query(Query::Join(WindowRange::All)),
    );
    let reference = report.call(
        "from-scratch reference join",
        st.reference_join(lp.cursor.saturating_sub(covered), covered),
    );
    if let (Some(ans), Some(reference)) = (final_answer, reference) {
        report.check(
            "All-span answer bit-identical to from-scratch builders + kernel",
            ans.value.to_bits() == reference.to_bits(),
            format!("service {} vs reference {reference}", ans.value),
        );
        let truth = (copies * copies) as f64 * exact;
        let re = (ans.value - truth).abs() / truth;
        let ceiling = cfg.re_ceiling();
        let name = if spec.plus { "plus_join_re" } else { "join_re" };
        report.set(name, re, "ratio", 1);
        report.check(
            &format!("{name} under the sanity ceiling"),
            re < ceiling,
            format!(
                "estimate {} vs exact {truth}: {re} (ceiling {ceiling})",
                ans.value
            ),
        );
    }
    report.check(
        "All span holds whole pool copies",
        covered.is_multiple_of(spec.pool_batches) && lp.epochs >= spec.ring,
        format!("{covered} batches over {} epochs", lp.epochs),
    );
}

/// Per-layer metrics of the traced epochs.
fn layer_metrics(st: &Setup, lp: &Loop, report: &mut Report, tracer: &Tracer) {
    let spans = tracer.spans();
    let mut layers = layer_self_ns(spans);
    // The injected query clock splits cold queries into span assembly and kernel time;
    // what remains of a query span is the service's dispatch: span resolution, cache
    // lookup and insertion, provenance.
    let (assemble, _) = stage_ns(&st.service, "assemble");
    let (kernel, kernel_n) = stage_ns(&st.service, "kernel");
    if let Some(q) = layers.get_mut("query") {
        *q = q.saturating_sub(assemble + kernel);
    }
    layers.insert("assemble", assemble);
    layers.insert("kernel", kernel);
    let traced_wall = lp.wall_ns[1] as f64;
    crate::layer_shares(report, &layers, traced_wall, lp.units[1]);
    let untraced_unit = lp.wall_ns[0] as f64 / lp.units[0].max(1) as f64;
    let traced_unit = traced_wall / lp.units[1].max(1) as f64;
    report.set(
        "trace.overhead",
        traced_unit / untraced_unit - 1.0,
        "ratio",
        lp.units[1],
    );

    let ingest_spans = durations(spans, ingest_name(matches!(st.pool, Pool::Plus(..))));
    report.set(
        "ingest.ns_per_report",
        layers.get("ingest").copied().unwrap_or(0) as f64 / lp.reports[1].max(1) as f64,
        "ns",
        ingest_spans.len(),
    );
    report.set_percentile_us("ingest.p99_us", &ingest_spans, 0.99);
    let parallel = counter_total(&st.service, "ldpjs_ingest_parallel_batches_total");
    let inline = counter_total(&st.service, "ldpjs_ingest_inline_batches_total");
    report.set(
        "ingest.parallel_share",
        parallel as f64 / (parallel + inline).max(1) as f64,
        "ratio",
        (parallel + inline) as usize,
    );
    report.set_percentile_us("seal.p50_us", &durations(spans, "rotate"), 0.5);
    report.set(
        "seal.fwht_per_call",
        lp.seal_fwht as f64 / lp.seal_calls.max(1) as f64,
        "count",
        lp.seal_calls as usize,
    );
    report.set(
        "kernel.mean_us",
        kernel as f64 / kernel_n.max(1) as f64 / 1e3,
        "us",
        kernel_n as usize,
    );
    report.set(
        "client.ns_per_report",
        st.client_ns as f64 / st.client_reports.max(1) as f64,
        "ns",
        1,
    );
    let cache = st.service.cache_stats();
    report.set(
        "cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
        (cache.hits + cache.misses) as usize,
    );
    report.set(
        "cache.invalidations_per_epoch",
        cache.invalidations as f64 / lp.epochs.max(1) as f64,
        "count",
        lp.epochs,
    );
}
