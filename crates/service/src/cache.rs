//! The memoized query cache: answers keyed by **(query kind, attribute set, epoch span)**,
//! span estimation views (one typed store per estimator mode) keyed by
//! (attribute, epoch-span), all invalidated when a participating attribute rotates, and the
//! window ranges queries read on each attribute since its last rotation.
//!
//! Epoch spans — `(first_epoch, last_epoch)` over per-attribute, never-reused epoch ids —
//! identify immutable sealed data, so a cached answer can never go stale; invalidation on
//! rotation exists to (1) bound the cache to answers the *current* ring can still derive
//! and (2) keep `Latest`/`LastK` queries, which re-resolve to new spans after every
//! rotation, from accumulating dead entries. Rotation then **re-warms**: it re-resolves
//! every range read on the attribute during the epoch that just closed against the new
//! ring and memoizes the span views those spans need, so a dashboard's steady ranges find
//! their views assembled before their first query of the new epoch.
//!
//! Result entries are bounded by a capacity with **least-recently-used** eviction, kept as
//! one recency order from stamp to key: a lookup hit re-stamps its entry as
//! most-recently-used, and eviction pops the oldest stamp, so a hot merged-span answer (a
//! dashboard's repeated join query) survives a value-keyed frequency scan that churns
//! thousands of one-shot entries past it. (The earlier insertion-order eviction evicted
//! exactly those hot entries first; the regression is pinned in this module's tests via
//! [`CacheStats`], and a property test drives the cache against a naive reference LRU.)

use ldpjs_common::error::Result;
use ldpjs_core::multiway::FinalizedEdgeSketch;
use ldpjs_core::{FinalizedPlusState, FinalizedSketch};
use ldpjs_metrics::telemetry::Counter;
use std::collections::btree_map::Entry as MapEntry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::service::{Explain, SpanSource};
use crate::window::WindowRange;

/// A query answer as stored in (and served from) the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CachedAnswer {
    /// The estimate.
    pub value: f64,
    /// Sealed windows consulted (every participating attribute summed).
    pub windows: usize,
    /// Reports covered by those windows (every participating attribute summed).
    pub reports: u64,
    /// The provenance record captured when the answer was computed (its cache outcome is
    /// rewritten to `Hit` when served from here).
    pub explain: Explain,
}

/// An estimator mode: the mode an attribute runs in, and the mode a cached query was served
/// under (for the per-mode stat breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryMode {
    Plain,
    Plus,
    Edge,
}

impl QueryMode {
    fn index(self) -> usize {
        self as usize
    }

    /// The mode's exporter-facing name.
    pub(crate) fn name(self) -> &'static str {
        ["plain", "plus", "edge"][self.index()]
    }
}

/// Telemetry handles the owning service wires into the cache: every hit/miss/eviction/
/// invalidation lands in the exporter the moment it happens, and [`CacheStats`] is read
/// back from the same counters. Indexed like [`QueryMode`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheInstruments {
    pub hits: [Counter; 3],
    pub misses: [Counter; 3],
    pub evictions: Counter,
    pub invalidations: Counter,
}

/// Cache key: the query kind plus the participating attributes and the resolved epoch spans
/// the query covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum QueryKey {
    /// Plain join-size query over two attributes' spans (normalized so `a <= b`).
    Join {
        a: usize,
        b: usize,
        span_a: (u64, u64),
        span_b: (u64, u64),
    },
    /// LDPJoinSketch+ join-size query over two plus attributes' spans (normalized).
    PlusJoin {
        a: usize,
        b: usize,
        span_a: (u64, u64),
        span_b: (u64, u64),
    },
    /// Frequency query for one value over one attribute's span (plain or plus — an
    /// attribute has exactly one mode, so the kind is implied by the attribute).
    Frequency {
        attr: usize,
        value: u64,
        span: (u64, u64),
    },
    /// 3-way chain-join query `v1 ⋈ e ⋈ v3` over three attributes' spans.
    Chain3 {
        v1: usize,
        e: usize,
        v3: usize,
        span_v1: (u64, u64),
        span_e: (u64, u64),
        span_v3: (u64, u64),
    },
}

impl QueryKey {
    /// Build a plain join key normalized under operand order (the row product is commutative
    /// down to the bit level, so both orders share one entry).
    pub(crate) fn join(a: usize, span_a: (u64, u64), b: usize, span_b: (u64, u64)) -> Self {
        let ((a, span_a), (b, span_b)) = ordered((a, span_a), (b, span_b));
        QueryKey::Join {
            a,
            b,
            span_a,
            span_b,
        }
    }

    /// Build a plus join key, normalized like [`QueryKey::join`] (the kernel's `JoinEst` is
    /// symmetric in its two states down to the reported diagnostics' orientation — the
    /// *estimate* both orders serve is bit-identical, so they share one entry).
    pub(crate) fn plus_join(a: usize, span_a: (u64, u64), b: usize, span_b: (u64, u64)) -> Self {
        let ((a, span_a), (b, span_b)) = ordered((a, span_a), (b, span_b));
        QueryKey::PlusJoin {
            a,
            b,
            span_a,
            span_b,
        }
    }

    fn touches(&self, attr: usize) -> bool {
        match *self {
            QueryKey::Join { a, b, .. } | QueryKey::PlusJoin { a, b, .. } => a == attr || b == attr,
            QueryKey::Frequency { attr: f, .. } => f == attr,
            QueryKey::Chain3 { v1, e, v3, .. } => v1 == attr || e == attr || v3 == attr,
        }
    }
}

/// Two `(attribute, span)` operands, lower attribute index first.
fn ordered<T>(a: (usize, T), b: (usize, T)) -> ((usize, T), (usize, T)) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// Hit/miss counters for one estimator mode (one lane of the per-mode breakdown in
/// [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeCacheStats {
    /// Queries of this mode answered from the cache.
    pub hits: u64,
    /// Queries of this mode that had to be computed.
    pub misses: u64,
}

/// Counters describing the cache's behaviour since service start.
///
/// Every counter here is **cumulative over the service lifetime**: neither rotation-driven
/// invalidation nor an explicit `clear_cache` resets any of them (only the point-in-time
/// sizes `entries`/`views` drop): they are read back from the exported telemetry counters,
/// which never reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to be computed.
    pub misses: u64,
    /// Result entries currently held.
    pub entries: usize,
    /// Span views currently memoized, one window or many (all estimator modes): the spans
    /// queries assembled since their attribute's last rotation, and the spans that rotation
    /// re-warmed for the ranges read in the epoch it closed. A plus attribute's whole-ring
    /// state is kept by the attribute, not memoized, so it is not counted.
    pub views: usize,
    /// Invalidation events (one per rotation of any attribute, plus explicit clears).
    pub invalidations: u64,
    /// Result entries evicted by the capacity bound (least-recently-used first).
    pub evictions: u64,
    /// Plain-mode (LDPJoinSketch) hit/miss breakdown.
    pub plain: ModeCacheStats,
    /// Plus-mode (LDPJoinSketch+) hit/miss breakdown.
    pub plus: ModeCacheStats,
    /// Edge-mode (multi-way chain) hit/miss breakdown.
    pub edge: ModeCacheStats,
}

/// One cached result together with its recency stamp.
#[derive(Debug, Clone, Copy)]
struct Entry {
    answer: CachedAnswer,
    /// The monotonic stamp of this entry's most recent insert-or-hit: its key in the
    /// recency order.
    stamp: u64,
}

/// The service-wide memoization layer: results, span views, and the ranges read since
/// each attribute's last rotation, which [`QueryCache::invalidate_attribute`] hands to the
/// rotation that re-warms them.
///
/// Result entries are bounded by `capacity` with least-recently-used eviction (hits promote;
/// see the module docs): frequency queries are keyed by arbitrary caller-supplied values, so
/// without a bound a domain scan against a quiet attribute (rotation being the only
/// invalidation trigger) would grow the always-on service's memory without limit. Span
/// views need no bound of their own — ranges resolve to ring suffixes, so an attribute can
/// only ever have `retained_windows` distinct spans alive between rotations — and nor do
/// the recorded ranges, which [`QueryCache::record_read`] folds into at most
/// `retained_windows + 1` per attribute.
#[derive(Debug)]
pub(crate) struct QueryCache {
    capacity: usize,
    /// The ring capacity (`retained_windows`): every `LastK(k)` with `k` at least this
    /// resolves like `All` on every ring an attribute can hold.
    ring: usize,
    /// Ordered maps, not hash maps: `invalidate_attribute` *iterates* these stores, and
    /// `BTreeMap` makes the visit order (hence invalidation bookkeeping and any future
    /// iteration) deterministic run to run.
    results: BTreeMap<QueryKey, Entry>,
    /// The recency order: every held result's stamp, mapped to its key, oldest first. It
    /// holds exactly the keys of `results`.
    order: BTreeMap<u64, QueryKey>,
    /// Monotonic recency clock.
    clock: u64,
    /// Plain span views.
    pub(crate) plain_views: ViewMemo<FinalizedSketch>,
    /// Plus span states, except each attribute's whole ring (the attribute keeps that one).
    pub(crate) plus_views: ViewMemo<FinalizedPlusState>,
    /// Edge span views.
    pub(crate) edge_views: ViewMemo<FinalizedEdgeSketch>,
    /// `(attribute, range)` for every range a query read since the attribute's last
    /// rotation, which the next rotation re-warms. Ordered, like the stores above, so the
    /// re-warm order is deterministic.
    read: BTreeSet<(usize, WindowRange)>,
    instruments: CacheInstruments,
}

/// One estimator mode's memoized span views by `(attribute, first_epoch, last_epoch)`:
/// filled by a query's first assembly of a span, or by rotation re-warming the ranges read
/// in the epoch it closed.
pub(crate) type ViewMemo<V> = BTreeMap<(usize, u64, u64), Arc<V>>;

/// The view `memo` holds under `key` ([`SpanSource::MemoizedView`]), or the one `assemble`
/// builds, memoized for later queries ([`SpanSource::LedgerAssembled`]). A failed assembly
/// memoizes nothing.
pub(crate) fn memoized<V>(
    memo: &mut ViewMemo<V>,
    key: (usize, u64, u64),
    assemble: impl FnOnce() -> Result<V>,
) -> Result<(Arc<V>, SpanSource)> {
    Ok(match memo.entry(key) {
        MapEntry::Occupied(entry) => (Arc::clone(entry.get()), SpanSource::MemoizedView),
        MapEntry::Vacant(entry) => (
            Arc::clone(entry.insert(Arc::new(assemble()?))),
            SpanSource::LedgerAssembled,
        ),
    })
}

impl QueryCache {
    /// An empty cache bounded to `capacity` result entries, for rings of at most `ring`
    /// windows, counting into `instruments`.
    pub(crate) fn new(capacity: usize, ring: usize, instruments: CacheInstruments) -> Self {
        QueryCache {
            capacity,
            ring,
            results: BTreeMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            plain_views: BTreeMap::new(),
            plus_views: BTreeMap::new(),
            edge_views: BTreeMap::new(),
            read: BTreeSet::new(),
            instruments,
        }
    }

    /// Record that a query read `attr` over `range`. Every `LastK(k)` with `k` at least the
    /// ring capacity is recorded as `All`, which it resolves like on every ring.
    pub(crate) fn record_read(&mut self, attr: usize, range: WindowRange) {
        let range = match range {
            WindowRange::LastK(k) if k >= self.ring => WindowRange::All,
            _ => range,
        };
        self.read.insert((attr, range));
    }

    /// Look a result up, counting the hit or miss under `mode`. A hit **promotes** the entry
    /// to most-recently-used, so hot entries survive churn from one-shot scans.
    pub(crate) fn lookup(&mut self, key: &QueryKey, mode: QueryMode) -> Option<CachedAnswer> {
        match self.results.get_mut(key) {
            Some(entry) => {
                self.instruments.hits[mode.index()].inc();
                self.clock += 1;
                self.order.remove(&entry.stamp);
                self.order.insert(self.clock, *key);
                entry.stamp = self.clock;
                Some(entry.answer)
            }
            None => {
                self.instruments.misses[mode.index()].inc();
                None
            }
        }
    }

    /// Store a freshly computed result, evicting the least-recently-used entries past the
    /// capacity bound.
    pub(crate) fn insert(&mut self, key: QueryKey, answer: CachedAnswer) {
        self.clock += 1;
        let entry = Entry {
            answer,
            stamp: self.clock,
        };
        if let Some(replaced) = self.results.insert(key, entry) {
            self.order.remove(&replaced.stamp);
        }
        self.order.insert(self.clock, key);
        while self.results.len() > self.capacity {
            let Some((_, oldest)) = self.order.pop_first() else {
                break;
            };
            self.results.remove(&oldest);
            self.instruments.evictions.inc();
        }
    }

    /// Rotation hook: drop every result and merged view touching `attr`, and return the
    /// ranges queries read on `attr` since its last rotation (forgetting them), for the
    /// caller to re-warm against the new ring.
    pub(crate) fn invalidate_attribute(&mut self, attr: usize) -> Vec<WindowRange> {
        self.results.retain(|key, _| !key.touches(attr));
        self.order.retain(|_, key| !key.touches(attr));
        self.plain_views.retain(|&(a, _, _), _| a != attr);
        self.plus_views.retain(|&(a, _, _), _| a != attr);
        self.edge_views.retain(|&(a, _, _), _| a != attr);
        let mut read = Vec::new();
        self.read.retain(|&(a, range)| {
            if a == attr {
                read.push(range);
            }
            a != attr
        });
        self.instruments.invalidations.inc();
        read
    }

    /// Drop everything, the recorded ranges included (the explicit `clear_cache` entry
    /// point; also counted as an invalidation).
    pub(crate) fn clear(&mut self) {
        // Drop the stores only: every cumulative counter — the totals *and* the per-mode
        // breakdowns — survives, so monitoring sees one uninterrupted series across clears.
        self.results.clear();
        self.order.clear();
        self.plain_views.clear();
        self.plus_views.clear();
        self.edge_views.clear();
        self.read.clear();
        self.instruments.invalidations.inc();
    }

    /// Current counters, read back from the telemetry handles.
    pub(crate) fn stats(&self) -> CacheStats {
        let ins = &self.instruments;
        let [plain, plus, edge] = [0, 1, 2].map(|i| ModeCacheStats {
            hits: ins.hits[i].get(),
            misses: ins.misses[i].get(),
        });
        CacheStats {
            hits: plain.hits + plus.hits + edge.hits,
            misses: plain.misses + plus.misses + edge.misses,
            entries: self.results.len(),
            views: self.plain_views.len() + self.plus_views.len() + self.edge_views.len(),
            invalidations: ins.invalidations.get(),
            evictions: ins.evictions.get(),
            plain,
            plus,
            edge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ans(value: f64, windows: usize, reports: u64) -> CachedAnswer {
        CachedAnswer {
            value,
            windows,
            reports,
            explain: Explain::default(),
        }
    }

    #[test]
    fn join_keys_normalize_operand_order() {
        let k1 = QueryKey::join(3, (0, 4), 1, (2, 5));
        let k2 = QueryKey::join(1, (2, 5), 3, (0, 4));
        assert_eq!(k1, k2);
        let p1 = QueryKey::plus_join(3, (0, 4), 1, (2, 5));
        let p2 = QueryKey::plus_join(1, (2, 5), 3, (0, 4));
        assert_eq!(p1, p2);
        // Plain and plus joins over the same attributes/spans are distinct kinds.
        assert_ne!(k1, p1);
    }

    #[test]
    fn chain_keys_touch_all_three_attributes() {
        let key = QueryKey::Chain3 {
            v1: 0,
            e: 1,
            v3: 2,
            span_v1: (0, 0),
            span_e: (0, 0),
            span_v3: (0, 0),
        };
        assert!(key.touches(0) && key.touches(1) && key.touches(2));
        assert!(!key.touches(3));
    }

    #[test]
    fn capacity_bound_evicts_oldest_results_first() {
        let mut cache = QueryCache::new(3, 16, CacheInstruments::default());
        let key = |v: u64| QueryKey::Frequency {
            attr: 0,
            value: v,
            span: (0, 0),
        };
        let ans = ans(0.0, 1, 1);
        for v in 0..10 {
            cache.insert(key(v), ans);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3, "bounded to capacity");
        assert_eq!(stats.evictions, 7);
        // The newest entries survive, the oldest are gone.
        assert!(cache.lookup(&key(9), QueryMode::Plain).is_some());
        assert!(cache.lookup(&key(0), QueryMode::Plain).is_none());
        // Invalidated entries leave the recency order with their results, so refilling to
        // capacity evicts nothing.
        cache.invalidate_attribute(0);
        for v in 0..3 {
            cache.insert(key(v), ans);
        }
        assert_eq!(cache.stats().evictions, 7);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn hits_promote_entries_past_a_value_keyed_scan() {
        // The satellite regression: a hot entry (a dashboard's merged-span join answer)
        // must survive a frequency scan that churns `capacity` one-shot entries past it.
        // Under the old insertion-order eviction the hot entry — inserted first — was
        // evicted first despite being hit on every refresh.
        let mut cache = QueryCache::new(8, 16, CacheInstruments::default());
        let hot = QueryKey::join(0, (0, 15), 1, (0, 15));
        let ans = ans(42.0, 32, 1_000);
        cache.insert(hot, ans);
        for v in 0..100u64 {
            // The dashboard refreshes (a hit promotes the hot entry) while the scan keeps
            // inserting fresh value-keyed entries.
            assert!(
                cache.lookup(&hot, QueryMode::Plain).is_some(),
                "hot entry evicted during the scan at v={v}"
            );
            cache.insert(
                QueryKey::Frequency {
                    attr: 0,
                    value: v,
                    span: (0, 15),
                },
                ans,
            );
        }
        // Still cached at the end, and the churn is visible in the eviction counter.
        assert_eq!(cache.lookup(&hot, QueryMode::Plain), Some(ans));
        let stats = cache.stats();
        assert_eq!(stats.entries, 8);
        assert_eq!(
            stats.evictions,
            100 - 7,
            "the scan's one-shot entries (and only those) were evicted"
        );
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn lookup_counts_hits_and_misses_and_invalidation_is_selective() {
        let mut cache = QueryCache::new(64, 16, CacheInstruments::default());
        let key_a = QueryKey::join(0, (0, 1), 1, (0, 1));
        let key_b = QueryKey::Frequency {
            attr: 2,
            value: 7,
            span: (0, 0),
        };
        assert!(cache.lookup(&key_a, QueryMode::Plain).is_none());
        cache.insert(key_a, ans(1.0, 4, 100));
        cache.insert(key_b, ans(2.0, 1, 50));
        assert!(cache.lookup(&key_a, QueryMode::Plain).is_some());
        // Rotating attribute 0 drops the join touching it but keeps attribute 2's entry.
        cache.invalidate_attribute(0);
        assert!(cache.lookup(&key_a, QueryMode::Plain).is_none());
        assert!(cache.lookup(&key_b, QueryMode::Plus).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.invalidations, 1);
        // The breakdowns partition the totals by mode.
        assert_eq!(stats.plain.hits, 1);
        assert_eq!(stats.plain.misses, 2);
        assert_eq!(stats.plus.hits, 1);
        assert_eq!(stats.plus.misses, 0);
        assert_eq!(stats.edge, ModeCacheStats::default());
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidations, 2);

        // Invalidation hands back, and forgets, the ranges read on that attribute only. A
        // `LastK` at least the ring long (16 here) is recorded as the `All` it resolves like.
        for (attr, range) in [
            (0, WindowRange::LastK(2)),
            (0, WindowRange::LastK(16)),
            (0, WindowRange::All),
            (2, WindowRange::Latest),
        ] {
            cache.record_read(attr, range);
        }
        let read = cache.invalidate_attribute(0);
        assert_eq!(read, [WindowRange::LastK(2), WindowRange::All]);
        assert!(cache.invalidate_attribute(0).is_empty());
        // `clear` forgets every recorded range.
        cache.clear();
        assert!(cache.invalidate_attribute(2).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cache against a naive reference LRU (a `Vec` of results, oldest first) over
        /// random insert, lookup, `invalidate_attribute` and `clear` sequences at capacities
        /// 1–8: after every step both hold the same results in the same recency order, and
        /// agree on every answer, hit, miss, eviction and invalidation count.
        #[test]
        fn prop_cache_matches_a_reference_lru(
            capacity in 1usize..9,
            ops in proptest::collection::vec(0u64..1_000, 1..200),
        ) {
            let mut cache = QueryCache::new(capacity, 16, CacheInstruments::default());
            let mut model: Vec<(QueryKey, CachedAnswer)> = Vec::new();
            let (mut hits, mut misses) = ([0u64; 3], [0u64; 3]);
            let (mut evictions, mut invalidations) = (0, 0);
            let modes = [QueryMode::Plain, QueryMode::Plus, QueryMode::Edge];
            for (step, &op) in ops.iter().enumerate() {
                // Five keys per attribute over three attributes: four frequency keys and a
                // join with the next attribute, so invalidation drops keys of two.
                let attr = (op / 10 % 3) as usize;
                let key = match op / 30 % 5 {
                    4 => QueryKey::join(attr, (0, 0), (attr + 1) % 3, (0, 0)),
                    value => QueryKey::Frequency { attr, value, span: (0, 0) },
                };
                match op % 10 {
                    0..=4 => {
                        let answer = ans(step as f64, 1, op);
                        cache.insert(key, answer);
                        model.retain(|(k, _)| *k != key);
                        model.push((key, answer));
                        if model.len() > capacity {
                            model.remove(0);
                            evictions += 1;
                        }
                    }
                    5..=7 => {
                        let got = cache.lookup(&key, modes[attr]);
                        let want = match model.iter().position(|(k, _)| *k == key) {
                            Some(i) => {
                                hits[attr] += 1;
                                let entry = model.remove(i);
                                model.push(entry);
                                Some(entry.1)
                            }
                            None => {
                                misses[attr] += 1;
                                None
                            }
                        };
                        prop_assert_eq!(got, want);
                    }
                    8 => {
                        cache.invalidate_attribute(attr);
                        model.retain(|(k, _)| !k.touches(attr));
                        invalidations += 1;
                    }
                    _ => {
                        cache.clear();
                        model.clear();
                        invalidations += 1;
                    }
                }
                let held: Vec<(QueryKey, CachedAnswer)> = (cache.order.values())
                    .map(|k| (*k, cache.results[k].answer))
                    .collect();
                prop_assert!(held == model, "step {}: held {:?}, expected {:?}", step, held, model);
                prop_assert_eq!(cache.results.len(), model.len());
                let stats = cache.stats();
                prop_assert_eq!(stats.entries, model.len());
                let breakdown = [stats.plain, stats.plus, stats.edge];
                for (i, mode) in breakdown.iter().enumerate() {
                    let want = ModeCacheStats {
                        hits: hits[i],
                        misses: misses[i],
                    };
                    prop_assert_eq!(*mode, want);
                }
                prop_assert_eq!(stats.hits, hits.iter().sum::<u64>());
                prop_assert_eq!(stats.misses, misses.iter().sum::<u64>());
                prop_assert_eq!(stats.evictions, evictions);
                prop_assert_eq!(stats.invalidations, invalidations);
            }
        }
    }

    #[test]
    fn cumulative_counters_survive_clear() {
        // The clear/stats symmetry regression: `clear` drops stored answers and views but
        // must not reset any cumulative counter — totals AND per-mode breakdowns.
        let ins = CacheInstruments::default();
        let mut cache = QueryCache::new(2, 16, ins.clone());
        let key = |v: u64| QueryKey::Frequency {
            attr: 0,
            value: v,
            span: (0, 0),
        };
        for v in 0..4 {
            assert!(cache.lookup(&key(v), QueryMode::Plus).is_none());
            cache.insert(key(v), ans(v as f64, 1, 10));
        }
        assert!(cache.lookup(&key(3), QueryMode::Plus).is_some());
        let before = cache.stats();
        assert_eq!(before.hits, 1);
        assert_eq!(before.misses, 4);
        assert_eq!(before.evictions, 2);
        assert_eq!(before.plus, ModeCacheStats { hits: 1, misses: 4 });
        cache.clear();
        let after = cache.stats();
        assert_eq!(after.entries, 0, "stores emptied");
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.plain, before.plain);
        assert_eq!(after.plus, before.plus);
        assert_eq!(after.edge, before.edge);
        assert_eq!(after.invalidations, before.invalidations + 1);
        // The wired telemetry handles track the same story.
        assert_eq!(ins.hits[1].get(), 1);
        assert_eq!(ins.misses[1].get(), 4);
        assert_eq!(ins.evictions.get(), 2);
        assert_eq!(ins.invalidations.get(), 1);
    }
}
