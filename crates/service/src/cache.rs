//! The memoized query cache: answers keyed by **(query kind, attribute set, epoch span)**,
//! merged estimation views (one store per estimator mode) keyed by (attribute, epoch-span),
//! all invalidated when a participating attribute rotates.
//!
//! Epoch spans — `(first_epoch, last_epoch)` over per-attribute, never-reused epoch ids —
//! identify immutable sealed data, so a cached answer can never go stale; invalidation on
//! rotation exists to (1) bound the cache to answers the *current* ring can still derive
//! and (2) keep `Latest`/`LastK` queries, which re-resolve to new spans after every
//! rotation, from accumulating dead entries.
//!
//! Result entries are bounded by a capacity with **least-recently-used** eviction: a lookup
//! hit promotes its entry to most-recently-used before the oldest entry is evicted, so a hot
//! merged-span answer (a dashboard's repeated join query) survives a value-keyed frequency
//! scan that churns thousands of one-shot entries past it. (The earlier insertion-order
//! eviction evicted exactly those hot entries first; the regression is pinned in this
//! module's tests via [`CacheStats`].)

use ldpjs_metrics::telemetry::Counter;
use std::collections::{BTreeMap, VecDeque};

use crate::service::{Explain, SpanView};

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
    /// Merged multi-window estimation views currently held (all estimator modes).
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

/// One cached result together with its recency stamp (the lazy-LRU bookkeeping).
#[derive(Debug, Clone, Copy)]
struct Entry {
    answer: CachedAnswer,
    /// The monotonic stamp of this entry's most recent insert-or-hit. Only the order-queue
    /// pair carrying the same stamp is live; older pairs for the key are stale.
    stamp: u64,
}

/// The service-wide memoization layer.
///
/// Result entries are bounded by `capacity` with least-recently-used eviction (hits promote;
/// see the module docs): frequency queries are keyed by arbitrary caller-supplied values, so
/// without a bound a domain scan against a quiet attribute (rotation being the only
/// invalidation trigger) would grow the always-on service's memory without limit. Merged
/// views need no bound of their own — ranges resolve to ring suffixes, so an attribute can
/// only ever have `retained_windows` distinct spans alive between rotations.
#[derive(Debug)]
pub(crate) struct QueryCache {
    capacity: usize,
    /// Ordered maps, not hash maps: `invalidate_attribute` and `prune_order` *iterate*
    /// these stores, and `BTreeMap` makes the visit order (hence eviction/invalidation
    /// bookkeeping and any future iteration) deterministic run to run.
    results: BTreeMap<QueryKey, Entry>,
    /// Recency queue of `(key, stamp)` pairs, oldest first. A pair is live only while the
    /// entry's stamp matches; promotions and invalidations leave stale pairs that pop (or
    /// are pruned) for free.
    order: VecDeque<(QueryKey, u64)>,
    /// Monotonic recency clock.
    clock: u64,
    /// Merged multi-window plain and edge views by `(attribute, first_epoch, last_epoch)`.
    views: BTreeMap<(usize, u64, u64), SpanView>,
    instruments: CacheInstruments,
}

impl QueryCache {
    /// An empty cache bounded to `capacity` result entries, counting into `instruments`.
    pub(crate) fn new(capacity: usize, instruments: CacheInstruments) -> Self {
        QueryCache {
            capacity,
            results: BTreeMap::new(),
            order: VecDeque::new(),
            clock: 0,
            views: BTreeMap::new(),
            instruments,
        }
    }

    /// Look a result up, counting the hit or miss under `mode`. A hit **promotes** the entry
    /// to most-recently-used, so hot entries survive churn from one-shot scans.
    pub(crate) fn lookup(&mut self, key: &QueryKey, mode: QueryMode) -> Option<CachedAnswer> {
        match self.results.get_mut(key) {
            Some(entry) => {
                self.instruments.hits[mode.index()].inc();
                self.clock += 1;
                entry.stamp = self.clock;
                let answer = entry.answer;
                self.order.push_back((*key, self.clock));
                self.prune_order();
                Some(answer)
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
        self.results.insert(
            key,
            Entry {
                answer,
                stamp: self.clock,
            },
        );
        self.order.push_back((key, self.clock));
        while self.results.len() > self.capacity {
            let Some((old, stamp)) = self.order.pop_front() else {
                break;
            };
            // Only the pair carrying the entry's current stamp is live; stale pairs (the
            // key was promoted, re-inserted, or invalidated since) pop without counting.
            if self.results.get(&old).is_some_and(|e| e.stamp == stamp) {
                self.results.remove(&old);
                self.instruments.evictions.inc();
            }
        }
        self.prune_order();
    }

    /// Promotions and invalidations leave stale pairs in the recency queue; prune it before
    /// it outgrows the live map by more than a constant factor.
    fn prune_order(&mut self) {
        if self.order.len() > self.capacity.saturating_mul(2).max(16) {
            let results = &self.results;
            self.order
                .retain(|(k, stamp)| results.get(k).is_some_and(|e| e.stamp == *stamp));
        }
    }

    /// A memoized merged view for `(attr, first_epoch, last_epoch)`, if present.
    pub(crate) fn view(&self, key: (usize, u64, u64)) -> Option<SpanView> {
        self.views.get(&key).cloned()
    }

    /// Memoize a merged multi-window view.
    pub(crate) fn insert_view(&mut self, key: (usize, u64, u64), view: SpanView) {
        self.views.insert(key, view);
    }

    /// Rotation hook: drop every result and merged view touching `attr`.
    pub(crate) fn invalidate_attribute(&mut self, attr: usize) {
        self.results.retain(|key, _| !key.touches(attr));
        self.views.retain(|&(a, _, _), _| a != attr);
        self.instruments.invalidations.inc();
    }

    /// Drop everything (the explicit `clear_cache` entry point; also counted as an
    /// invalidation).
    pub(crate) fn clear(&mut self) {
        // Drop the stores only: every cumulative counter — the totals *and* the per-mode
        // breakdowns — survives, so monitoring sees one uninterrupted series across clears.
        self.results.clear();
        self.order.clear();
        self.views.clear();
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
            views: self.views.len(),
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
        let mut cache = QueryCache::new(3, CacheInstruments::default());
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
        // Stale order entries left by invalidation do not count as evictions.
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
        let mut cache = QueryCache::new(8, CacheInstruments::default());
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
        let mut cache = QueryCache::new(64, CacheInstruments::default());
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
    }

    #[test]
    fn cumulative_counters_survive_clear() {
        // The clear/stats symmetry regression: `clear` drops stored answers and views but
        // must not reset any cumulative counter — totals AND per-mode breakdowns.
        let ins = CacheInstruments::default();
        let mut cache = QueryCache::new(2, ins.clone());
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
