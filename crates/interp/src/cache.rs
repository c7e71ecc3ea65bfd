//! The execution cache: statement-prefix snapshots, so candidate scripts
//! pay once for the prefixes they share.
//!
//! The environment after each executed statement is snapshotted so
//! candidate scripts sharing a prefix resume from a cloned snapshot
//! instead of re-running the prefix. During beam search, monotonicity
//! fixes every statement below a candidate's cursor, so the many
//! candidates expanded from one beam share long immutable prefixes.
//! Re-executing those prefixes dominated `CheckIfExecutes()` cost; with
//! the cache each distinct prefix executes once per search.
//!
//! Keys are a 64-bit chain hash over span-normalized statements (the same
//! code at different source locations shares snapshots), folded over the
//! interpreter's seed and sampling configuration. A snapshot clones the
//! variable map; frame columns inside it are `Arc`-shared copy-on-write,
//! so a resumed run can never observe a mutation by another. A fitted
//! model in a snapshot is a shared [`crate::sklearn::LazyFit`] handle, so
//! every run resumed from the snapshot reads the same model, trained at
//! most once.
//!
//! The snapshots are bounded by a capacity with least-recently-used
//! eviction in amortized O(1).
//!
//! A cache is only valid for one registered-table configuration: it must
//! not be shared between interpreters holding different tables. Within one
//! table configuration, a single *store* may be shared by many
//! concurrent searches (batch mode): each search holds its own
//! [`PrefixCache`] *view* of the store, which counts probes and evictions
//! straight into that search's metrics [`Registry`], while the snapshots
//! themselves are pooled. Nothing else keeps a count: a pool total is the
//! sum of the searches' registries. The chain keys already fold the
//! interpreter's seed and sampling configuration, so runs under different
//! input setups can never collide inside a shared store.

use crate::value::RtValue;
use lucid_obs::{Counter, Metric, Registry};
use lucid_pyast::{Span, Stmt};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default bound on retained snapshots (see [`PrefixCache::with_capacity`]).
pub const DEFAULT_PREFIX_CACHE_CAPACITY: usize = 4096;

/// The shared store behind one or more [`PrefixCache`] views: the
/// snapshot LRU map plus the retention peak, a gauge of the store itself.
#[derive(Debug)]
struct CacheStore {
    snapshots: Mutex<Lru<u64, CachedPrefix>>,
    capacity: usize,
    peak_len: AtomicU64,
}

/// A per-search view of a bounded, thread-safe store of execution
/// snapshots keyed by statement prefix.
///
/// A view holds the handles of the registry counters it counts into
/// ([`Metric::CacheHits`], [`Metric::CacheMisses`],
/// [`Metric::CacheEvictions`]), fetched once when the view is built, so a
/// probe is one atomic add and never takes the registry lock.
/// [`PrefixCache::with_capacity`] builds a fresh store with a view
/// counting into a registry of its own; [`PrefixCache::view`] builds
/// another view of the same store, counting into a given registry. A
/// clone is another handle to the same view: the same store and the same
/// counters.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    store: Arc<CacheStore>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

/// A bounded map with least-recently-used eviction. Every insert and hit
/// stamps the entry and appends `(key, stamp)` to `order`; the eviction
/// victim is the first `order` record whose stamp is still current, and
/// stale records are skipped or compacted away. Each operation is
/// amortized O(1) — no scan of `order` to move a touched key.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, (u64, V)>,
    /// Touch records, oldest first; stale once the key is re-touched.
    order: VecDeque<(K, u64)>,
    clock: u64,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
            clock: 0,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// A clone of the value for `key`, making it the most recently used.
    fn get(&mut self, key: &K) -> Option<V> {
        let entry = self.map.get_mut(key)?;
        self.clock += 1;
        entry.0 = self.clock;
        let value = entry.1.clone();
        self.order.push_back((*key, self.clock));
        self.compact();
        Some(value)
    }

    /// Stores a new key (evicting least recently used entries past the
    /// capacity) and returns how many entries were evicted. Re-inserting a
    /// present key replaces its value without touching its recency. A
    /// zero capacity stores nothing.
    fn put(&mut self, key: K, value: V) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        if let Some(entry) = self.map.get_mut(&key) {
            entry.1 = value;
            return 0;
        }
        self.clock += 1;
        self.map.insert(key, (self.clock, value));
        self.order.push_back((key, self.clock));
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let Some((old, stamp)) = self.order.pop_front() else {
                break;
            };
            if self.map.get(&old).is_some_and(|e| e.0 == stamp) {
                self.map.remove(&old);
                evicted += 1;
            }
        }
        self.compact();
        evicted
    }

    /// Drops stale touch records once they outnumber live entries, so
    /// `order` stays within a constant factor of `map`.
    fn compact(&mut self) {
        if self.order.len() > 2 * self.map.len() + 64 {
            let map = &self.map;
            self.order
                .retain(|(k, stamp)| map.get(k).is_some_and(|e| e.0 == *stamp));
        }
    }
}

/// The environment after executing a statement prefix.
#[derive(Debug, Clone)]
pub(crate) struct CachedPrefix {
    pub vars: HashMap<String, RtValue>,
    pub last_frame_var: Option<String>,
    /// Number of statements this snapshot has already executed.
    pub len: usize,
    /// Fuel the prefix consumed — restored on resume so budget accounting
    /// is byte-identical with and without the cache.
    pub fuel_used: u64,
    /// Cells the prefix bound — restored on resume, like `fuel_used`.
    pub cells: u64,
}

impl Default for PrefixCache {
    fn default() -> Self {
        PrefixCache::with_capacity(DEFAULT_PREFIX_CACHE_CAPACITY)
    }
}

/// Acquires a store lock, recovering from poisoning: the search layer
/// catches candidate panics, and the store must stay usable afterwards
/// (entries are only inserted whole, so the state is consistent even if a
/// panic unwound through a lock hold).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl PrefixCache {
    /// A view over a fresh store retaining at most `capacity` snapshots
    /// (LRU eviction), counting into a registry of its own. A zero
    /// capacity disables storage; probes then always miss.
    pub fn with_capacity(capacity: usize) -> Self {
        let store = CacheStore {
            snapshots: Mutex::new(Lru::new(capacity)),
            capacity,
            peak_len: AtomicU64::new(0),
        };
        PrefixCache::over(Arc::new(store), &Registry::new())
    }

    /// A new view of the same store counting into `reg`. Snapshots are
    /// shared; hit/miss/eviction counts go to `reg`.
    pub fn view(&self, reg: &Registry) -> Self {
        PrefixCache::over(Arc::clone(&self.store), reg)
    }

    fn over(store: Arc<CacheStore>, reg: &Registry) -> Self {
        PrefixCache {
            store,
            hits: reg.counter(Metric::CacheHits),
            misses: reg.counter(Metric::CacheMisses),
            evictions: reg.counter(Metric::CacheEvictions),
        }
    }

    /// Runs that resumed from a snapshot, as counted in this view's
    /// registry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Runs that started cold, as counted in this view's registry.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Snapshots evicted under the LRU bound by this view's inserts.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// The largest number of snapshots the store retained at any point
    /// (a store property, shared by all views).
    pub fn peak_snapshots(&self) -> u64 {
        self.store.peak_len.load(Ordering::Relaxed)
    }

    /// Number of snapshots currently retained in the store.
    pub fn len(&self) -> usize {
        lock(&self.store.snapshots).len()
    }

    /// Whether no snapshots are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retention bound the store was built with.
    pub fn capacity(&self) -> usize {
        self.store.capacity
    }

    /// Records whether a run found any prefix (`hit`) or started cold.
    pub(crate) fn record_probe(&self, hit: bool) {
        if hit { &self.hits } else { &self.misses }.add(1);
    }

    /// A clone of the snapshot for `key`, touching its LRU position.
    pub(crate) fn get(&self, key: u64) -> Option<CachedPrefix> {
        lock(&self.store.snapshots).get(&key)
    }

    /// Stores a snapshot, evicting the least recently used on overflow.
    /// Evictions are attributed to the view whose insert triggered them.
    pub(crate) fn put(&self, key: u64, snapshot: CachedPrefix) {
        if self.store.capacity == 0 {
            return;
        }
        let mut snapshots = lock(&self.store.snapshots);
        let evicted = snapshots.put(key, snapshot);
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        self.store
            .peak_len
            .fetch_max(snapshots.len() as u64, Ordering::Relaxed);
    }
}

/// Span-normalized structural hash of a single statement: identical code
/// hashes identically wherever it sits in the source. This one value is
/// both the [`crate::budget::FaultPlan`] decision key (keeping injected
/// fault counts independent of prefix-cache state) and the per-statement
/// ingredient of the prefix-cache chain keys, so the search's interned IR
/// can compute it once per unique statement and reuse it everywhere.
pub fn stmt_structural_hash(stmt: &Stmt) -> u64 {
    let mut h = DefaultHasher::new();
    stmt.clone().with_span(Span::synthetic()).hash(&mut h);
    h.finish()
}

/// Chain-hashes a script from per-statement structural hashes: entry `i`
/// keys the prefix `stmts[..=i]`. The hashes must come from
/// [`stmt_structural_hash`], so spans never influence the chain.
pub(crate) fn prefix_keys_from_hashes(
    seed: u64,
    sample_rows: Option<usize>,
    hashes: impl Iterator<Item = u64>,
) -> Vec<u64> {
    let mut chain = {
        // Fold the interpreter's input configuration into the root of the
        // chain: a cache probed under a different seed/sampling setup
        // must never return this run's snapshots.
        let mut h = DefaultHasher::new();
        0x707e_f1c5_u64.hash(&mut h);
        seed.hash(&mut h);
        sample_rows.hash(&mut h);
        h.finish()
    };
    hashes
        .map(|stmt_hash| {
            let mut h = DefaultHasher::new();
            chain.hash(&mut h);
            stmt_hash.hash(&mut h);
            chain = h.finish();
            chain
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(len: usize) -> CachedPrefix {
        CachedPrefix {
            vars: HashMap::new(),
            last_frame_var: None,
            len,
            fuel_used: 0,
            cells: 0,
        }
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = PrefixCache::with_capacity(2);
        cache.put(1, snapshot(1));
        cache.put(2, snapshot(2));
        // Touch key 1 so key 2 becomes the eviction victim.
        assert!(cache.get(1).is_some());
        cache.put(3, snapshot(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn eviction_and_peak_counters_track_pressure() {
        let cache = PrefixCache::with_capacity(2);
        assert_eq!(cache.peak_snapshots(), 0);
        cache.put(1, snapshot(1));
        cache.put(2, snapshot(2));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.peak_snapshots(), 2);
        cache.put(3, snapshot(3));
        cache.put(4, snapshot(4));
        assert_eq!(cache.evictions(), 2);
        // Peak never exceeds capacity; re-inserting an existing key does
        // not evict.
        assert_eq!(cache.peak_snapshots(), 2);
        cache.put(4, snapshot(4));
        assert_eq!(cache.evictions(), 2);
    }

    /// Two views of one store over two registries: `(hits, misses,
    /// evictions)` as each registry counted them.
    fn probe_counts(reg: &Registry) -> (u64, u64, u64) {
        (
            reg.counter_value(Metric::CacheHits),
            reg.counter_value(Metric::CacheMisses),
            reg.counter_value(Metric::CacheEvictions),
        )
    }

    #[test]
    fn views_of_one_store_count_into_their_own_registries() {
        let store = PrefixCache::with_capacity(2);
        let (reg_a, reg_b) = (Registry::new(), Registry::new());
        let (a, b) = (store.view(&reg_a), store.view(&reg_b));
        // One view's put is the other view's hit: the store is shared.
        a.put(1, snapshot(1));
        assert!(b.get(1).is_some());
        a.record_probe(true);
        a.record_probe(false);
        b.record_probe(true);
        b.record_probe(true);
        // Evictions go to the view whose insert overflowed the store.
        b.put(2, snapshot(2));
        b.put(3, snapshot(3));
        assert_eq!(probe_counts(&reg_a), (1, 1, 0));
        assert_eq!(probe_counts(&reg_b), (2, 0, 1));
        assert_eq!((b.hits(), b.misses(), b.evictions()), (2, 0, 1));
        // The store's own view never probed, so its registry counted nothing.
        assert_eq!((store.hits(), store.misses(), store.evictions()), (0, 0, 0));
        // Capacity and peak are store properties, visible from any view.
        assert_eq!(b.capacity(), 2);
        assert_eq!(a.peak_snapshots(), 2);
        assert_eq!(store.peak_snapshots(), 2);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn views_sharing_a_registry_add_up_there() {
        // A standalone cache counts into a registry of its own; two views
        // handed one registry count into the same counters.
        let cache = PrefixCache::with_capacity(1);
        cache.record_probe(true);
        cache.put(1, snapshot(1));
        cache.put(2, snapshot(2));
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 0, 1));
        let reg = Registry::new();
        let (a, b) = (cache.view(&reg), cache.view(&reg));
        a.record_probe(false);
        b.record_probe(false);
        b.put(3, snapshot(3));
        assert_eq!(probe_counts(&reg), (0, 2, 1));
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 0, 1));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = PrefixCache::with_capacity(0);
        cache.put(1, snapshot(1));
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn lru_touch_order_survives_many_hits_and_compaction() {
        // Thousands of hits on one key pile up stale touch records; the
        // victim must still be the least recently used live key.
        let mut lru: Lru<u64, u64> = Lru::new(3);
        for k in 1..=3 {
            lru.put(k, k);
        }
        for _ in 0..1000 {
            assert_eq!(lru.get(&1), Some(1));
        }
        assert!(lru.order.len() <= 2 * lru.len() + 64 + 1);
        assert_eq!(lru.get(&3), Some(3));
        // Key 2 is now the oldest touch.
        assert_eq!(lru.put(4, 4), 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.put(5, 5), 1);
        assert_eq!(lru.get(&1), None, "key 1 was touched before key 3 and 4");
        assert_eq!(
            (lru.get(&3), lru.get(&4), lru.get(&5)),
            (Some(3), Some(4), Some(5))
        );
        // Re-inserting a live key replaces its value without evicting.
        assert_eq!(lru.put(3, 30), 0);
        assert_eq!(lru.get(&3), Some(30));
    }

    fn prefix_keys(stmts: &[Stmt], seed: u64, sample_rows: Option<usize>) -> Vec<u64> {
        prefix_keys_from_hashes(seed, sample_rows, stmts.iter().map(stmt_structural_hash))
    }

    #[test]
    fn prefix_keys_ignore_spans_but_not_config() {
        let a = lucid_pyast::parse_module("x = 1\ny = 2\n").unwrap();
        let b = lucid_pyast::parse_module("\n\nx = 1\ny = 2\n").unwrap();
        let keys_a = prefix_keys(&a.stmts, 7, None);
        let keys_b = prefix_keys(&b.stmts, 7, None);
        assert_eq!(keys_a, keys_b);
        assert_eq!(keys_a.len(), 2);
        // Same code, different first statement → chains diverge and stay
        // diverged.
        let c = lucid_pyast::parse_module("x = 3\ny = 2\n").unwrap();
        let keys_c = prefix_keys(&c.stmts, 7, None);
        assert_ne!(keys_a[0], keys_c[0]);
        assert_ne!(keys_a[1], keys_c[1]);
        // Different interpreter configuration → different key space.
        assert_ne!(keys_a, prefix_keys(&a.stmts, 8, None));
        assert_ne!(keys_a, prefix_keys(&a.stmts, 7, Some(100)));
    }
}
