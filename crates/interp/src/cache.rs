//! The execution cache: statement-prefix snapshots plus a memo of fitted
//! models, so candidate scripts pay once for work they share.
//!
//! **Prefix snapshots.** The environment after each executed statement is
//! snapshotted so candidate scripts sharing a prefix resume from a cloned
//! snapshot instead of re-running the prefix. During beam search,
//! monotonicity fixes every statement below a candidate's cursor, so the
//! many candidates expanded from one beam share long immutable prefixes.
//! Re-executing those prefixes dominated `CheckIfExecutes()` cost; with
//! the cache each distinct prefix executes once per search.
//!
//! Keys are a 64-bit chain hash over span-normalized statements (the same
//! code at different source locations shares snapshots), folded over the
//! interpreter's seed and sampling configuration. A snapshot clones the
//! variable map; frame columns inside it are `Arc`-shared copy-on-write,
//! so a resumed run can never observe a mutation by another.
//!
//! **Fit memo.** Every corpus script ends in `fit` → `score`, and nothing
//! the search reads uses the trained weights, so a classifier `fit` only
//! decodes, encodes and checks its inputs and returns a lazy handle
//! ([`crate::sklearn::LazyFit`]) that trains when a `predict` or a read
//! `score` first needs it. An edit upstream of the tail re-runs the `fit`
//! even when the training inputs come out unchanged. Training is a pure
//! function of the estimator's parameters and the encoded training data,
//! so the handles are memoized under a 128-bit fingerprint of exactly
//! those ([`fit_key`]): a fit of an input that a live handle holds gets
//! that handle back, so each distinct input trains at most once while it
//! is in use, and only if something forces it. The memo holds its handles
//! weakly: a handle, and the training frame and labels it holds, lives
//! only while a run's variables or a prefix snapshot hold it, so the memo
//! keeps no training input alive by itself; a fit whose handle is gone
//! makes a new one (a miss). A handle carries no feature names a fit can
//! see — each fit keeps the names of its own `X`, since two inputs with
//! the same bits may name their columns differently. Failed fits never
//! reach the memo. In debug builds every hit asserts that the stored
//! handle holds the same input, bit for bit — a check that trains nothing.
//!
//! Both maps are bounded by the same capacity with least-recently-used
//! eviction in amortized O(1).
//!
//! A cache is only valid for one registered-table configuration: it must
//! not be shared between interpreters holding different tables. Within one
//! table configuration, a single *store* may be shared by many
//! concurrent searches (batch mode): each search holds its own
//! [`PrefixCache`] *view* of the store, which counts probes, evictions
//! and fit-memo traffic straight into that search's metrics
//! [`Registry`], while snapshots and training handles themselves are pooled.
//! Nothing else keeps a count: a pool total is the sum of the searches'
//! registries. The chain keys already fold the interpreter's seed and
//! sampling configuration, so runs under different input setups can never
//! collide inside a shared store; fit keys are content fingerprints and
//! need no such folding.

use crate::sklearn::LazyFit;
use crate::value::RtValue;
use lucid_ml::matrix::Matrix;
use lucid_obs::{Counter, Metric, Registry};
use lucid_pyast::{Span, Stmt};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Default bound on retained snapshots (see [`PrefixCache::with_capacity`]).
pub const DEFAULT_PREFIX_CACHE_CAPACITY: usize = 4096;

/// The shared store behind one or more [`PrefixCache`] views: the
/// snapshot and training-handle LRU maps plus the retention peak, a gauge of
/// the store itself. Training handles are held weakly.
#[derive(Debug)]
struct CacheStore {
    snapshots: Mutex<Lru<u64, CachedPrefix>>,
    fits: Mutex<Lru<u128, Weak<LazyFit>>>,
    capacity: usize,
    peak_len: AtomicU64,
}

/// A per-search view of a bounded, thread-safe store of execution
/// snapshots keyed by statement prefix and training handles keyed by
/// training input ([`fit_key`]).
///
/// A view holds the handles of the registry counters it counts into
/// ([`Metric::CacheHits`], [`Metric::CacheMisses`],
/// [`Metric::CacheEvictions`], [`Metric::FitMemoHits`],
/// [`Metric::FitMemoMisses`]), fetched once when the view is built, so a
/// probe is one atomic add and never takes the registry lock.
/// [`PrefixCache::counting_into`] builds a fresh store with a view
/// counting into a given registry ([`PrefixCache::with_capacity`]: into a
/// registry of its own); [`PrefixCache::view`] builds another view of the
/// same store. A clone is another handle to the same view: the same store
/// and the same counters.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    store: Arc<CacheStore>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    fit_hits: Arc<Counter>,
    fit_misses: Arc<Counter>,
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
        PrefixCache::counting_into(capacity, &Registry::new())
    }

    /// A view over a fresh store retaining at most `capacity` snapshots,
    /// counting into `reg`.
    pub fn counting_into(capacity: usize, reg: &Registry) -> Self {
        let store = CacheStore {
            snapshots: Mutex::new(Lru::new(capacity)),
            fits: Mutex::new(Lru::new(capacity)),
            capacity,
            peak_len: AtomicU64::new(0),
        };
        PrefixCache::over(Arc::new(store), reg)
    }

    /// A new view of the same store counting into `reg`. Snapshots and
    /// training handles are shared; hit/miss/eviction counts go to `reg`.
    pub fn view(&self, reg: &Registry) -> Self {
        PrefixCache::over(Arc::clone(&self.store), reg)
    }

    fn over(store: Arc<CacheStore>, reg: &Registry) -> Self {
        PrefixCache {
            store,
            hits: reg.counter(Metric::CacheHits),
            misses: reg.counter(Metric::CacheMisses),
            evictions: reg.counter(Metric::CacheEvictions),
            fit_hits: reg.counter(Metric::FitMemoHits),
            fit_misses: reg.counter(Metric::FitMemoMisses),
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

    /// Model fits served a memoized training handle, as counted in this
    /// view's registry.
    pub fn fit_hits(&self) -> u64 {
        self.fit_hits.get()
    }

    /// Model fits that made a new training handle (which trains only if
    /// forced), as counted in this view's registry.
    pub fn fit_misses(&self) -> u64 {
        self.fit_misses.get()
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

    /// The retention bound the store was built with (for snapshots and,
    /// separately, for training handles).
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

    /// The memoized training handle for fit key `key` if one is still
    /// alive, or `fresh` — stored, weakly, for the next fit of the same
    /// input. Counts one hit or miss into this view's registry. Lookup and
    /// insert happen under one lock (building a handle trains nothing), so
    /// concurrent searches fitting the same input share one handle, and it
    /// trains at most once.
    ///
    /// In debug builds a hit also asserts that the stored handle holds
    /// the training input `fresh` holds — a check that trains nothing, so
    /// a debug build trains exactly what a release build trains.
    pub(crate) fn fit_handle(&self, key: u128, fresh: LazyFit) -> Arc<LazyFit> {
        let mut fits = lock(&self.store.fits);
        if let Some(held) = fits.get(&key).and_then(|weak| weak.upgrade()) {
            self.fit_hits.add(1);
            debug_assert!(
                held.same_input(&fresh),
                "fit memo served a handle for another training input"
            );
            return held;
        }
        self.fit_misses.add(1);
        let handle = Arc::new(fresh);
        fits.put(key, Arc::downgrade(&handle));
        handle
    }
}

/// Fit-memo key: a 128-bit fingerprint of everything a fit depends on —
/// the estimator kind and parameters (`params`, first word a kind tag),
/// the training matrix's shape and exact `f64` bit patterns, and the
/// encoded labels. The buffers are hashed a word at a time through two
/// independent multiply–rotate lanes, each finalized with murmur3's
/// `fmix64`.
pub(crate) fn fit_key(params: &[u64], x: &Matrix, labels: &[u32]) -> u128 {
    let mut fp = Fingerprint::new();
    for &p in params {
        fp.word(p);
    }
    fp.word(x.n_rows() as u64);
    fp.word(x.n_cols() as u64);
    for v in x.as_slice() {
        fp.word(v.to_bits());
    }
    fp.word(labels.len() as u64);
    for pair in labels.chunks(2) {
        let hi = pair.get(1).map_or(u64::from(u32::MAX), |&l| u64::from(l));
        fp.word(u64::from(pair[0]) | hi << 32);
    }
    fp.finish()
}

/// Two-lane word-at-a-time hash state behind [`fit_key`].
struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31);
        self.b = (self.b.rotate_left(23) ^ w).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    }

    fn finish(self) -> u128 {
        fn fmix64(mut h: u64) -> u64 {
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            h ^ (h >> 33)
        }
        (u128::from(fmix64(self.a ^ self.b.rotate_left(17))) << 64) | u128::from(fmix64(self.b))
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

    fn fitted_models(cache: &PrefixCache) -> usize {
        lock(&cache.store.fits).len()
    }

    fn tiny_fit() -> (Matrix, Vec<u32>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.5],
            vec![2.0, 0.0],
            vec![3.0, 2.5],
        ]);
        (x, vec![0, 0, 1, 1])
    }

    /// An untrained handle over `tiny_fit`'s input.
    fn tiny_handle() -> LazyFit {
        use lucid_frame::{Column, DataFrame};
        let x = DataFrame::from_columns(vec![
            (
                "a",
                Column::from_floats(vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0)]),
            ),
            (
                "b",
                Column::from_floats(vec![Some(1.0), Some(0.5), Some(0.0), Some(2.5)]),
            ),
        ])
        .unwrap();
        let y = Column::from_ints(vec![Some(0), Some(0), Some(1), Some(1)]);
        LazyFit {
            classifier: crate::sklearn::Classifier::LogReg(lucid_ml::LogisticRegression::default()),
            inputs: crate::sklearn::ModelInputs { x, y: Arc::new(y) },
            model: std::sync::OnceLock::new(),
        }
    }

    #[test]
    fn fit_memo_shares_one_handle_per_key_and_counts_per_view() {
        let store = PrefixCache::with_capacity(8);
        let (reg_a, reg_b) = (Registry::new(), Registry::new());
        let (a, b) = (store.view(&reg_a), store.view(&reg_b));
        let (x, y) = tiny_fit();
        let key = fit_key(&[1, 200], &x, &y);
        let first = a.fit_handle(key, tiny_handle());
        let second = b.fit_handle(key, tiny_handle());
        assert!(Arc::ptr_eq(&first, &second));
        // Neither the fits nor the debug build's check on the hit trained.
        assert!(first.model.get().is_none());
        let fit_counts = |reg: &Registry| {
            (
                reg.counter_value(Metric::FitMemoHits),
                reg.counter_value(Metric::FitMemoMisses),
            )
        };
        assert_eq!(fit_counts(&reg_a), (0, 1));
        assert_eq!(fit_counts(&reg_b), (1, 0));
        assert_eq!((store.fit_hits(), store.fit_misses()), (0, 0));
        assert_eq!(fitted_models(&store), 1);
    }

    #[test]
    fn fit_memo_keeps_no_handle_alive() {
        let cache = PrefixCache::with_capacity(8);
        let (x, y) = tiny_fit();
        let key = fit_key(&[1, 200], &x, &y);
        let first = cache.fit_handle(key, tiny_handle());
        let labels = Arc::downgrade(&first.inputs.y);
        // The memo's entry is not an owner: the caller holds the only one.
        assert_eq!(Arc::strong_count(&first), 1);
        drop(first);
        // Dropping the last holder freed the training input, and the next
        // fit of the same input makes a new handle.
        assert!(labels.upgrade().is_none());
        let second = cache.fit_handle(key, tiny_handle());
        assert_eq!((cache.fit_hits(), cache.fit_misses()), (0, 2));
        let third = cache.fit_handle(key, tiny_handle());
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!((cache.fit_hits(), cache.fit_misses()), (1, 2));
        assert_eq!(fitted_models(&cache), 1);
    }

    #[test]
    fn fit_memo_respects_zero_capacity() {
        let off = PrefixCache::with_capacity(0);
        let (x, y) = tiny_fit();
        let key = fit_key(&[1], &x, &y);
        let first = off.fit_handle(key, tiny_handle());
        let second = off.fit_handle(key, tiny_handle());
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(
            (off.fit_hits(), off.fit_misses(), fitted_models(&off)),
            (0, 2, 0)
        );
    }

    #[test]
    fn fit_keys_cover_parameters_shape_bits_and_labels() {
        let (x, y) = tiny_fit();
        let base = fit_key(&[1, 200], &x, &y);
        assert_eq!(base, fit_key(&[1, 200], &x.clone(), &y.clone()));
        assert_ne!(base, fit_key(&[1, 201], &x, &y));
        assert_ne!(base, fit_key(&[2, 200], &x, &y));
        assert_ne!(base, fit_key(&[1, 200], &x, &[0, 1, 1, 1]));
        // Same buffer, other shape.
        let reshaped = Matrix::from_vec(2, 4, x.as_slice().to_vec());
        assert_ne!(base, fit_key(&[1, 200], &reshaped, &y));
        // Signed zero is a different bit pattern, hence a different key.
        let mut bits = x.as_slice().to_vec();
        bits[0] = -0.0;
        assert_ne!(base, fit_key(&[1, 200], &Matrix::from_vec(4, 2, bits), &y));
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
