//! The metrics registry: named atomic counters and log-bucketed
//! histograms.
//!
//! Handles ([`Counter`], [`Histogram`]) are fetched once per search
//! (taking a short registry lock) and then updated lock-free, so the hot
//! path — one `record_ns` per phase per step, one `add` per scored
//! candidate — costs a few atomic RMW operations. Values are kept in
//! integer nanoseconds; projecting to milliseconds happens only at
//! report time.

use crate::timings::Metric;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing (or max-tracking) atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if `v` is larger (gauge-style peaks).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of logarithmic buckets: bucket `i` holds values whose highest
/// set bit is `i`, i.e. durations in `[2^i, 2^{i+1})` ns. 40 buckets cover
/// up to ~18 minutes — far beyond any single search phase.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log₂-bucketed histogram of durations in nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Largest observation, in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Mean observation, in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ms() / n as f64
        }
    }

    /// Per-bucket observation counts (bucket `i` = `[2^i, 2^{i+1})` ns).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) in nanoseconds from
    /// the log₂ buckets, linearly interpolating inside the bucket the
    /// nearest-rank observation falls in. The estimate is therefore exact
    /// to within one bucket (a factor ≤ 2), which is the resolution the
    /// histogram trades for its lock-free hot path. Clamped to the exact
    /// recorded maximum; 0 when the histogram is empty.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let n = self.count.load(Ordering::Relaxed);
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = 1u64 << i;
                let hi = 1u64 << (i + 1);
                let into = (rank - cum) as f64 / c as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                return (est as u64).clamp(1, max_ns.max(1));
            }
            cum += c;
        }
        max_ns
    }

    /// The p50/p90/p99/max summary of this histogram.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            count: self.count(),
            p50_ns: self.percentile_ns(0.50),
            p90_ns: self.percentile_ns(0.90),
            p99_ns: self.percentile_ns(0.99),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Resets every bucket and aggregate to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    /// Folds `other` into `self`: buckets, counts, and sums add; the max
    /// takes the larger side. Merging is commutative and associative on
    /// every aggregate, so per-search histograms roll up into a
    /// process-wide one in any order.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Percentile summary of one histogram (see [`Histogram::percentiles`]).
/// Values are integer nanoseconds, like the histogram itself; the `*_ms`
/// accessors project for display.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Percentiles {
    /// Observation count.
    pub count: u64,
    /// Median estimate (within one log₂ bucket).
    pub p50_ns: u64,
    /// 90th-percentile estimate.
    pub p90_ns: u64,
    /// 99th-percentile estimate.
    pub p99_ns: u64,
    /// Exact largest observation.
    pub max_ns: u64,
}

impl Percentiles {
    /// Median in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_ns as f64 / 1e6
    }

    /// 90th percentile in milliseconds.
    pub fn p90_ms(&self) -> f64 {
        self.p90_ns as f64 / 1e6
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99_ns as f64 / 1e6
    }

    /// Maximum in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }
}

/// A named collection of counters and histograms.
///
/// Metrics are named by [`Metric`] handles, each a dot-path name such as
/// `search.get_steps`; the span collector keys its histograms by span
/// name (`interp.run`, `stmt.*`, `kernel.*`). Fetching a handle
/// takes the registry lock once; updates through the returned [`Arc`] are
/// lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter of `metric`, created on first use.
    pub fn counter(&self, metric: Metric) -> Arc<Counter> {
        self.counter_named(metric.name())
    }

    /// The histogram of `metric`, created on first use.
    pub fn histogram(&self, metric: Metric) -> Arc<Histogram> {
        self.histogram_named(metric.name())
    }

    /// The counter named `name`, created on first use.
    pub(crate) fn counter_named(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("registry lock")
                .entry(name)
                .or_default(),
        )
    }

    /// The histogram named `name` (a [`Metric`] name or a span name),
    /// created on first use.
    pub(crate) fn histogram_named(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("registry lock")
                .entry(name)
                .or_default(),
        )
    }

    /// A counter's current value (0 when the counter was never created).
    pub fn counter_value(&self, metric: Metric) -> u64 {
        self.counters
            .lock()
            .expect("registry lock")
            .get(metric.name())
            .map_or(0, |c| c.get())
    }

    /// A histogram's sum in ms (0 when the histogram was never created).
    pub fn histogram_sum_ms(&self, name: &str) -> f64 {
        self.histograms
            .lock()
            .expect("registry lock")
            .get(name)
            .map_or(0.0, |h| h.sum_ms())
    }

    /// A histogram's observation count (0 when never created).
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .lock()
            .expect("registry lock")
            .get(name)
            .map_or(0, |h| h.count())
    }

    /// Percentile summaries of every histogram with at least one
    /// observation, name-sorted (the map is a `BTreeMap`).
    pub fn histogram_percentiles(&self) -> Vec<(String, Percentiles)> {
        self.histograms
            .lock()
            .expect("registry lock")
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| ((*name).to_string(), h.percentiles()))
            .collect()
    }

    /// Zeroes every metric, keeping existing handles valid.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("registry lock").values() {
            c.reset();
        }
        for h in self.histograms.lock().expect("registry lock").values() {
            h.reset();
        }
    }

    /// Folds every metric of `other` into `self`: counter values add
    /// (for max-style gauges like cache peaks the sum is an upper bound
    /// across searches, the usual fleet aggregation), histograms merge
    /// bucket-wise via [`Histogram::merge_from`]. This is the roll-up
    /// primitive: per-search registries merge into a process-wide one at
    /// search end. Values are copied out of `other` before touching
    /// `self`, so the two registries' locks are never held together.
    pub fn merge(&self, other: &Registry) {
        let counters: Vec<(&'static str, u64)> = other
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, c)| (*name, c.get()))
            .collect();
        // Zeros too: a snapshot lists every counter a search recorded,
        // not only the ones that have moved so far.
        for (name, v) in counters {
            self.counter_named(name).add(v);
        }
        let histograms: Vec<(&'static str, Arc<Histogram>)> = other
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, h)| (*name, Arc::clone(h)))
            .collect();
        for (name, h) in histograms {
            self.histogram_named(name).merge_from(&h);
        }
    }

    /// A serializable point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(name, c)| CounterSnapshot {
                    name: (*name).to_string(),
                    value: c.get(),
                })
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(name, h)| HistogramSnapshot {
                    name: (*name).to_string(),
                    count: h.count(),
                    sum_ms: h.sum_ms(),
                    max_ms: h.max_ms(),
                })
                .collect(),
        }
    }
}

/// One counter in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram in a [`RegistrySnapshot`] (aggregates only — buckets are
/// an in-process detail).
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum in milliseconds.
    pub sum_ms: f64,
    /// Largest observation in milliseconds.
    pub max_ms: f64,
}

/// Serializable view of a [`Registry`].
#[derive(Debug, Clone, Serialize)]
pub struct RegistrySnapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_max_reset() {
        let reg = Registry::new();
        let c = reg.counter(Metric::CacheHits);
        c.add(2);
        c.add(3);
        assert_eq!(reg.counter_value(Metric::CacheHits), 5);
        // Same metric, same counter.
        reg.counter(Metric::CacheHits).add(1);
        assert_eq!(c.get(), 6);
        c.set_max(4);
        assert_eq!(c.get(), 6);
        c.set_max(10);
        assert_eq!(c.get(), 10);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(reg.counter_value(Metric::CacheMisses), 0);
    }

    #[test]
    fn histogram_buckets_and_aggregates() {
        let h = Histogram::new();
        h.record_ns(1); // bucket 0
        h.record_ns(1024); // bucket 10
        h.record_ns(1500); // bucket 10
        h.record_ns(0); // clamped to 1 → bucket 0
        assert_eq!(h.count(), 4);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 2);
        assert_eq!(buckets[10], 2);
        assert!((h.sum_ms() - 2525.0 / 1e6).abs() < 1e-12);
        assert!((h.max_ms() - 1500.0 / 1e6).abs() < 1e-12);
        assert!(h.mean_ms() > 0.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_ms(), 0.0);
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = Histogram::new();
        h.record_ns(u64::MAX);
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 1);
        assert!((h.max_ms() - u64::MAX as f64 / 1e6).abs() < 1.0);
        h.record(Duration::from_millis(2));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_is_serializable_and_sorted() {
        let reg = Registry::new();
        reg.counter(Metric::CacheMisses).add(1);
        reg.counter(Metric::CacheHits).add(2);
        reg.histogram(Metric::GetSteps).record_ns(5_000_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "cache.hits");
        assert_eq!(snap.counters[1].value, 1);
        assert_eq!(snap.histograms[0].count, 1);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"cache.hits\""));
        assert!(json.contains("sum_ms"));
    }

    /// The percentile estimate's contract: within one log₂ bucket of the
    /// true quantile, i.e. inside `[true/2, true*2]`.
    fn assert_within_bucket(estimate: u64, truth: u64, label: &str) {
        assert!(
            estimate >= truth / 2 && estimate <= truth.saturating_mul(2),
            "{label}: estimate {estimate} ns not within a bucket of true {truth} ns"
        );
    }

    #[test]
    fn percentiles_of_uniform_distribution_within_bucket_error() {
        // 1..=1000 µs, one observation each: true p50 = 500 µs,
        // p90 = 900 µs, p99 = 990 µs, max = 1000 µs.
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record_ns(us * 1_000);
        }
        let p = h.percentiles();
        assert_eq!(p.count, 1000);
        assert_within_bucket(p.p50_ns, 500_000, "p50");
        assert_within_bucket(p.p90_ns, 900_000, "p90");
        assert_within_bucket(p.p99_ns, 990_000, "p99");
        assert_eq!(p.max_ns, 1_000_000); // max is exact, not bucketed
        assert!(p.p50_ns <= p.p90_ns && p.p90_ns <= p.p99_ns && p.p99_ns <= p.max_ns);
    }

    #[test]
    fn percentiles_of_constant_distribution_collapse() {
        let h = Histogram::new();
        for _ in 0..64 {
            h.record_ns(2_000_000); // 2 ms
        }
        let p = h.percentiles();
        assert_within_bucket(p.p50_ns, 2_000_000, "p50");
        assert_within_bucket(p.p99_ns, 2_000_000, "p99");
        // Every estimate is clamped by the exact max.
        assert!(p.p50_ns <= p.max_ns && p.p99_ns <= p.max_ns);
        assert_eq!(p.max_ns, 2_000_000);
    }

    #[test]
    fn percentiles_of_bimodal_distribution_find_the_tail() {
        // 90 fast observations (~10 µs) and 10 slow ones (~10 ms): the
        // median sits in the fast mode, p99 in the slow mode.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(10_000);
        }
        for _ in 0..10 {
            h.record_ns(10_000_000);
        }
        let p = h.percentiles();
        assert_within_bucket(p.p50_ns, 10_000, "p50");
        assert_within_bucket(p.p99_ns, 10_000_000, "p99");
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentiles(), Percentiles::default());
        assert_eq!(h.percentile_ns(0.5), 0);
        // Out-of-range quantiles clamp instead of panicking.
        let h = Histogram::new();
        h.record_ns(1_000);
        assert!(h.percentile_ns(-1.0) >= 1);
        assert_eq!(h.percentile_ns(2.0), h.percentile_ns(1.0));
        assert!((Percentiles { p50_ns: 1_500_000, ..Default::default() }.p50_ms() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn registry_percentiles_skip_empty_histograms() {
        let reg = Registry::new();
        reg.histogram_named("b.phase").record_ns(1_000_000);
        reg.histogram_named("a.phase").record_ns(2_000_000);
        let _never_recorded = reg.histogram_named("z.phase");
        let rows = reg.histogram_percentiles();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "a.phase");
        assert_eq!(rows[1].0, "b.phase");
        assert_eq!(rows[0].1.count, 1);
        assert_eq!(rows[0].1.max_ns, 2_000_000);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let reg = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = std::sync::Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter(Metric::InternHits);
                let h = reg.histogram_named("lat");
                for _ in 0..1000 {
                    c.add(1);
                    h.record_ns(100);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.counter_value(Metric::InternHits), 4000);
        assert_eq!(reg.histogram_count("lat"), 4000);
    }
}
