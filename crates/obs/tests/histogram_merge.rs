//! Property tests for histogram / registry merging — the roll-up
//! primitive per-search registries use to feed a process-wide one.

use lucid_obs::{Histogram, Metric, Registry, Timings};
use proptest::collection::vec;
use proptest::prelude::*;

fn hist_from(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record_ns(v);
    }
    h
}

fn merged(parts: &[&Histogram]) -> Histogram {
    let m = Histogram::new();
    for p in parts {
        m.merge_from(p);
    }
    m
}

/// Observations spanning sub-µs to multi-second buckets.
fn obs_vec(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    vec(1u64..4_000_000_000, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counts, sums, maxima, and every bucket merge exactly —
    /// commutatively and associatively.
    #[test]
    fn merge_is_commutative_and_associative_on_counts(
        a in obs_vec(40),
        b in obs_vec(40),
        c in obs_vec(40),
    ) {
        let (ha, hb, hc) = (hist_from(&a), hist_from(&b), hist_from(&c));

        let ab = merged(&[&ha, &hb]);
        let ba = merged(&[&hb, &ha]);
        prop_assert_eq!(ab.bucket_counts(), ba.bucket_counts());
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.max_ms(), ba.max_ms());
        prop_assert_eq!(ab.sum_ms(), ba.sum_ms());

        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let left = merged(&[&ab, &hc]);
        let bc = merged(&[&hb, &hc]);
        let right = merged(&[&ha, &bc]);
        prop_assert_eq!(left.bucket_counts(), right.bucket_counts());
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.max_ms(), right.max_ms());

        // The merge equals recording the union directly.
        let mut union = a.clone();
        union.extend_from_slice(&b);
        union.extend_from_slice(&c);
        let direct = hist_from(&union);
        prop_assert_eq!(left.bucket_counts(), direct.bucket_counts());
        prop_assert_eq!(left.count(), direct.count());
        prop_assert_eq!(left.max_ms(), direct.max_ms());
        prop_assert_eq!(left.sum_ms(), direct.sum_ms());
    }

    /// A merged histogram's percentiles stay bounded by its inputs': the
    /// quantile of a mixture lies between the component quantiles, up to
    /// the histogram's one-log₂-bucket resolution. The max is exact.
    #[test]
    fn merged_percentiles_bounded_by_inputs(
        a in vec(1u64..4_000_000_000, 1..40),
        b in vec(1u64..4_000_000_000, 1..40),
    ) {
        let (ha, hb) = (hist_from(&a), hist_from(&b));
        let m = merged(&[&ha, &hb]);

        for q in [0.5, 0.9, 0.99] {
            let (pa, pb) = (ha.percentile_ns(q), hb.percentile_ns(q));
            let pm = m.percentile_ns(q);
            let lo = pa.min(pb);
            let hi = pa.max(pb);
            prop_assert!(
                pm >= lo / 2 && pm <= hi.saturating_mul(2),
                "q={q}: merged {pm} outside bucket-resolution bounds [{}/2, {}*2]",
                lo, hi
            );
        }

        let true_max = *a.iter().chain(b.iter()).max().unwrap();
        prop_assert_eq!(m.percentiles().max_ns, true_max);
        prop_assert_eq!(m.count(), (a.len() + b.len()) as u64);
    }

    /// Registry::merge rolls up counters additively and histograms
    /// bucket-wise, in any merge order.
    #[test]
    fn registry_merge_rolls_up_in_any_order(
        xs in vec(1u64..1_000_000, 1..20),
        ys in vec(1u64..1_000_000, 1..20),
    ) {
        let a = Registry::new();
        let b = Registry::new();
        for &x in &xs {
            a.counter(Metric::Steps).add(1);
            a.histogram(Metric::GetSteps).record_ns(x);
        }
        for &y in &ys {
            b.counter(Metric::Steps).add(1);
            b.counter(Metric::CacheHits).add(y % 3);
            b.histogram(Metric::GetSteps).record_ns(y);
        }

        let into_a = Registry::new();
        into_a.merge(&a);
        into_a.merge(&b);
        let into_b = Registry::new();
        into_b.merge(&b);
        into_b.merge(&a);

        prop_assert_eq!(
            into_a.counter_value(Metric::Steps),
            (xs.len() + ys.len()) as u64
        );
        prop_assert_eq!(
            into_a.counter_value(Metric::Steps),
            into_b.counter_value(Metric::Steps)
        );
        prop_assert_eq!(
            into_a.counter_value(Metric::CacheHits),
            into_b.counter_value(Metric::CacheHits)
        );
        prop_assert_eq!(
            into_a.histogram_count(Metric::GetSteps),
            (xs.len() + ys.len()) as u64
        );
        prop_assert_eq!(
            into_a.histogram_sum_ms(Metric::GetSteps),
            into_b.histogram_sum_ms(Metric::GetSteps)
        );
    }

    /// Merging registries and folding their projections agree: the
    /// metric table's fold column is the one roll-up rule, so gauges take
    /// the max on both paths and every other counter adds.
    #[test]
    fn merged_projection_equals_accumulated_projections(
        xs in vec(0u64..(1 << 40), Metric::ALL.len()),
        ys in vec(0u64..(1 << 40), Metric::ALL.len()),
    ) {
        let fill = |values: &[u64]| {
            let reg = Registry::new();
            for (&metric, &v) in Metric::ALL.iter().zip(values) {
                reg.counter(metric).add(v);
            }
            reg
        };
        let (a, b) = (fill(&xs), fill(&ys));
        let fleet = Registry::new();
        fleet.merge(&a);
        fleet.merge(&b);
        let mut folded = Timings::from_registry(&a);
        folded.accumulate(&Timings::from_registry(&b));
        // Only counters were filled, so the f64 rows (histogram sums)
        // read zero on both sides and this compares every integer field.
        prop_assert_eq!(Timings::from_registry(&fleet), folded);
    }
}

#[test]
fn merged_snapshot_lists_every_counter_zeros_included() {
    let search = Registry::new();
    search.counter(Metric::Steps).add(3);
    search.counter(Metric::CacheEvictions).add(0);
    search.counter(Metric::Panicked).add(0);
    search.counter(Metric::BudgetFuel).add(0);
    let fleet = Registry::new();
    fleet.merge(&search);
    let names = |reg: &Registry| -> Vec<(String, u64)> {
        reg.snapshot()
            .counters
            .into_iter()
            .map(|c| (c.name, c.value))
            .collect()
    };
    assert_eq!(names(&fleet), names(&search));
    assert_eq!(fleet.snapshot().counters.len(), 4);
}
