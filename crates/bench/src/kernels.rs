//! Kernel micro-suite behind `lucid bench --kernels`.
//!
//! These workloads time a single frame kernel (fillna, get_dummies,
//! astype, compare, arith, groupby-agg, value-Jaccard) over deterministic
//! ~100k-row synthetic columns — the hot loops the columnar layout
//! (null-bitmap buffers, dictionary-encoded strings) was built for, and
//! too small for the end-to-end benchmark to resolve. Results are
//! recorded as [`WorkloadResult`]s named `kernel-<family>` with parameters
//! `rows=<KERNEL_ROWS>`, each carrying a single `total_ms` row, so the
//! trajectory file and the regression gate need no new cases.

use crate::trajectory::{BenchEntry, Stat, WorkloadResult, MS};
use lucid_frame::groupby::{group_agg, AggFn};
use lucid_frame::ops::{arith, compare, ArithOp, CmpOp, Operand};
use lucid_frame::{value_jaccard, Column, DType, DataFrame, Value};
use std::time::Instant;

/// Rows per synthetic column. Large enough that per-row constant factors
/// dominate, small enough that the whole suite stays in check.sh range.
pub const KERNEL_ROWS: usize = 100_000;

/// One kernel micro-workload: a stable name plus a runner that builds
/// its inputs once and times only the kernel call.
#[derive(Debug, Clone, Copy)]
pub struct KernelWorkload {
    /// Stable name (`kernel-<family>`), the cross-entry join key.
    pub name: &'static str,
    /// Runs the kernel once over prebuilt inputs; returns a checksum-ish
    /// value that keeps the work observable (and the optimizer honest).
    run: fn(&KernelData) -> f64,
}

/// splitmix64 — the deterministic generator behind every synthetic
/// column (same construction the corpus generators use).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Prebuilt inputs shared by all kernel workloads: built once per suite
/// run from a fixed seed, outside the timed region.
pub struct KernelData {
    /// Float column, ~10% nulls.
    floats: Column,
    /// Int column, ~10% nulls.
    ints: Column,
    /// Low-cardinality string column (8 categories), ~10% nulls.
    cats: Column,
    /// Numeric-looking string column (dictionary of 1000 distinct).
    numstrs: Column,
    /// Two-column frame for groupby and Jaccard.
    frame: DataFrame,
    /// A second frame sharing ~half its values (Jaccard partner).
    other: DataFrame,
}

impl KernelData {
    /// Builds the shared inputs from a fixed seed.
    pub fn build() -> KernelData {
        let mut s: u64 = 0x5eed_cafe_f00d_0001;
        let n = KERNEL_ROWS;
        let mut floats = Vec::with_capacity(n);
        let mut ints = Vec::with_capacity(n);
        let mut cats = Vec::with_capacity(n);
        let mut numstrs = Vec::with_capacity(n);
        let cat_names = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"];
        for _ in 0..n {
            let r = splitmix64(&mut s);
            let null = r.is_multiple_of(10);
            floats.push(if null {
                None
            } else {
                Some((r % 10_000) as f64 / 16.0)
            });
            ints.push(if null { None } else { Some((r % 1_000) as i64) });
            cats.push(if null {
                None
            } else {
                Some(cat_names[(r % 8) as usize].to_string())
            });
            numstrs.push(Some(format!("{}", r % 1_000)));
        }
        let floats = Column::from_floats(floats);
        let ints = Column::from_ints(ints);
        let cats = Column::from_strs(cats);
        let numstrs = Column::from_strs(numstrs);
        let frame = DataFrame::from_columns(vec![
            ("cat", cats.clone()),
            ("amount", floats.clone()),
        ])
        .expect("equal lengths");
        // The partner shifts the numeric domain so roughly half the value
        // set overlaps — a mid-range Jaccard, not a degenerate 0 or 1.
        let mut s2: u64 = 0x5eed_cafe_f00d_0002;
        let mut floats2 = Vec::with_capacity(n);
        let mut cats2 = Vec::with_capacity(n);
        for _ in 0..n {
            let r = splitmix64(&mut s2);
            floats2.push(Some((r % 10_000 + 5_000) as f64 / 16.0));
            cats2.push(Some(cat_names[(r % 4) as usize].to_string()));
        }
        let other = DataFrame::from_columns(vec![
            ("cat", Column::from_strs(cats2)),
            ("amount", Column::from_floats(floats2)),
        ])
        .expect("equal lengths");
        KernelData {
            floats,
            ints,
            cats,
            numstrs,
            frame,
            other,
        }
    }
}

fn run_fillna(d: &KernelData) -> f64 {
    let filled = d.floats.fill_na(&Value::Float(0.0)).expect("float fill");
    filled.len() as f64
}

fn run_get_dummies(d: &KernelData) -> f64 {
    let out = d.frame.get_dummies(None, false).expect("dummies");
    out.n_cols() as f64
}

fn run_astype(d: &KernelData) -> f64 {
    let casted = d.numstrs.cast(DType::Float64).expect("numeric strings");
    casted.len() as f64
}

fn run_compare(d: &KernelData) -> f64 {
    let mask = compare(&d.floats, CmpOp::Gt, &Operand::Scalar(Value::Float(300.0)))
        .expect("numeric compare");
    mask.count_true() as f64
}

fn run_arith(d: &KernelData) -> f64 {
    let col = arith(&d.floats, ArithOp::Mul, &Operand::Column(&d.ints)).expect("numeric arith");
    col.len() as f64
}

fn run_groupby(d: &KernelData) -> f64 {
    let out = group_agg(&d.frame, &["cat"], "amount", AggFn::Mean).expect("groupby mean");
    out.n_rows() as f64
}

fn run_jaccard(d: &KernelData) -> f64 {
    value_jaccard(&d.frame, &d.other)
}

fn run_str_filter(d: &KernelData) -> f64 {
    let mask = compare(
        &d.cats,
        CmpOp::Eq,
        &Operand::Scalar(Value::Str("gamma".to_string())),
    )
    .expect("str compare");
    mask.count_true() as f64
}

/// The pinned kernel suite. Names are stable identifiers, same contract
/// as the search suite: renaming one orphans its trajectory history.
pub fn kernel_suite() -> Vec<KernelWorkload> {
    vec![
        KernelWorkload { name: "kernel-fillna", run: run_fillna },
        KernelWorkload { name: "kernel-get-dummies", run: run_get_dummies },
        KernelWorkload { name: "kernel-astype", run: run_astype },
        KernelWorkload { name: "kernel-compare", run: run_compare },
        KernelWorkload { name: "kernel-str-filter", run: run_str_filter },
        KernelWorkload { name: "kernel-arith", run: run_arith },
        KernelWorkload { name: "kernel-groupby", run: run_groupby },
        KernelWorkload { name: "kernel-jaccard", run: run_jaccard },
    ]
}

/// Runs one kernel workload `reps` times over prebuilt data and
/// summarizes it as a [`WorkloadResult`] with a single `total_ms` row (no
/// counters, no memory rows — a kernel call is too small for the
/// allocator's phase windows to say anything honest).
pub fn run_kernel_workload(w: &KernelWorkload, data: &KernelData, reps: usize) -> WorkloadResult {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    let mut sink = 0.0f64;
    for _ in 0..reps {
        let t = Instant::now();
        sink += (w.run)(data);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // The checksum keeps the kernel call from being optimized away and
    // catches NaN escapes: every kernel returns a finite observable.
    assert!(sink.is_finite(), "kernel {} produced non-finite output", w.name);
    WorkloadResult {
        name: w.name.to_string(),
        params: format!("rows={KERNEL_ROWS}"),
        reps,
        rows: vec![Stat::of("total_ms", MS, &samples)],
        counters: None,
    }
}

/// Appends the kernel-suite results to `entry`.
pub fn extend_with_kernels(entry: &mut BenchEntry, reps: usize) {
    let data = KernelData::build();
    for w in kernel_suite() {
        entry.workloads.push(run_kernel_workload(&w, &data, reps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_workloads_run_and_record_a_total_row() {
        let data = KernelData::build();
        for w in kernel_suite() {
            let r = run_kernel_workload(&w, &data, 2);
            assert_eq!(r.reps, 2);
            assert_eq!(r.params, "rows=100000");
            assert_eq!(r.rows.len(), 1, "{}", w.name);
            assert_eq!(
                (r.rows[0].name.as_str(), r.rows[0].unit.as_str()),
                ("total_ms", MS)
            );
            assert!(r.rows[0].median >= 0.0);
            assert!(r.counters.is_none());
        }
    }

    #[test]
    fn kernel_outputs_are_deterministic_and_sensible() {
        let data = KernelData::build();
        // ~10% nulls → fillna touches real gaps; groupby finds all 8 cats.
        assert_eq!(run_fillna(&data), KERNEL_ROWS as f64);
        assert_eq!(run_groupby(&data), 8.0);
        // get_dummies: cat expands to 8 indicator columns + amount.
        assert_eq!(run_get_dummies(&data), 9.0);
        let j = run_jaccard(&data);
        assert!(j > 0.0 && j < 1.0, "mid-range jaccard, got {j}");
        // Str-scalar compare goes through the pool fast path; the count
        // is a fixed fraction of rows (one of 8 uniform categories).
        let hits = run_str_filter(&data);
        assert!(hits > 0.0 && hits < KERNEL_ROWS as f64);
        assert_eq!(run_str_filter(&data), hits);
    }
}
