//! Property tests on the dataframe engine's core invariants.

// The per-cell oracles are what these properties compare against.
#![allow(clippy::disallowed_methods)]

use lucid_frame::csv::{read_csv_str, write_csv_str};
use lucid_frame::frame::StatFill;
use lucid_frame::ops::{self, CmpOp, Operand};
use lucid_frame::{BoolMask, Column, DataFrame, Value};
use proptest::prelude::*;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn int_column(len: usize) -> impl Strategy<Value = Column> {
    prop::collection::vec(prop::option::of(-500i64..500), len..=len)
        .prop_map(Column::from_ints)
}

fn small_frame() -> impl Strategy<Value = DataFrame> {
    (1usize..30).prop_flat_map(|n| {
        (
            int_column(n),
            prop::collection::vec(prop::option::of("[a-z]{1,4}"), n..=n),
            prop::collection::vec(prop::option::of(-50.0f64..50.0), n..=n),
        )
            .prop_map(|(a, b, c)| {
                DataFrame::from_columns(vec![
                    ("a", a),
                    ("b", Column::from_strs(b)),
                    ("c", Column::from_floats(c)),
                ])
                .expect("distinct names, equal lengths")
            })
    })
}

proptest! {
    #[test]
    fn filter_preserves_selected_rows(df in small_frame(), bits in prop::collection::vec(any::<bool>(), 0..30)) {
        let mut mask_bits = bits;
        mask_bits.resize(df.n_rows(), false);
        let mask = BoolMask::new(mask_bits.clone());
        let filtered = df.filter(&mask).expect("lengths match");
        prop_assert_eq!(filtered.n_rows(), mask.count_true());
        // Row contents survive in order.
        let kept: Vec<usize> = mask.true_indices();
        for (new_i, &old_i) in kept.iter().enumerate() {
            prop_assert_eq!(filtered.row(new_i).unwrap(), df.row(old_i).unwrap());
        }
    }

    #[test]
    fn fillna_mean_never_increases_nulls_and_is_idempotent(df in small_frame()) {
        let filled = df.fill_na_stat(StatFill::Mean);
        prop_assert!(filled.total_null_count() <= df.total_null_count());
        // Numeric columns with at least one value are fully imputed.
        for (name, col) in df.iter() {
            if col.is_numeric() && col.null_count() < col.len() {
                prop_assert_eq!(filled.column(name).unwrap().null_count(), 0);
            }
        }
        let twice = filled.fill_na_stat(StatFill::Mean);
        prop_assert_eq!(filled, twice);
    }

    #[test]
    fn drop_na_leaves_no_nulls_and_is_idempotent(df in small_frame()) {
        let dropped = df.drop_na();
        prop_assert_eq!(dropped.total_null_count(), 0);
        prop_assert_eq!(dropped.drop_na(), dropped.clone());
        prop_assert!(dropped.n_rows() <= df.n_rows());
    }

    #[test]
    fn drop_duplicates_is_idempotent_and_value_preserving(df in small_frame()) {
        let dedup = df.drop_duplicates();
        prop_assert_eq!(dedup.drop_duplicates(), dedup.clone());
        // Jaccard over cell values must be 1: dedup removes rows, not values.
        prop_assert!(lucid_frame::value_jaccard(&df, &dedup) > 1.0 - 1e-12);
    }

    #[test]
    fn csv_roundtrip_preserves_frames(df in small_frame()) {
        // Cast everything to string-compatible forms first: CSV cannot
        // distinguish Int from Float textual forms in all cases, so round
        // trip through write → read → write and require stability.
        let once = write_csv_str(&df);
        let back = read_csv_str(&once).expect("own output parses");
        let twice = write_csv_str(&back);
        prop_assert_eq!(once, twice);
        prop_assert_eq!(back.shape(), df.shape());
    }

    #[test]
    fn comparison_masks_have_no_null_hits(col in int_column(25), needle in -500i64..500) {
        let m = ops::compare(&col, CmpOp::Ge, &Operand::Scalar(Value::Int(needle))).unwrap();
        let inverse = ops::compare(&col, CmpOp::Lt, &Operand::Scalar(Value::Int(needle))).unwrap();
        // Ge and Lt partition the non-null values.
        for i in 0..col.len() {
            let v = col.get(i).unwrap();
            if v.is_null() {
                prop_assert!(!m.bits()[i] && !inverse.bits()[i]);
            } else {
                prop_assert!(m.bits()[i] ^ inverse.bits()[i]);
            }
        }
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded(a in small_frame(), b in small_frame()) {
        let ab = lucid_frame::value_jaccard(&a, &b);
        let ba = lucid_frame::value_jaccard(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((lucid_frame::value_jaccard(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn get_dummies_produces_binary_columns(df in small_frame()) {
        let enc = df.get_dummies(None, false).expect("encodes");
        prop_assert_eq!(enc.n_rows(), df.n_rows());
        for (name, col) in enc.iter() {
            if name.starts_with("b_") {
                for v in lucid_frame::naive::naive_values(col) {
                    prop_assert!(v == Value::Int(0) || v == Value::Int(1));
                }
            }
        }
        // Re-encoding is a no-op (no string columns remain).
        let twice = enc.get_dummies(None, false).expect("encodes");
        prop_assert_eq!(enc, twice);
    }

    #[test]
    fn sample_is_a_subset_without_replacement(df in small_frame(), seed in any::<u64>()) {
        let n = df.n_rows() / 2;
        if n == 0 { return Ok(()); }
        let sampled = df.sample(n, seed).expect("n <= rows");
        prop_assert_eq!(sampled.n_rows(), n);
        // Every sampled row exists in the original (multiset containment
        // via counting row keys).
        let mut counts = std::collections::HashMap::new();
        for i in 0..df.n_rows() {
            *counts.entry(df.row_key(i).unwrap()).or_insert(0i64) += 1;
        }
        for i in 0..sampled.n_rows() {
            let k = sampled.row_key(i).unwrap();
            let c = counts.get_mut(&k).expect("sampled row exists");
            *c -= 1;
            prop_assert!(*c >= 0, "row sampled more often than it exists");
        }
    }

    #[test]
    fn column_stats_are_consistent(col in int_column(40)) {
        if col.null_count() == col.len() { return Ok(()); }
        let mean = col.mean().unwrap();
        let min = col.min().unwrap().as_f64().unwrap();
        let max = col.max().unwrap().as_f64().unwrap();
        prop_assert!(min <= mean && mean <= max);
        let med = col.median().unwrap();
        prop_assert!(min <= med && med <= max);
        let q0 = col.quantile(0.0).unwrap();
        let q100 = col.quantile(1.0).unwrap();
        prop_assert!((q0 - min).abs() < 1e-9);
        prop_assert!((q100 - max).abs() < 1e-9);
    }

    #[test]
    fn value_keys_agree_with_loose_eq(a in value(), b in value()) {
        if a.loose_eq(&b) {
            prop_assert_eq!(a.key(), b.key());
        }
    }
}
