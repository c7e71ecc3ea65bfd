//! Table-similarity measures used for the paper's Δ_J user-intent
//! constraint (Section 2.1).
//!
//! The paper's Example 2.1 computes the Jaccard index over the *sets of
//! distinct cell values* emitted by the two scripts; [`value_jaccard`]
//! implements exactly that.
//!
//! It runs columnar: value sets are built from typed buffers (string
//! columns contribute each referenced dictionary entry exactly once).

use crate::column::Column;
use crate::frame::DataFrame;
use crate::value::ValueKey;
use std::collections::HashSet;

/// Inserts every distinct non-null cell of `col` into `set` as its
/// canonical key. Strings are keyed once per referenced pool entry.
fn insert_column_values(set: &mut HashSet<ValueKey>, col: &Column) {
    match col {
        Column::Int(b) => {
            for i in 0..b.len() {
                if let Some(x) = b.get(i) {
                    set.insert(ValueKey::of_i64(x));
                }
            }
        }
        Column::Float(b) => {
            for i in 0..b.len() {
                if let Some(x) = b.get(i) {
                    set.insert(ValueKey::of_f64(x));
                }
            }
        }
        Column::Bool(b) => {
            for i in 0..b.len() {
                if let Some(x) = b.get(i) {
                    set.insert(ValueKey::of_bool(x));
                }
            }
        }
        Column::Str(d) => {
            let mut seen = vec![false; d.pool().len()];
            for i in 0..d.len() {
                if d.validity().get(i) {
                    let c = d.codes()[i] as usize;
                    if !seen[c] {
                        seen[c] = true;
                        set.insert(ValueKey::of_str(&d.pool()[c]));
                    }
                }
            }
        }
    }
}

/// Set of distinct non-null cell values in a frame: the union of every
/// column's values. Column names are not included, so renaming a column
/// leaves the set (and Δ_J) unchanged.
fn value_set(df: &DataFrame) -> HashSet<ValueKey> {
    let mut set = HashSet::new();
    for (_, col) in df.iter() {
        insert_column_values(&mut set, col);
    }
    set
}

/// Jaccard similarity between the distinct-cell-value sets of two tables
/// (Δ_J in the paper). Ranges over `[0, 1]`; `1.0` means identical value
/// sets; two empty tables are defined to be identical (`1.0`).
pub fn value_jaccard(a: &DataFrame, b: &DataFrame) -> f64 {
    let sa = value_set(a);
    let sb = value_set(b);
    jaccard_of_sets(&sa, &sb)
}

fn jaccard_of_sets<T: std::hash::Hash + Eq>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn strings(vals: &[&str]) -> DataFrame {
        DataFrame::from_columns(vec![(
            "risk",
            Column::from_strs(vals.iter().map(|s| Some((*s).to_string())).collect()),
        )])
        .unwrap()
    }

    #[test]
    fn paper_example_2_1() {
        // D_OUT(s_u) = {'benign', 'Benign', 'High Risk', 'High risk', 'high risk'}
        // D_OUT(ŝ_u) = {'benign', 'high risk'}; Jaccard = 2/5 = 0.4.
        let su = strings(&["benign", "Benign", "High Risk", "High risk", "high risk"]);
        let hat = strings(&["benign", "high risk"]);
        assert!((value_jaccard(&su, &hat) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn identical_tables_score_one() {
        let df = strings(&["a", "b"]);
        assert_eq!(value_jaccard(&df, &df), 1.0);
    }

    #[test]
    fn disjoint_tables_score_zero() {
        let a = strings(&["x"]);
        let b = strings(&["y"]);
        assert_eq!(value_jaccard(&a, &b), 0.0);
    }

    #[test]
    fn empty_tables_are_identical() {
        let a = DataFrame::new();
        assert_eq!(value_jaccard(&a, &a), 1.0);
    }

    #[test]
    fn nulls_do_not_count_as_values() {
        let a = DataFrame::from_columns(vec![("x", Column::from_ints(vec![Some(1), None]))])
            .unwrap();
        let b = DataFrame::from_columns(vec![("x", Column::from_ints(vec![Some(1)]))]).unwrap();
        assert_eq!(value_jaccard(&a, &b), 1.0);
    }

    #[test]
    fn renaming_a_column_keeps_the_value_set() {
        let a = DataFrame::from_columns(vec![("x", Column::from_ints(vec![Some(1)]))]).unwrap();
        let renamed = a.rename(&[("x", "y")]).unwrap();
        assert_eq!(value_jaccard(&a, &renamed), 1.0);
    }

    #[test]
    fn numeric_types_unify() {
        let a = DataFrame::from_columns(vec![("x", Column::from_ints(vec![Some(1)]))]).unwrap();
        let b = DataFrame::from_columns(vec![("x", Column::from_floats(vec![Some(1.0)]))])
            .unwrap();
        assert_eq!(value_jaccard(&a, &b), 1.0);
    }

    #[test]
    fn stale_pool_entries_do_not_leak_into_value_sets() {
        // Filtering a dictionary column keeps the pool; unreferenced
        // entries must not appear as values.
        let df = strings(&["keep", "drop"]);
        let mask = crate::mask::BoolMask::new(vec![true, false]);
        let filtered = df.filter(&mask).unwrap();
        let expected = strings(&["keep"]);
        assert_eq!(value_jaccard(&filtered, &expected), 1.0);
    }
}
