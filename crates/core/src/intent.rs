//! User-intent measures (Section 2.1): table Jaccard Δ_J and downstream
//! model performance Δ_M, used as the search's intent constraint — plus
//! the fairness measure the paper lists as future work (§8), implemented
//! here as the change in demographic-parity difference of the downstream
//! model's predictions.

use crate::error::{CoreError, Result};
use lucid_frame::ops::{compare, CmpOp, Operand};
use lucid_frame::{value_jaccard, DataFrame};
use lucid_ml::logreg::LogisticRegression;
use lucid_ml::metrics::demographic_parity_diff;
use lucid_ml::{encode_features, encode_labels, train_test_split};
use lucid_obs::Metric;

/// Fixed split seed so Δ_M is deterministic across candidates.
const SPLIT_SEED: u64 = 13;

/// How intent preservation is measured and thresholded.
#[derive(Debug, Clone, PartialEq)]
pub enum IntentMeasure {
    /// Table Jaccard Δ_J with threshold `tau ∈ [0, 1]`: the candidate
    /// satisfies intent when `Δ_J(D_out, D̂_out) ≥ tau`.
    Jaccard {
        /// Minimum allowed similarity.
        tau: f64,
    },
    /// Model performance Δ_M with threshold `tau_pct ∈ [0, 100]`: the
    /// candidate satisfies intent when the relative accuracy change of a
    /// downstream classifier predicting `target` stays within `tau_pct` %.
    ModelPerf {
        /// Maximum allowed |relative accuracy change| in percent.
        tau_pct: f64,
        /// Label column of the downstream task.
        target: String,
    },
    /// Fairness Δ_F (§8 extension): the candidate satisfies intent when
    /// the downstream model's demographic-parity difference across the
    /// protected `group` column changes by at most `tau` (absolute).
    Fairness {
        /// Maximum allowed |DPD change|.
        tau: f64,
        /// Label column of the downstream task.
        target: String,
        /// Protected-attribute column; rows are grouped by whether their
        /// value equals the column's most frequent value.
        group: String,
    },
}

impl IntentMeasure {
    /// Jaccard measure with threshold `tau`.
    pub fn jaccard(tau: f64) -> IntentMeasure {
        IntentMeasure::Jaccard { tau }
    }

    /// Model-performance measure with threshold `tau_pct`.
    pub fn model_perf(tau_pct: f64, target: impl Into<String>) -> IntentMeasure {
        IntentMeasure::ModelPerf {
            tau_pct,
            target: target.into(),
        }
    }

    /// Fairness measure with threshold `tau` on the DPD change.
    pub fn fairness(
        tau: f64,
        target: impl Into<String>,
        group: impl Into<String>,
    ) -> IntentMeasure {
        IntentMeasure::Fairness {
            tau,
            target: target.into(),
            group: group.into(),
        }
    }

    /// Validates the threshold ranges.
    ///
    /// # Errors
    ///
    /// Fails when τ is out of its documented range.
    pub fn validate(&self) -> Result<()> {
        match self {
            IntentMeasure::Jaccard { tau } if !(0.0..=1.0).contains(tau) => Err(
                CoreError::BadConfig(format!("Jaccard τ {tau} outside [0, 1]")),
            ),
            IntentMeasure::ModelPerf { tau_pct, .. } if !(0.0..=100.0).contains(tau_pct) => Err(
                CoreError::BadConfig(format!("model-perf τ {tau_pct}% outside [0, 100]")),
            ),
            IntentMeasure::Fairness { tau, .. } if !(0.0..=1.0).contains(tau) => Err(
                CoreError::BadConfig(format!("fairness τ {tau} outside [0, 1]")),
            ),
            _ => Ok(()),
        }
    }

    /// Short display name.
    pub fn kind(&self) -> &'static str {
        match self {
            IntentMeasure::Jaccard { .. } => "table_jaccard",
            IntentMeasure::ModelPerf { .. } => "model_performance",
            IntentMeasure::Fairness { .. } => "fairness_dpd",
        }
    }

    /// The registry row verification times each evaluation under:
    /// `intent.<kind>`.
    pub fn metric(&self) -> Metric {
        match self {
            IntentMeasure::Jaccard { .. } => Metric::IntentTableJaccard,
            IntentMeasure::ModelPerf { .. } => Metric::IntentModelPerformance,
            IntentMeasure::Fairness { .. } => Metric::IntentFairnessDpd,
        }
    }

    /// Evaluates the measure between the input script's output and a
    /// candidate's output. Candidates whose output makes the measure
    /// unevaluable (e.g. the target column was dropped) are reported as
    /// *unsatisfied* rather than erroring — the constraint simply prunes
    /// them, like a crashing evaluation would in the paper's prototype.
    pub fn evaluate(&self, base: &DataFrame, candidate: &DataFrame) -> IntentEval {
        match self {
            IntentMeasure::Jaccard { tau } => {
                let sim = value_jaccard(base, candidate);
                IntentEval {
                    delta: sim,
                    satisfied: sim >= *tau,
                }
            }
            IntentMeasure::ModelPerf { tau_pct, target } => {
                let (Ok(acc_base), Ok(acc_cand)) = (
                    model_accuracy(base, target),
                    model_accuracy(candidate, target),
                ) else {
                    return IntentEval {
                        delta: f64::INFINITY,
                        satisfied: false,
                    };
                };
                let delta = if acc_base.abs() <= f64::EPSILON {
                    if acc_cand.abs() <= f64::EPSILON {
                        0.0
                    } else {
                        100.0
                    }
                } else {
                    ((acc_base - acc_cand) / acc_base).abs() * 100.0
                };
                IntentEval {
                    delta,
                    satisfied: delta <= *tau_pct,
                }
            }
            IntentMeasure::Fairness { tau, target, group } => {
                let (Ok(dpd_base), Ok(dpd_cand)) = (
                    model_dpd(base, target, group),
                    model_dpd(candidate, target, group),
                ) else {
                    return IntentEval {
                        delta: f64::INFINITY,
                        satisfied: false,
                    };
                };
                let delta = (dpd_base - dpd_cand).abs();
                IntentEval {
                    delta,
                    satisfied: delta <= *tau,
                }
            }
        }
    }
}

/// Result of an intent evaluation: the raw measure (Δ_J similarity or Δ_M
/// percent change) and whether the threshold holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntentEval {
    /// The measured value.
    pub delta: f64,
    /// Whether the constraint τ is satisfied.
    pub satisfied: bool,
}

/// Downstream-model accuracy on a prepared table: a logistic regression
/// predicting `target` from all other columns, on a fixed 75/25 split.
///
/// # Errors
///
/// Fails when the target column is missing or the table cannot support
/// training (too few rows, no features, all-null labels).
pub fn model_accuracy(df: &DataFrame, target: &str) -> Result<f64> {
    let label_col = df
        .column(target)
        .map_err(|e| CoreError::Intent(e.to_string()))?;
    let y = encode_labels(label_col).map_err(|e| CoreError::Intent(e.to_string()))?;
    let x = encode_features(df, &[target]).map_err(|e| CoreError::Intent(e.to_string()))?;
    if x.n_rows() < 8 {
        return Err(CoreError::Intent(format!(
            "only {} rows; need at least 8 for a meaningful split",
            x.n_rows()
        )));
    }
    let split = train_test_split(&x, &y, 0.25, SPLIT_SEED)
        .map_err(|e| CoreError::Intent(e.to_string()))?;
    let model = LogisticRegression {
        epochs: 120,
        ..Default::default()
    }
    .fit(&split.x_train, &split.y_train)
    .map_err(|e| CoreError::Intent(e.to_string()))?;
    Ok(model.score(&split.x_test, &split.y_test))
}

/// Demographic-parity difference of the downstream model's predictions on
/// a prepared table: train the same fixed-split logistic regression as
/// [`model_accuracy`] and measure `|P(ŷ=1 | g) − P(ŷ=1 | ¬g)|`, where `g`
/// is membership in the `group` column's most frequent value.
///
/// # Errors
///
/// Fails when the target or group column is missing or the table cannot
/// support training.
pub fn model_dpd(df: &DataFrame, target: &str, group: &str) -> Result<f64> {
    let group_col = df
        .column(group)
        .map_err(|e| CoreError::Intent(e.to_string()))?;
    let majority = group_col
        .mode()
        .map_err(|e| CoreError::Intent(e.to_string()))?;
    // Loose equality with the majority over the typed buffer (one pool
    // comparison per dictionary entry for strings).
    let membership = compare(group_col, CmpOp::Eq, &Operand::Scalar(majority))
        .map_err(|e| CoreError::Intent(e.to_string()))?;

    let label_col = df
        .column(target)
        .map_err(|e| CoreError::Intent(e.to_string()))?;
    let y = encode_labels(label_col).map_err(|e| CoreError::Intent(e.to_string()))?;
    let x = encode_features(df, &[target]).map_err(|e| CoreError::Intent(e.to_string()))?;
    if x.n_rows() < 8 {
        return Err(CoreError::Intent(format!(
            "only {} rows; need at least 8",
            x.n_rows()
        )));
    }
    let split = train_test_split(&x, &y, 0.25, SPLIT_SEED)
        .map_err(|e| CoreError::Intent(e.to_string()))?;
    let model = LogisticRegression {
        epochs: 120,
        ..Default::default()
    }
    .fit(&split.x_train, &split.y_train)
    .map_err(|e| CoreError::Intent(e.to_string()))?;
    // Predict over the whole table so group alignment is trivial.
    let preds = model.predict(&x);
    let positive = *model.classes().last().unwrap_or(&1);
    Ok(demographic_parity_diff(
        &preds,
        &membership.to_bools(),
        positive,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_frame::{Column, Value};

    fn labeled_df(n: usize) -> DataFrame {
        // y = x > n/2, cleanly learnable.
        DataFrame::from_columns(vec![
            (
                "x",
                Column::from_ints((0..n as i64).map(Some).collect()),
            ),
            (
                "y",
                Column::from_ints((0..n).map(|i| Some(i64::from(i >= n / 2))).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn jaccard_measure_thresholds() {
        let base = labeled_df(20);
        let m = IntentMeasure::jaccard(0.9);
        let same = m.evaluate(&base, &base);
        assert!(same.satisfied);
        assert_eq!(same.delta, 1.0);
        let half = base.head(10);
        let e = m.evaluate(&base, &half);
        assert!(!e.satisfied);
        assert!(e.delta < 0.9);
        let lenient = IntentMeasure::jaccard(0.2);
        assert!(lenient.evaluate(&base, &half).satisfied);
    }

    #[test]
    fn model_perf_measure_identical_tables() {
        let base = labeled_df(40);
        let m = IntentMeasure::model_perf(1.0, "y");
        let e = m.evaluate(&base, &base);
        assert!(e.satisfied);
        assert_eq!(e.delta, 0.0);
    }

    #[test]
    fn model_perf_detects_destroyed_signal() {
        let base = labeled_df(40);
        // Candidate shuffled labels to a constant: accuracy collapses.
        let mut wrecked = base.clone();
        wrecked
            .set_column("x", Column::from_ints(vec![Some(1); 40]))
            .unwrap();
        let m = IntentMeasure::model_perf(1.0, "y");
        let e = m.evaluate(&base, &wrecked);
        assert!(e.delta > 1.0);
        assert!(!e.satisfied);
    }

    #[test]
    fn missing_target_is_unsatisfied_not_error() {
        let base = labeled_df(40);
        let dropped = base.drop_columns(&["y"]).unwrap();
        let m = IntentMeasure::model_perf(5.0, "y");
        let e = m.evaluate(&base, &dropped);
        assert!(!e.satisfied);
        assert!(e.delta.is_infinite());
    }

    #[test]
    fn accuracy_learns_separable_data() {
        let acc = model_accuracy(&labeled_df(60), "y").unwrap();
        assert!(acc >= 0.8, "accuracy {acc}");
        assert!(model_accuracy(&labeled_df(4), "y").is_err());
        assert!(model_accuracy(&labeled_df(40), "ghost").is_err());
    }

    #[test]
    fn validate_rejects_bad_thresholds() {
        assert!(IntentMeasure::jaccard(1.5).validate().is_err());
        assert!(IntentMeasure::model_perf(150.0, "y").validate().is_err());
        assert!(IntentMeasure::jaccard(0.9).validate().is_ok());
        assert!(IntentMeasure::model_perf(1.0, "y").validate().is_ok());
    }

    #[test]
    fn kind_names() {
        assert_eq!(IntentMeasure::jaccard(0.9).kind(), "table_jaccard");
        assert_eq!(
            IntentMeasure::model_perf(1.0, "y").kind(),
            "model_performance"
        );
        assert_eq!(
            IntentMeasure::fairness(0.1, "y", "g").kind(),
            "fairness_dpd"
        );
        for m in [
            IntentMeasure::jaccard(0.9),
            IntentMeasure::model_perf(1.0, "y"),
            IntentMeasure::fairness(0.1, "y", "g"),
        ] {
            assert_eq!(m.metric().name(), format!("intent.{}", m.kind()));
        }
    }

    fn grouped_df(n: usize) -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "x",
                Column::from_ints((0..n as i64).map(Some).collect()),
            ),
            (
                "g",
                Column::from_strs(
                    (0..n).map(|i| Some(if i % 3 == 0 { "b" } else { "a" }.into())).collect(),
                ),
            ),
            (
                "y",
                Column::from_ints((0..n).map(|i| Some(i64::from(i >= n / 2))).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn fairness_identical_tables_satisfy() {
        let base = grouped_df(60);
        let m = IntentMeasure::fairness(0.05, "y", "g");
        let e = m.evaluate(&base, &base);
        assert!(e.satisfied);
        assert_eq!(e.delta, 0.0);
    }

    #[test]
    fn fairness_missing_columns_unsatisfied() {
        let base = grouped_df(60);
        let dropped = base.drop_columns(&["g"]).unwrap();
        let m = IntentMeasure::fairness(0.5, "y", "g");
        let e = m.evaluate(&base, &dropped);
        assert!(!e.satisfied);
        assert!(e.delta.is_infinite());
    }

    #[test]
    fn fairness_detects_dpd_shift() {
        let base = grouped_df(90);
        // Candidate: make x perfectly encode the group so predictions
        // split along the protected attribute.
        let mut skew = base.clone();
        let gcol = skew.column("g").unwrap().clone();
        let xvals: Vec<Value> = lucid_frame::naive::naive_values(&gcol)
            .iter()
            .map(|v| {
                if v.loose_eq(&Value::Str("a".into())) {
                    Value::Int(1000)
                } else {
                    Value::Int(0)
                }
            })
            .collect();
        skew.set_column("x", Column::from_values(&xvals)).unwrap();
        let dpd_base = model_dpd(&base, "y", "g").unwrap();
        let dpd_skew = model_dpd(&skew, "y", "g").unwrap();
        assert!(
            (dpd_base - dpd_skew).abs() > 0.2,
            "expected DPD shift: base {dpd_base} skew {dpd_skew}"
        );
        let m = IntentMeasure::fairness(0.05, "y", "g");
        assert!(!m.evaluate(&base, &skew).satisfied);
    }

    #[test]
    fn fairness_validate_bounds() {
        assert!(IntentMeasure::fairness(1.5, "y", "g").validate().is_err());
        assert!(IntentMeasure::fairness(0.1, "y", "g").validate().is_ok());
    }
}
