//! Result/report types emitted by the standardizer (serializable so the
//! experiment harness can persist them under `results/`).

use serde::Serialize;

/// The search's phase times and counters, declared once as the metric
/// table in [`lucid_obs::timings`] (which also names every registry
/// metric, [`lucid_obs::Metric`]).
pub use lucid_obs::Timings;

/// The outcome of standardizing one input script.
#[derive(Debug, Clone, Serialize)]
pub struct StandardizeReport {
    /// The (lemmatized) input source.
    pub input_source: String,
    /// The standardized output source.
    pub output_source: String,
    /// `RE(s_u, S)` before search.
    pub re_before: f64,
    /// `RE(ŝ_u, S)` of the returned script.
    pub re_after: f64,
    /// `% improvement = (RE_before − RE_after) / RE_before × 100`.
    pub improvement_pct: f64,
    /// The intent measure of the returned script vs the input's output.
    pub intent_delta: f64,
    /// Which measure was used (`table_jaccard` / `model_performance`).
    pub intent_kind: String,
    /// Whether the returned script satisfies the intent constraint (always
    /// true unless the search fell back to the input script, which
    /// trivially satisfies it).
    pub intent_satisfied: bool,
    /// Human-readable descriptions of the applied transformations.
    pub applied: Vec<String>,
    /// Number of candidate scripts scored during search.
    pub candidates_explored: usize,
    /// Phase timing breakdown.
    pub timings: Timings,
}

impl StandardizeReport {
    /// Whether the search changed the script at all.
    pub fn changed(&self) -> bool {
        !self.applied.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes() {
        let r = StandardizeReport {
            input_source: "x = 1\n".into(),
            output_source: "x = 1\n".into(),
            re_before: 1.0,
            re_after: 1.0,
            improvement_pct: 0.0,
            intent_delta: 1.0,
            intent_kind: "table_jaccard".into(),
            intent_satisfied: true,
            applied: vec![],
            candidates_explored: 0,
            timings: Timings::default(),
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("improvement_pct"));
        assert!(!r.changed());
    }
}
