//! Search configuration and the paper's Table 2 parameter defaults.

use crate::error::{CoreError, Result};
use crate::intent::IntentMeasure;
use crate::transform::EnumOptions;

/// Which vocabulary models the step space `X` in the RE objective.
/// The paper uses edges (`V_E'`) because they encode step order
/// (Section 3); the atom variant is kept for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Edge vocabulary `V_E'` (the paper's choice).
    #[default]
    Edges,
    /// Atom vocabulary `V_A` (order-free ablation).
    Atoms,
}

/// Parameters of the online search (Section 5.2 and §6.1.5).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum number of transformations (`seq`, the stopping criterion).
    pub seq_len: usize,
    /// Beam size `K`.
    pub beam_k: usize,
    /// Whether the k-means diversity measure is used (Algorithm 3 vs 2).
    pub diversity: bool,
    /// Early execution checking `α` (check each candidate as it is
    /// produced) vs late checking (only at the end).
    pub early_check: bool,
    /// The user-intent constraint.
    pub intent: IntentMeasure,
    /// Row cap applied to `D_IN` during constraint checking (the sampling
    /// optimization; `None` = use all rows).
    pub sample_rows: Option<usize>,
    /// Seed for any seeded substeps.
    pub seed: u64,
    /// Transformation-enumeration caps.
    pub enum_opts: EnumOptions,
    /// Cap on the ranked next-step list `F` per beam per step.
    pub max_steps_ranked: usize,
    /// Number of k-means clusters `M` for the diversity measure.
    pub diversity_clusters: usize,
    /// Which vocabulary the RE objective runs on (ablation knob).
    pub objective: Objective,
    /// Worker threads for beam expansion: `1` = the serial reference
    /// path, `0` = auto (one per available core). Results are reassembled
    /// in enumeration order, so every thread count ranks identically.
    pub threads: usize,
    /// Whether execution checks reuse interpreter snapshots of shared
    /// statement prefixes (off reproduces cold re-execution exactly).
    pub prefix_cache: bool,
    /// Bound on retained prefix snapshots (LRU beyond this).
    pub prefix_cache_capacity: usize,
    /// Bound on accumulated finalists awaiting final verification; when
    /// full, only candidates scoring below the worst retained finalist
    /// displace it. Keeps step-convergent searches from growing an
    /// unbounded verification queue.
    pub max_finalists: usize,
    /// The trace: one JSONL stream per standardization (schema v3, see
    /// [`lucid_obs::event`]). When set, the search writes its measurement
    /// records (start, one per beam step, verify, end, profile) and the
    /// interpreter records per-statement spans; then every candidate's
    /// stable ID, lineage and terminal [`lucid_obs::Disposition`], the
    /// selected lineage, the final-diff join and a trailer follow
    /// (`lucid trace`, `lucid why` and `lucid profile` render it). The
    /// decision records are byte-identical across thread counts, cache
    /// modes, budgets and batch memoization, and tracing never changes a
    /// search decision. `None` keeps the whole observability layer on its
    /// no-op path.
    pub trace: Option<lucid_obs::TraceSink>,
    /// Directory for profile exports. When set, the search writes
    /// `flame.folded` (collapsed-stack flamegraph), `percentiles.txt`,
    /// and `profile.json` there after each search, and the interpreter's
    /// span collector is attached even without a trace sink. Profiling is
    /// measurement-only: search decisions and output are byte-identical
    /// with it on or off.
    pub profile_out: Option<std::path::PathBuf>,
    /// Per-candidate resource budget (fuel / cells / wall-clock deadline).
    /// Unlimited by default; tripped candidates are pruned like failed
    /// executions and counted per axis (`Timings::budget_trips_*`). The
    /// deadline axis is wall-clock and therefore the only knob that can
    /// break byte-identical replay — leave it unlimited when determinism
    /// matters.
    pub budget: lucid_interp::Budget,
    /// Deterministic fault-injection plan applied to candidate executions
    /// (never the user's input script). `None` — the production default —
    /// costs nothing; tests install a seeded plan to exercise the search's
    /// isolation and accounting paths.
    pub fault_plan: Option<std::sync::Arc<lucid_interp::FaultPlan>>,
    /// Process-wide metrics registry the per-search registry is merged
    /// into at search end (`Registry::merge`) — the roll-up a long-lived
    /// `serve`/`batch` process hangs fleet telemetry off, and the source
    /// the CLI's `--stats-out` exporters snapshot. Measurement-only:
    /// search decisions and output never read it.
    pub stats_registry: Option<std::sync::Arc<lucid_obs::Registry>>,
    /// Cross-search shared state (batch mode): one statement interner and
    /// one pooled prefix-cache store spanning every search that carries
    /// this handle. `None` (the default) keeps both per search. Sharing is
    /// decision-invariant — see [`crate::search::SharedSearchState`] — but
    /// requires every sharing search to run against the same registered
    /// tables.
    pub shared: Option<std::sync::Arc<crate::search::SharedSearchState>>,
}

impl Default for SearchConfig {
    /// The paper's default configuration (§6.1.5): `seq = 16`, `K = 3`,
    /// diversity on, early checking on, `τ_J = 0.9`.
    fn default() -> Self {
        SearchConfig {
            seq_len: 16,
            beam_k: 3,
            diversity: true,
            early_check: true,
            intent: IntentMeasure::jaccard(0.9),
            sample_rows: None,
            seed: 7,
            enum_opts: EnumOptions::default(),
            max_steps_ranked: 64,
            diversity_clusters: 3,
            objective: Objective::Edges,
            threads: 1,
            prefix_cache: true,
            prefix_cache_capacity: lucid_interp::cache::DEFAULT_PREFIX_CACHE_CAPACITY,
            max_finalists: 256,
            trace: None,
            profile_out: None,
            budget: lucid_interp::Budget::unlimited(),
            fault_plan: None,
            stats_registry: None,
            shared: None,
        }
    }
}

impl SearchConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Fails on zero beams/sequence length or an invalid τ.
    pub fn validate(&self) -> Result<()> {
        if self.beam_k == 0 {
            return Err(CoreError::BadConfig("beam size K must be ≥ 1".to_string()));
        }
        if self.seq_len == 0 {
            return Err(CoreError::BadConfig(
                "sequence length must be ≥ 1".to_string(),
            ));
        }
        if self.diversity && self.diversity_clusters == 0 {
            return Err(CoreError::BadConfig(
                "diversity clusters M must be ≥ 1".to_string(),
            ));
        }
        if self.max_finalists == 0 {
            return Err(CoreError::BadConfig(
                "finalist cap must be ≥ 1".to_string(),
            ));
        }
        if self.prefix_cache && self.prefix_cache_capacity == 0 {
            return Err(CoreError::BadConfig(
                "prefix cache capacity must be ≥ 1 when the cache is on".to_string(),
            ));
        }
        self.intent.validate()
    }

    /// The worker count `threads` resolves to: itself, or every available
    /// core when zero (auto).
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Applies the paper's Table 2 defaults given corpus properties:
    ///
    /// | corpus | diversity | seq | K |
    /// |---|---|---|---|
    /// | > 10 scripts | > 300 uniq. edges | 16 | 3 |
    /// | > 10 scripts | ≤ 300 uniq. edges | 16 | 1 |
    /// | ≤ 10 scripts | > 300 uniq. edges | 8 | 3 |
    /// | ≤ 10 scripts | ≤ 300 uniq. edges | 8 | 1 |
    pub fn with_table2_defaults(mut self, n_scripts: usize, uniq_edges: usize) -> SearchConfig {
        let (seq, k) = table2_defaults(n_scripts, uniq_edges);
        self.seq_len = seq;
        self.beam_k = k;
        self
    }
}

/// The Table 2 lookup: `(seq, K)` from corpus size and edge diversity.
pub fn table2_defaults(n_scripts: usize, uniq_edges: usize) -> (usize, usize) {
    let seq = if n_scripts > 10 { 16 } else { 8 };
    let k = if uniq_edges > 300 { 3 } else { 1 };
    (seq, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_6_1_5() {
        let c = SearchConfig::default();
        assert_eq!(c.seq_len, 16);
        assert_eq!(c.beam_k, 3);
        assert!(c.diversity);
        assert!(c.early_check);
        assert_eq!(c.intent, IntentMeasure::jaccard(0.9));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn table2_grid() {
        assert_eq!(table2_defaults(62, 748), (16, 3));
        assert_eq!(table2_defaults(24, 193), (16, 1));
        assert_eq!(table2_defaults(10, 423), (8, 3));
        assert_eq!(table2_defaults(5, 100), (8, 1));
    }

    #[test]
    fn with_table2_defaults_overrides() {
        let c = SearchConfig::default().with_table2_defaults(8, 200);
        assert_eq!((c.seq_len, c.beam_k), (8, 1));
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let c = SearchConfig {
            beam_k: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SearchConfig {
            seq_len: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SearchConfig {
            diversity_clusters: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SearchConfig {
            intent: IntentMeasure::jaccard(2.0),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SearchConfig {
            max_finalists: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SearchConfig {
            prefix_cache: true,
            prefix_cache_capacity: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn budget_and_fault_injection_default_off() {
        let c = SearchConfig::default();
        assert!(c.budget.is_unlimited());
        assert!(c.fault_plan.is_none());
        let capped = SearchConfig {
            budget: lucid_interp::Budget {
                fuel: 10,
                max_cells: 10,
                deadline_ms: 10,
            },
            ..Default::default()
        };
        assert!(capped.validate().is_ok());
    }

    #[test]
    fn execution_knobs_default_to_reference_behavior() {
        let c = SearchConfig::default();
        // Serial by default: parallelism is opt-in.
        assert_eq!(c.threads, 1);
        assert_eq!(c.resolved_threads(), 1);
        assert!(c.prefix_cache);
        assert!(c.prefix_cache_capacity > 0);
        assert!(c.max_finalists >= c.beam_k);
        // Auto resolves to at least one worker.
        let auto = SearchConfig {
            threads: 0,
            ..Default::default()
        };
        assert!(auto.resolved_threads() >= 1);
        assert!(auto.validate().is_ok());
    }
}
