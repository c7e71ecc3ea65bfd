//! Result/report types emitted by the standardizer (serializable so the
//! experiment harness can persist them under `results/`).

use serde::{Deserialize, Serialize};

/// Registry metric names the search records under, and
/// [`Timings::from_registry`] projects from. Time-valued names are
/// histograms (one observation per beam step / search phase); the rest
/// are counters.
pub mod metric {
    /// `GetSteps` wall time histogram.
    pub const GET_STEPS: &str = "search.get_steps";
    /// Summed per-worker CPU time inside parallel `GetSteps`.
    pub const GET_STEPS_CPU: &str = "search.get_steps_cpu";
    /// `GetTopKBeams` wall time histogram.
    pub const GET_TOP_K: &str = "search.get_top_k";
    /// `CheckIfExecutes` wall time histogram.
    pub const CHECK_EXECUTE: &str = "search.check_execute";
    /// `VerifyConstraints` wall time histogram.
    pub const VERIFY: &str = "search.verify_constraints";
    /// End-to-end wall time histogram (one observation per search).
    pub const TOTAL: &str = "search.total";
    /// Beam steps executed.
    pub const STEPS: &str = "search.steps";
    /// Worker threads (recorded via `set_max`).
    pub const THREADS: &str = "search.threads";
    /// Prefix-cache hits.
    pub const CACHE_HITS: &str = "cache.hits";
    /// Prefix-cache misses.
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Prefix-cache LRU evictions.
    pub const CACHE_EVICTIONS: &str = "cache.evictions";
    /// Peak retained prefix snapshots (recorded via `set_max`).
    pub const CACHE_PEAK: &str = "cache.peak_snapshots";
    /// Model fits served from the execution cache's fit memo.
    pub const FIT_MEMO_HITS: &str = "cache.fit_memo_hits";
    /// Model fits that trained (fit-memo misses).
    pub const FIT_MEMO_MISSES: &str = "cache.fit_memo_misses";
    /// Candidate executions that panicked and were isolated
    /// (`catch_unwind`) into scored failures.
    pub const PANICKED: &str = "search.candidates_panicked";
    /// Candidate executions pruned by the fuel budget.
    pub const BUDGET_FUEL: &str = "budget.trips_fuel";
    /// Candidate executions pruned by the cell budget.
    pub const BUDGET_CELLS: &str = "budget.trips_cells";
    /// Candidate executions pruned by the wall-clock deadline.
    pub const BUDGET_DEADLINE: &str = "budget.trips_deadline";
    /// Structurally-duplicate candidates skipped within beam steps before
    /// spending an execution check on them.
    pub const DEDUPED: &str = "search.candidates_deduped";
    /// Transformations the enumerator refused because they would edit a
    /// line behind the monotonicity cursor.
    pub const PRUNED_MONOTONICITY: &str = "search.pruned_monotonicity";
    /// Distinct statements interned by the search's shared-statement IR
    /// (recorded via `set_max`).
    pub const UNIQUE_STMTS: &str = "interner.unique_stmts";
    /// Intern requests answered by an already-shared statement.
    pub const INTERN_HITS: &str = "interner.hits";
    /// Candidate DAGs derived incrementally from their parent's instead of
    /// rebuilt from scratch.
    pub const DAG_INCREMENTAL: &str = "dag.incremental_updates";
    /// Bytes allocated during `GetSteps` enumeration + scoring workers.
    /// All `mem.*` metrics are fed from `lucid_obs::alloc` snapshot
    /// deltas at search end; zero when telemetry is off or the
    /// instrumented allocator is not installed.
    pub const MEM_BYTES_ENUMERATE: &str = "mem.bytes_enumerate";
    /// Bytes allocated during interpreter execution (`CheckIfExecutes`).
    pub const MEM_BYTES_EXECUTE: &str = "mem.bytes_execute";
    /// Bytes allocated during beam ranking (`GetTopKBeams`).
    pub const MEM_BYTES_SCORE: &str = "mem.bytes_score";
    /// Bytes allocated during final verification.
    pub const MEM_BYTES_VERIFY: &str = "mem.bytes_verify";
    /// Bytes allocated outside any tagged phase.
    pub const MEM_BYTES_UNATTRIBUTED: &str = "mem.bytes_unattributed";
    /// Total bytes allocated — always the sum of the five phase metrics.
    pub const MEM_BYTES_TOTAL: &str = "mem.bytes_total";
    /// Allocation count over the search.
    pub const MEM_ALLOCS: &str = "mem.allocs";
    /// Process live-bytes high-water mark (recorded via `set_max`).
    pub const MEM_PEAK_BYTES: &str = "mem.peak_bytes";
    /// Log₂ allocation-size histogram (`Full` telemetry mode only).
    pub const MEM_ALLOC_SIZE: &str = "mem.alloc_size";
    /// Batch-mode full-result memo hits (scripts served without a search).
    pub const MEMO_HITS: &str = "cache.memo_hits";
    /// Batch-mode full-result memo misses (fresh searches executed).
    pub const MEMO_MISSES: &str = "cache.memo_misses";
    /// Scripts processed by batch runs.
    pub const BATCH_SCRIPTS: &str = "search.batch_scripts";
}

/// Wall-clock breakdown of the search phases — the quantities behind the
/// paper's Figure 7 (runtime breakdown of GetSteps / GetTopKBeams /
/// CheckIfExecutes / VerifyConstraints).
///
/// The search records these quantities into a per-search
/// `lucid_obs::Registry` and projects a `Timings` from it at the end
/// ([`Timings::from_registry`]); the trace event log carries the same
/// measured values, so a trace summary and the report can never disagree
/// beyond float rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Timings {
    /// Time spent enumerating + ranking next steps (`GetSteps`).
    pub get_steps_ms: f64,
    /// Time spent maintaining beams (`GetTopKBeams`, clustering included).
    pub get_top_k_ms: f64,
    /// Time spent running candidates for the execution constraint
    /// (`CheckIfExecutes`).
    pub check_execute_ms: f64,
    /// Time spent on final constraint verification (`VerifyConstraints`).
    pub verify_constraints_ms: f64,
    /// End-to-end wall time.
    pub total_ms: f64,
    /// Summed per-worker time inside parallel `GetSteps` regions (equals
    /// the wall-clock `get_steps_ms` share when running serially; the
    /// ratio to wall time is the realized parallel speedup).
    pub get_steps_cpu_ms: f64,
    /// Worker threads the search ran with.
    pub threads: usize,
    /// Execution-check runs that resumed from a cached statement prefix.
    pub prefix_cache_hits: u64,
    /// Execution-check runs that started cold.
    pub prefix_cache_misses: u64,
    /// Prefix snapshots evicted by the cache's LRU bound.
    pub prefix_cache_evictions: u64,
    /// Peak number of prefix snapshots retained at once.
    pub prefix_cache_peak_snapshots: u64,
    /// Estimator fits served from the execution cache's fit memo (zero
    /// with the prefix cache off).
    pub fit_memo_hits: u64,
    /// Estimator fits that trained a model through the fit memo.
    pub fit_memo_misses: u64,
    /// Beam steps the search executed (its depth).
    pub search_steps: usize,
    /// Candidate executions that panicked and were isolated into scored
    /// failures instead of aborting the search.
    pub candidates_panicked: u64,
    /// Candidate executions pruned because the fuel budget tripped.
    pub budget_trips_fuel: u64,
    /// Candidate executions pruned because the cell budget tripped.
    pub budget_trips_cells: u64,
    /// Candidate executions pruned because the deadline passed.
    pub budget_trips_deadline: u64,
    /// Structurally-identical candidates skipped within beam steps (by
    /// interned-statement comparison) before any execution check ran.
    pub candidates_deduped: u64,
    /// Enumerated transformations pruned by the monotonicity rule (they
    /// would have edited a line behind the cursor) before being scored.
    pub pruned_monotonicity: u64,
    /// Distinct statements the search's interner ever materialized — the
    /// whole candidate space is spanned by this many shared nodes.
    pub unique_stmts: u64,
    /// Intern requests resolved to an existing shared statement (includes
    /// atom-memo hits that also skipped parsing).
    pub intern_hits: u64,
    /// Candidate DAGs derived incrementally from their parent's DAG
    /// instead of rebuilt from the full statement list.
    pub dag_incremental_updates: u64,
    /// Bytes allocated during `GetSteps` enumeration + scoring workers.
    /// All `alloc_*`/`peak_live_bytes` fields are zero when allocator
    /// telemetry is off or the instrumented allocator is not installed.
    pub alloc_bytes_enumerate: u64,
    /// Bytes allocated during interpreter execution checks.
    pub alloc_bytes_execute: u64,
    /// Bytes allocated during beam ranking.
    pub alloc_bytes_score: u64,
    /// Bytes allocated during final verification.
    pub alloc_bytes_verify: u64,
    /// Bytes allocated outside any tagged phase.
    pub alloc_bytes_unattributed: u64,
    /// Total bytes allocated — the sum of the five phase fields.
    pub alloc_bytes_total: u64,
    /// Allocation count over the search.
    pub alloc_count: u64,
    /// Process live-bytes high-water mark at search end.
    pub peak_live_bytes: u64,
}

impl Timings {
    /// Adds another breakdown into this one (for aggregation across runs).
    ///
    /// Additive fields (times, counts, `search_steps`) sum. `threads` and
    /// `prefix_cache_peak_snapshots` are configuration/gauge values, not
    /// quantities of work, so summing them across runs would fabricate a
    /// parallelism (or cache footprint) no run ever had; they take the
    /// **max** instead. Under heterogeneous runs the aggregate therefore
    /// reads as "the widest configuration seen", and per-run ratios like
    /// [`Timings::get_steps_speedup`] should be computed *before*
    /// accumulation when the mix matters.
    pub fn accumulate(&mut self, other: &Timings) {
        self.get_steps_ms += other.get_steps_ms;
        self.get_top_k_ms += other.get_top_k_ms;
        self.check_execute_ms += other.check_execute_ms;
        self.verify_constraints_ms += other.verify_constraints_ms;
        self.total_ms += other.total_ms;
        self.get_steps_cpu_ms += other.get_steps_cpu_ms;
        self.threads = self.threads.max(other.threads);
        self.prefix_cache_hits += other.prefix_cache_hits;
        self.prefix_cache_misses += other.prefix_cache_misses;
        self.prefix_cache_evictions += other.prefix_cache_evictions;
        self.prefix_cache_peak_snapshots = self
            .prefix_cache_peak_snapshots
            .max(other.prefix_cache_peak_snapshots);
        self.fit_memo_hits += other.fit_memo_hits;
        self.fit_memo_misses += other.fit_memo_misses;
        self.search_steps += other.search_steps;
        self.candidates_panicked += other.candidates_panicked;
        self.budget_trips_fuel += other.budget_trips_fuel;
        self.budget_trips_cells += other.budget_trips_cells;
        self.budget_trips_deadline += other.budget_trips_deadline;
        self.candidates_deduped += other.candidates_deduped;
        self.pruned_monotonicity += other.pruned_monotonicity;
        // Like the cache peak: each run has its own interner, so summing
        // distinct-statement counts across runs would double-count shared
        // vocabulary; report the widest population seen instead.
        self.unique_stmts = self.unique_stmts.max(other.unique_stmts);
        self.intern_hits += other.intern_hits;
        self.dag_incremental_updates += other.dag_incremental_updates;
        self.alloc_bytes_enumerate += other.alloc_bytes_enumerate;
        self.alloc_bytes_execute += other.alloc_bytes_execute;
        self.alloc_bytes_score += other.alloc_bytes_score;
        self.alloc_bytes_verify += other.alloc_bytes_verify;
        self.alloc_bytes_unattributed += other.alloc_bytes_unattributed;
        self.alloc_bytes_total += other.alloc_bytes_total;
        self.alloc_count += other.alloc_count;
        // Peaks are gauges over shared process memory, like the cache
        // peak: concurrent runs don't stack them, so take the max.
        self.peak_live_bytes = self.peak_live_bytes.max(other.peak_live_bytes);
    }

    /// Total candidate executions pruned by any budget axis.
    pub fn budget_trips_total(&self) -> u64 {
        self.budget_trips_fuel + self.budget_trips_cells + self.budget_trips_deadline
    }

    /// Projects a `Timings` from a search's metric registry (see
    /// [`metric`] for the names). Histogram sums become the phase times;
    /// counters become the counts. Metrics never recorded read as zero.
    pub fn from_registry(reg: &lucid_obs::Registry) -> Timings {
        Timings {
            get_steps_ms: reg.histogram_sum_ms(metric::GET_STEPS),
            get_top_k_ms: reg.histogram_sum_ms(metric::GET_TOP_K),
            check_execute_ms: reg.histogram_sum_ms(metric::CHECK_EXECUTE),
            verify_constraints_ms: reg.histogram_sum_ms(metric::VERIFY),
            total_ms: reg.histogram_sum_ms(metric::TOTAL),
            get_steps_cpu_ms: reg.histogram_sum_ms(metric::GET_STEPS_CPU),
            threads: usize::try_from(reg.counter_value(metric::THREADS)).unwrap_or(usize::MAX),
            prefix_cache_hits: reg.counter_value(metric::CACHE_HITS),
            prefix_cache_misses: reg.counter_value(metric::CACHE_MISSES),
            prefix_cache_evictions: reg.counter_value(metric::CACHE_EVICTIONS),
            prefix_cache_peak_snapshots: reg.counter_value(metric::CACHE_PEAK),
            fit_memo_hits: reg.counter_value(metric::FIT_MEMO_HITS),
            fit_memo_misses: reg.counter_value(metric::FIT_MEMO_MISSES),
            search_steps: usize::try_from(reg.counter_value(metric::STEPS)).unwrap_or(usize::MAX),
            candidates_panicked: reg.counter_value(metric::PANICKED),
            budget_trips_fuel: reg.counter_value(metric::BUDGET_FUEL),
            budget_trips_cells: reg.counter_value(metric::BUDGET_CELLS),
            budget_trips_deadline: reg.counter_value(metric::BUDGET_DEADLINE),
            candidates_deduped: reg.counter_value(metric::DEDUPED),
            pruned_monotonicity: reg.counter_value(metric::PRUNED_MONOTONICITY),
            unique_stmts: reg.counter_value(metric::UNIQUE_STMTS),
            intern_hits: reg.counter_value(metric::INTERN_HITS),
            dag_incremental_updates: reg.counter_value(metric::DAG_INCREMENTAL),
            alloc_bytes_enumerate: reg.counter_value(metric::MEM_BYTES_ENUMERATE),
            alloc_bytes_execute: reg.counter_value(metric::MEM_BYTES_EXECUTE),
            alloc_bytes_score: reg.counter_value(metric::MEM_BYTES_SCORE),
            alloc_bytes_verify: reg.counter_value(metric::MEM_BYTES_VERIFY),
            alloc_bytes_unattributed: reg.counter_value(metric::MEM_BYTES_UNATTRIBUTED),
            alloc_bytes_total: reg.counter_value(metric::MEM_BYTES_TOTAL),
            alloc_count: reg.counter_value(metric::MEM_ALLOCS),
            peak_live_bytes: reg.counter_value(metric::MEM_PEAK_BYTES),
        }
    }

    /// Realized speedup of the parallel `GetSteps` regions: worker CPU
    /// time over wall time (1.0 when serial or unmeasured).
    pub fn get_steps_speedup(&self) -> f64 {
        if self.get_steps_ms > 0.0 && self.get_steps_cpu_ms > 0.0 {
            self.get_steps_cpu_ms / self.get_steps_ms
        } else {
            1.0
        }
    }

    /// Fraction of execution checks that resumed from a cached prefix.
    pub fn prefix_cache_hit_rate(&self) -> f64 {
        let total = self.prefix_cache_hits + self.prefix_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.prefix_cache_hits as f64 / total as f64
        }
    }
}

/// The outcome of standardizing one input script.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    fn timings_accumulate() {
        let mut a = Timings {
            get_steps_ms: 1.0,
            get_top_k_ms: 2.0,
            check_execute_ms: 3.0,
            verify_constraints_ms: 4.0,
            total_ms: 10.0,
            get_steps_cpu_ms: 2.0,
            threads: 4,
            prefix_cache_hits: 6,
            prefix_cache_misses: 2,
            prefix_cache_evictions: 1,
            prefix_cache_peak_snapshots: 9,
            fit_memo_hits: 5,
            fit_memo_misses: 3,
            search_steps: 3,
            candidates_panicked: 2,
            budget_trips_fuel: 1,
            budget_trips_cells: 3,
            budget_trips_deadline: 5,
            candidates_deduped: 4,
            pruned_monotonicity: 7,
            unique_stmts: 11,
            intern_hits: 30,
            dag_incremental_updates: 20,
            alloc_bytes_enumerate: 100,
            alloc_bytes_execute: 200,
            alloc_bytes_score: 50,
            alloc_bytes_verify: 25,
            alloc_bytes_unattributed: 25,
            alloc_bytes_total: 400,
            alloc_count: 8,
            peak_live_bytes: 1 << 20,
        };
        a.accumulate(&a.clone());
        assert_eq!(a.get_steps_ms, 2.0);
        assert_eq!(a.total_ms, 20.0);
        assert_eq!(a.get_steps_cpu_ms, 4.0);
        assert_eq!(a.threads, 4);
        assert_eq!(a.prefix_cache_hits, 12);
        assert_eq!(a.prefix_cache_misses, 4);
        assert_eq!(a.prefix_cache_evictions, 2);
        assert_eq!(a.prefix_cache_peak_snapshots, 9);
        assert_eq!((a.fit_memo_hits, a.fit_memo_misses), (10, 6));
        assert_eq!(a.search_steps, 6);
        assert_eq!(a.candidates_panicked, 4);
        assert_eq!(a.budget_trips_fuel, 2);
        assert_eq!(a.budget_trips_cells, 6);
        assert_eq!(a.budget_trips_deadline, 10);
        assert_eq!(a.budget_trips_total(), 18);
        assert_eq!(a.candidates_deduped, 8);
        assert_eq!(a.pruned_monotonicity, 14);
        // Per-interner population takes the max, not the sum.
        assert_eq!(a.unique_stmts, 11);
        assert_eq!(a.intern_hits, 60);
        assert_eq!(a.dag_incremental_updates, 40);
        // Allocated bytes are work and sum; the live peak is a gauge
        // over shared process memory and takes the max.
        assert_eq!(a.alloc_bytes_enumerate, 200);
        assert_eq!(a.alloc_bytes_total, 800);
        assert_eq!(a.alloc_count, 16);
        assert_eq!(a.peak_live_bytes, 1 << 20);
        assert_eq!(
            a.alloc_bytes_total,
            a.alloc_bytes_enumerate
                + a.alloc_bytes_execute
                + a.alloc_bytes_score
                + a.alloc_bytes_verify
                + a.alloc_bytes_unattributed,
            "phase bytes keep summing to the total through accumulation"
        );
    }

    #[test]
    fn accumulate_takes_max_threads_and_peak_under_heterogeneous_runs() {
        // A 1-thread run folded with an 8-thread run: the aggregate
        // reports the widest configuration, never the sum (9 threads
        // would describe a machine that never existed), and work-valued
        // fields still sum.
        let mut serial = Timings {
            total_ms: 10.0,
            threads: 1,
            prefix_cache_peak_snapshots: 100,
            search_steps: 2,
            ..Timings::default()
        };
        let wide = Timings {
            total_ms: 5.0,
            threads: 8,
            prefix_cache_peak_snapshots: 40,
            search_steps: 4,
            ..Timings::default()
        };
        serial.accumulate(&wide);
        assert_eq!(serial.threads, 8);
        assert_eq!(serial.prefix_cache_peak_snapshots, 100);
        assert_eq!(serial.total_ms, 15.0);
        assert_eq!(serial.search_steps, 6);
        // Order-independent for the max fields.
        let mut rev = wide;
        rev.accumulate(&Timings {
            threads: 1,
            prefix_cache_peak_snapshots: 100,
            ..Timings::default()
        });
        assert_eq!(rev.threads, 8);
        assert_eq!(rev.prefix_cache_peak_snapshots, 100);
    }

    #[test]
    fn from_registry_projects_all_fields() {
        let reg = lucid_obs::Registry::new();
        reg.histogram(metric::GET_STEPS).record_ns(2_000_000);
        reg.histogram(metric::GET_STEPS).record_ns(1_000_000);
        reg.histogram(metric::GET_TOP_K).record_ns(500_000);
        reg.histogram(metric::CHECK_EXECUTE).record_ns(250_000);
        reg.histogram(metric::VERIFY).record_ns(125_000);
        reg.histogram(metric::TOTAL).record_ns(4_000_000);
        reg.histogram(metric::GET_STEPS_CPU).record_ns(6_000_000);
        reg.counter(metric::STEPS).add(2);
        reg.counter(metric::THREADS).set_max(4);
        reg.counter(metric::CACHE_HITS).add(7);
        reg.counter(metric::CACHE_MISSES).add(3);
        reg.counter(metric::CACHE_EVICTIONS).add(1);
        reg.counter(metric::CACHE_PEAK).set_max(12);
        reg.counter(metric::FIT_MEMO_HITS).add(13);
        reg.counter(metric::FIT_MEMO_MISSES).add(8);
        reg.counter(metric::PANICKED).add(2);
        reg.counter(metric::BUDGET_FUEL).add(3);
        reg.counter(metric::BUDGET_CELLS).add(4);
        reg.counter(metric::BUDGET_DEADLINE).add(5);
        reg.counter(metric::DEDUPED).add(6);
        reg.counter(metric::PRUNED_MONOTONICITY).add(11);
        reg.counter(metric::UNIQUE_STMTS).set_max(9);
        reg.counter(metric::INTERN_HITS).add(21);
        reg.counter(metric::DAG_INCREMENTAL).add(17);
        reg.counter(metric::MEM_BYTES_ENUMERATE).add(4000);
        reg.counter(metric::MEM_BYTES_EXECUTE).add(3000);
        reg.counter(metric::MEM_BYTES_SCORE).add(2000);
        reg.counter(metric::MEM_BYTES_VERIFY).add(500);
        reg.counter(metric::MEM_BYTES_UNATTRIBUTED).add(500);
        reg.counter(metric::MEM_BYTES_TOTAL).add(10_000);
        reg.counter(metric::MEM_ALLOCS).add(42);
        reg.counter(metric::MEM_PEAK_BYTES).set_max(1 << 22);
        let t = Timings::from_registry(&reg);
        assert!((t.get_steps_ms - 3.0).abs() < 1e-9);
        assert!((t.get_top_k_ms - 0.5).abs() < 1e-9);
        assert!((t.check_execute_ms - 0.25).abs() < 1e-9);
        assert!((t.verify_constraints_ms - 0.125).abs() < 1e-9);
        assert!((t.total_ms - 4.0).abs() < 1e-9);
        assert!((t.get_steps_cpu_ms - 6.0).abs() < 1e-9);
        assert_eq!(t.threads, 4);
        assert_eq!(t.search_steps, 2);
        assert_eq!(t.prefix_cache_hits, 7);
        assert_eq!(t.prefix_cache_misses, 3);
        assert_eq!(t.prefix_cache_evictions, 1);
        assert_eq!(t.prefix_cache_peak_snapshots, 12);
        assert_eq!((t.fit_memo_hits, t.fit_memo_misses), (13, 8));
        assert_eq!(t.candidates_panicked, 2);
        assert_eq!(t.budget_trips_fuel, 3);
        assert_eq!(t.budget_trips_cells, 4);
        assert_eq!(t.budget_trips_deadline, 5);
        assert_eq!(t.candidates_deduped, 6);
        assert_eq!(t.pruned_monotonicity, 11);
        assert_eq!(t.unique_stmts, 9);
        assert_eq!(t.intern_hits, 21);
        assert_eq!(t.dag_incremental_updates, 17);
        assert_eq!(t.alloc_bytes_enumerate, 4000);
        assert_eq!(t.alloc_bytes_execute, 3000);
        assert_eq!(t.alloc_bytes_score, 2000);
        assert_eq!(t.alloc_bytes_verify, 500);
        assert_eq!(t.alloc_bytes_unattributed, 500);
        assert_eq!(t.alloc_bytes_total, 10_000);
        assert_eq!(t.alloc_count, 42);
        assert_eq!(t.peak_live_bytes, 1 << 22);
        // An empty registry projects the zero breakdown.
        assert_eq!(Timings::from_registry(&lucid_obs::Registry::new()), Timings::default());
    }

    #[test]
    fn derived_rates_handle_empty_and_measured_cases() {
        let zero = Timings::default();
        assert_eq!(zero.get_steps_speedup(), 1.0);
        assert_eq!(zero.prefix_cache_hit_rate(), 0.0);
        let t = Timings {
            get_steps_ms: 10.0,
            get_steps_cpu_ms: 35.0,
            prefix_cache_hits: 3,
            prefix_cache_misses: 1,
            ..Timings::default()
        };
        assert!((t.get_steps_speedup() - 3.5).abs() < 1e-12);
        assert!((t.prefix_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

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
