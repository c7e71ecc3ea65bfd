//! The search's metric table: one row per [`Timings`] field.
//!
//! Each row names the field and its type, the registry metric the search
//! records it under, and how two runs fold (`Sum`, or `Max` for gauges).
//! One macro expands the table into the [`Timings`] struct (which reads
//! itself back from a trace through its `FromJson` derive), `accumulate`,
//! [`Timings::from_registry`] and the [`Metric`] handles with their fold
//! rule, so adding a metric is one row here plus
//! its record site. The fold column is the only roll-up rule:
//! [`Timings::accumulate`] and `Registry::merge` both read it, so folding
//! projections and projecting a merged registry agree.
//!
//! An `f64` row is milliseconds, read from a histogram's sum; every other
//! row is read from a counter. [`Metric`] also names the registry-only
//! metrics, which have no `Timings` field: the batch counters and the
//! interpreter, kernel and intent timers. Span names are these same
//! names, so the registry, the trace's profile record and the folded
//! flamegraph share one vocabulary; the registry accepts only a
//! [`Metric`], so no code can invent a name.

use crate::metrics::Registry;
use serde::{FromJson, Serialize};

/// A `Timings` field type: how it is read from a registry.
trait Field: Sized {
    fn from_registry(reg: &Registry, metric: Metric) -> Self;
}

impl Field for f64 {
    fn from_registry(reg: &Registry, metric: Metric) -> f64 {
        reg.histogram_sum_ms(metric)
    }
}

impl Field for u64 {
    fn from_registry(reg: &Registry, metric: Metric) -> u64 {
        reg.counter_value(metric)
    }
}

impl Field for usize {
    fn from_registry(reg: &Registry, metric: Metric) -> usize {
        usize::try_from(reg.counter_value(metric)).unwrap_or(usize::MAX)
    }
}

/// How a metric rolls up across searches: work adds up; a configuration
/// or gauge value (threads, a peak, a store's population) takes the max,
/// because summing it would describe a parallelism, footprint or store no
/// run ever had.
pub(crate) enum Fold {
    Sum,
    Max,
}

impl Fold {
    /// Folds `theirs` into `mine`.
    fn apply<T: PartialOrd + std::ops::AddAssign>(self, mine: &mut T, theirs: T) {
        match self {
            Fold::Sum => *mine += theirs,
            Fold::Max if theirs > *mine => *mine = theirs,
            Fold::Max => {}
        }
    }
}

macro_rules! metric_table {
    (
        $(
            $(#[doc = $doc:literal])*
            $field:ident: $ty:ty => $variant:ident($name:literal, $fold:ident),
        )*
        ;
        $(
            $(#[doc = $rdoc:literal])*
            $rvariant:ident($rname:literal),
        )*
    ) => {
        /// Wall-clock breakdown of the search phases — the quantities behind
        /// the paper's Figure 7 (runtime breakdown of GetSteps / GetTopKBeams
        /// / CheckIfExecutes / VerifyConstraints) — and the search's counters.
        ///
        /// The search records these quantities into a per-search
        /// [`Registry`] and projects a `Timings` from it at the end
        /// ([`Timings::from_registry`]). The trace's `search_end` record
        /// carries this same struct, so a trace summary and the report hold
        /// identical values.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, FromJson)]
        pub struct Timings {
            $(
                $(#[doc = $doc])*
                pub $field: $ty,
            )*
        }

        impl Timings {
            /// Folds another breakdown into this one (for aggregation
            /// across runs) by each row's [`Metric::fold`], the rule
            /// `Registry::merge` also follows: work-valued fields sum;
            /// `threads`, `prefix_cache_peak_snapshots`, `unique_stmts`
            /// and `peak_live_bytes` take the **max**. Under heterogeneous
            /// runs the aggregate therefore reads as "the widest
            /// configuration seen", and per-run ratios like
            /// [`Timings::get_steps_speedup`] should be computed *before*
            /// accumulation when the mix matters.
            pub fn accumulate(&mut self, other: &Timings) {
                $( Fold::$fold.apply(&mut self.$field, other.$field); )*
            }

            /// Projects a `Timings` from a search's metric registry.
            /// Histogram sums become the phase times; counters become the
            /// counts. Metrics never recorded read as zero.
            pub fn from_registry(reg: &Registry) -> Timings {
                Timings {
                    $( $field: Field::from_registry(reg, Metric::$variant), )*
                }
            }

            /// The value of the row recorded under `metric` (0 for a
            /// registry-only metric).
            pub fn value(&self, metric: Metric) -> f64 {
                match metric {
                    $( Metric::$variant => self.$field as f64, )*
                    _ => 0.0,
                }
            }
        }

        /// A registry metric: the only way to name a counter, histogram or
        /// timer in a [`Registry`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Metric {
            $(
                $(#[doc = $doc])*
                $variant,
            )*
            $(
                $(#[doc = $rdoc])*
                $rvariant,
            )*
        }

        impl Metric {
            /// Every metric, `Timings` rows first, in table order.
            pub const ALL: &'static [Metric] = &[
                $( Metric::$variant, )*
                $( Metric::$rvariant, )*
            ];

            /// The metric's registry name (a dot-path such as
            /// `"search.get_steps"`), as exported by `--stats-out`.
            pub fn name(self) -> &'static str {
                match self {
                    $( Metric::$variant => $name, )*
                    $( Metric::$rvariant => $rname, )*
                }
            }

            /// How the metric rolls up across searches: its table row's
            /// `Sum`/`Max`; every registry-only metric sums.
            pub(crate) fn fold(self) -> Fold {
                match self {
                    $( Metric::$variant => Fold::$fold, )*
                    $( Metric::$rvariant => Fold::Sum, )*
                }
            }
        }
    };
}

metric_table! {
    /// Time spent enumerating + ranking next steps (`GetSteps`).
    get_steps_ms: f64 => GetSteps("search.get_steps", Sum),
    /// Time spent maintaining beams (`GetTopKBeams`, clustering included).
    get_top_k_ms: f64 => GetTopK("search.get_top_k", Sum),
    /// Time spent running candidates for the execution constraint
    /// (`CheckIfExecutes`).
    check_execute_ms: f64 => CheckExecute("search.check_execute", Sum),
    /// Time spent on final constraint verification (`VerifyConstraints`).
    verify_constraints_ms: f64 => Verify("search.verify_constraints", Sum),
    /// End-to-end wall time.
    total_ms: f64 => Total("search.total", Sum),
    /// Summed per-worker time inside parallel `GetSteps` regions (equals
    /// the wall-clock `get_steps_ms` share when running serially; the
    /// ratio to wall time is the realized parallel speedup).
    get_steps_cpu_ms: f64 => GetStepsCpu("search.get_steps_cpu", Sum),
    /// Worker threads the search ran with.
    threads: usize => Threads("search.threads", Max),
    /// Execution-check runs that resumed from a cached statement prefix.
    prefix_cache_hits: u64 => CacheHits("cache.hits", Sum),
    /// Execution-check runs that started cold.
    prefix_cache_misses: u64 => CacheMisses("cache.misses", Sum),
    /// Prefix snapshots evicted by the cache's LRU bound.
    prefix_cache_evictions: u64 => CacheEvictions("cache.evictions", Sum),
    /// Peak number of prefix snapshots retained at once.
    prefix_cache_peak_snapshots: u64 => CachePeak("cache.peak_snapshots", Max),
    /// Beam steps the search executed (its depth).
    search_steps: usize => Steps("search.steps", Sum),
    /// Candidate executions that panicked and were isolated into scored
    /// failures instead of aborting the search.
    candidates_panicked: u64 => Panicked("search.candidates_panicked", Sum),
    /// Candidate executions pruned because the fuel budget tripped.
    budget_trips_fuel: u64 => BudgetFuel("budget.trips_fuel", Sum),
    /// Candidate executions pruned because the cell budget tripped.
    budget_trips_cells: u64 => BudgetCells("budget.trips_cells", Sum),
    /// Candidate executions pruned because the deadline passed.
    budget_trips_deadline: u64 => BudgetDeadline("budget.trips_deadline", Sum),
    /// Structurally-identical candidates skipped within beam steps (by
    /// interned-statement comparison) before any execution check ran.
    candidates_deduped: u64 => Deduped("search.candidates_deduped", Sum),
    /// Enumerated transformations pruned by the monotonicity rule (they
    /// would have edited a line behind the cursor) before being scored.
    pruned_monotonicity: u64 => PrunedMonotonicity("search.pruned_monotonicity", Sum),
    /// Distinct statements the search's interner ever materialized — the
    /// whole candidate space is spanned by this many shared nodes.
    unique_stmts: u64 => UniqueStmts("interner.unique_stmts", Max),
    /// Intern requests resolved to an existing shared statement (includes
    /// atom-memo hits that also skipped parsing).
    intern_hits: u64 => InternHits("interner.hits", Sum),
    /// Candidate DAGs derived incrementally from their parent's DAG
    /// instead of rebuilt from the full statement list.
    dag_incremental_updates: u64 => DagIncremental("dag.incremental_updates", Sum),
    /// Bytes allocated during `GetSteps` enumeration + scoring workers.
    /// All `alloc_*`/`peak_live_bytes` fields are zero when allocator
    /// counting is off or the instrumented allocator is not installed.
    alloc_bytes_enumerate: u64 => MemBytesEnumerate("mem.bytes_enumerate", Sum),
    /// Bytes allocated during interpreter execution checks.
    alloc_bytes_execute: u64 => MemBytesExecute("mem.bytes_execute", Sum),
    /// Bytes allocated during beam ranking.
    alloc_bytes_score: u64 => MemBytesScore("mem.bytes_score", Sum),
    /// Bytes allocated during final verification.
    alloc_bytes_verify: u64 => MemBytesVerify("mem.bytes_verify", Sum),
    /// Bytes allocated outside any tagged phase.
    alloc_bytes_unattributed: u64 => MemBytesUnattributed("mem.bytes_unattributed", Sum),
    /// Total bytes allocated — the sum of the five phase fields.
    alloc_bytes_total: u64 => MemBytesTotal("mem.bytes_total", Sum),
    /// Allocation count over the search.
    alloc_count: u64 => MemAllocs("mem.allocs", Sum),
    /// Process live-bytes high-water mark at search end.
    peak_live_bytes: u64 => MemPeakBytes("mem.peak_bytes", Max),
    ;
    /// Batch-mode full-result memo hits (scripts served without a search).
    MemoHits("cache.memo_hits"),
    /// Batch-mode full-result memo misses (fresh searches executed).
    MemoMisses("cache.memo_misses"),
    /// Scripts processed by batch runs.
    BatchScripts("search.batch_scripts"),
    /// One interpreter run (timed only when a trace attaches a registry
    /// to the interpreter, like every `stmt.*` and `kernel.*` row).
    InterpRun("interp.run"),
    /// One executed `import` statement.
    StmtImport("stmt.import"),
    /// One executed `from ... import` statement.
    StmtFromImport("stmt.from_import"),
    /// One executed assignment.
    StmtAssign("stmt.assign"),
    /// One executed expression statement.
    StmtExpr("stmt.expr"),
    /// One Series arithmetic kernel call.
    KernelArith("kernel.arith"),
    /// One Series comparison kernel call.
    KernelCompare("kernel.compare"),
    /// One `get_dummies` call.
    KernelGetDummies("kernel.get_dummies"),
    /// One `astype` / `to_numeric` cast.
    KernelAstype("kernel.astype"),
    /// One `fillna` call.
    KernelFillna("kernel.fillna"),
    /// One group-by aggregation.
    KernelGroupby("kernel.groupby"),
    /// One model training (a `fit` that nothing reads trains nothing and
    /// records nothing).
    KernelFit("kernel.fit"),
    /// One fitted model's `score` or `predict` call.
    KernelPredict("kernel.predict"),
    /// One `train_test_split` part gathering its rows (a part that nothing
    /// reads gathers nothing and records nothing).
    KernelSplit("kernel.split"),
    /// One table-Jaccard intent evaluation in verification.
    IntentTableJaccard("intent.table_jaccard"),
    /// One model-performance intent evaluation (two model fits).
    IntentModelPerformance("intent.model_performance"),
    /// One fairness (demographic-parity) intent evaluation.
    IntentFairnessDpd("intent.fairness_dpd"),
}

impl Timings {
    /// Total candidate executions pruned by any budget axis.
    pub fn budget_trips_total(&self) -> u64 {
        self.budget_trips_fuel + self.budget_trips_cells + self.budget_trips_deadline
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Timings {
        Timings {
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
        }
    }

    #[test]
    fn metric_names_are_distinct() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(
            names.len(),
            49,
            "29 Timings rows + 20 registry-only metrics"
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len(), "two metrics share a name");
    }

    #[test]
    fn serialization_pins_field_order() {
        let json = serde_json::to_string(&sample()).unwrap();
        assert_eq!(
            json,
            "{\"get_steps_ms\":1.0,\"get_top_k_ms\":2.0,\"check_execute_ms\":3.0,\
             \"verify_constraints_ms\":4.0,\"total_ms\":10.0,\"get_steps_cpu_ms\":2.0,\
             \"threads\":4,\"prefix_cache_hits\":6,\"prefix_cache_misses\":2,\
             \"prefix_cache_evictions\":1,\"prefix_cache_peak_snapshots\":9,\
             \"search_steps\":3,\"candidates_panicked\":2,\"budget_trips_fuel\":1,\
             \"budget_trips_cells\":3,\"budget_trips_deadline\":5,\"candidates_deduped\":4,\"pruned_monotonicity\":7,\
             \"unique_stmts\":11,\"intern_hits\":30,\"dag_incremental_updates\":20,\
             \"alloc_bytes_enumerate\":100,\"alloc_bytes_execute\":200,\
             \"alloc_bytes_score\":50,\"alloc_bytes_verify\":25,\
             \"alloc_bytes_unattributed\":25,\"alloc_bytes_total\":400,\"alloc_count\":8,\
             \"peak_live_bytes\":1048576}"
        );
    }

    #[test]
    fn timings_accumulate() {
        let mut a = sample();
        a.accumulate(&a.clone());
        assert_eq!(a.get_steps_ms, 2.0);
        assert_eq!(a.total_ms, 20.0);
        assert_eq!(a.get_steps_cpu_ms, 4.0);
        assert_eq!(a.threads, 4);
        assert_eq!(a.prefix_cache_hits, 12);
        assert_eq!(a.prefix_cache_misses, 4);
        assert_eq!(a.prefix_cache_evictions, 2);
        assert_eq!(a.prefix_cache_peak_snapshots, 9);
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
        let reg = Registry::new();
        reg.histogram(Metric::GetSteps).record_ns(2_000_000);
        reg.histogram(Metric::GetSteps).record_ns(1_000_000);
        reg.histogram(Metric::GetTopK).record_ns(500_000);
        reg.histogram(Metric::CheckExecute).record_ns(250_000);
        reg.histogram(Metric::Verify).record_ns(125_000);
        reg.histogram(Metric::Total).record_ns(4_000_000);
        reg.histogram(Metric::GetStepsCpu).record_ns(6_000_000);
        reg.counter(Metric::Steps).add(2);
        reg.counter(Metric::Threads).set_max(4);
        reg.counter(Metric::CacheHits).add(7);
        reg.counter(Metric::CacheMisses).add(3);
        reg.counter(Metric::CacheEvictions).add(1);
        reg.counter(Metric::CachePeak).set_max(12);
        reg.counter(Metric::Panicked).add(2);
        reg.counter(Metric::BudgetFuel).add(3);
        reg.counter(Metric::BudgetCells).add(4);
        reg.counter(Metric::BudgetDeadline).add(5);
        reg.counter(Metric::Deduped).add(6);
        reg.counter(Metric::PrunedMonotonicity).add(11);
        reg.counter(Metric::UniqueStmts).set_max(9);
        reg.counter(Metric::InternHits).add(21);
        reg.counter(Metric::DagIncremental).add(17);
        reg.counter(Metric::MemBytesEnumerate).add(4000);
        reg.counter(Metric::MemBytesExecute).add(3000);
        reg.counter(Metric::MemBytesScore).add(2000);
        reg.counter(Metric::MemBytesVerify).add(500);
        reg.counter(Metric::MemBytesUnattributed).add(500);
        reg.counter(Metric::MemBytesTotal).add(10_000);
        reg.counter(Metric::MemAllocs).add(42);
        reg.counter(Metric::MemPeakBytes).set_max(1 << 22);
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
        assert_eq!(Timings::from_registry(&Registry::new()), Timings::default());
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
}
