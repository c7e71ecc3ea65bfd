//! # lucid-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 6). One binary per artifact:
//!
//! | target | artifact |
//! |---|---|
//! | `table2` | parameter defaults by corpus properties |
//! | `table3` | dataset & DAG statistics |
//! | `table4` | metric-evaluation case study |
//! | `table5` | % improvement, all methods × corpus setups |
//! | `fig3`   | user-study proxy ratings |
//! | `fig4`   | % improvement distributions |
//! | `fig5`   | τ_J / τ_M sweeps |
//! | `fig6`   | seq / beam-size ablations |
//! | `fig7`   | runtime breakdown |
//! | `fig9`   | target-leakage detection accuracy |
//!
//! Each prints the paper-shaped rows and writes JSON under `results/`.
//!
//! Scale control: experiments default to a *fast* configuration (a subset
//! of user scripts per dataset, scaled-down `D_IN`); set `LUCID_FULL=1`
//! for full leave-one-out over every script at full data scale.

pub mod env;
pub mod kernels;
pub mod overhead;
pub mod runner;
pub mod stats;
pub mod trajectory;

pub use env::ExpEnv;
pub use kernels::{extend_with_kernels, kernel_suite};
pub use overhead::{
    measure_overhead, measure_trace_overhead, OverheadReport, TraceOverheadReport,
    TRACE_BUDGET_FLOOR_MS, TRACE_BUDGET_FRAC,
};
pub use runner::{improvement_of_rewrite, leave_one_out_ls, MethodImprovements};
pub use stats::Stats;
pub use trajectory::{
    append_entry, compare_entries, load_baseline, quick_suite, run_suite, suite, BenchEntry,
    Comparison, GateOptions, TRAJECTORY_SCHEMA,
};
