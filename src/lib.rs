//! # lucidscript
//!
//! Umbrella crate for the LucidScript-RS workspace — a Rust reproduction of
//! *"Toward Standardized Data Preparation: A Bottom-Up Approach"*
//! (EDBT 2025).
//!
//! This crate re-exports the public API of every subsystem:
//!
//! * [`pyast`] — lexer/parser/printer for straight-line Python scripts
//! * [`frame`] — columnar dataframe engine (the execution substrate)
//! * [`ml`] — downstream-model substrate (logistic regression, trees, metrics)
//! * [`interp`] — interpreter running scripts against `frame` + `ml`
//! * [`core`] — the paper's contribution: DAG representation, relative-entropy
//!   standardness, transformation beam search, intent constraints
//! * [`obs`] — tracing + metrics: the `Metric`-keyed registry and its one
//!   timer, the search event log, and trace summarization (`lucid trace`)
//! * [`corpus`] — synthetic dataset profiles + script-corpus generators
//! * [`baselines`] — Sourcery / GPT / Auto-Suggest / Auto-Tables comparators
//! * [`bench`] — experiment harness + the continuous benchmark trajectory
//!   (`lucid bench`, `BENCH_search.json`, the regression gate)
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

/// The instrumented system allocator: every allocation in the `lucid`
/// binary (and the umbrella crate's integration tests) is attributed to
/// the current search phase by `obs::alloc`. Measurement-only — it
/// delegates straight to [`std::alloc::System`].
#[global_allocator]
static ALLOC: lucid_obs::LucidAlloc = lucid_obs::LucidAlloc;

pub use lucid_baselines as baselines;
pub use lucid_bench as bench;
pub use lucid_core as core;
pub use lucid_corpus as corpus;
pub use lucid_frame as frame;
pub use lucid_interp as interp;
pub use lucid_ml as ml;
pub use lucid_obs as obs;
pub use lucid_pyast as pyast;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
