//! # lucid-interp
//!
//! An interpreter that executes the straight-line Python subset (parsed by
//! `lucid-pyast`) against the `lucid-frame` dataframe engine and the
//! `lucid-ml` model substrate — a pandas/sklearn-flavored environment.
//!
//! This is what LucidScript's `CheckIfExecutes()` and `VerifyConstraints()`
//! call: candidate scripts run here; any error (unknown column, type
//! mismatch, bad argument) marks the candidate non-executable, exactly as a
//! crashing pandas script would in the paper's prototype.
//!
//! Input files are registered in memory (no filesystem access during
//! search), so `pd.read_csv('train.csv')` resolves to a registered table:
//!
//! ```
//! use lucid_frame::csv::read_csv_str;
//! use lucid_interp::Interpreter;
//! use lucid_pyast::parse_module;
//!
//! let data = read_csv_str("Age,Outcome\n22,1\n35,0\n,1\n").unwrap();
//! let mut interp = Interpreter::new();
//! interp.register_table("diabetes.csv", data);
//!
//! let script = parse_module(
//!     "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(df.mean())\n",
//! ).unwrap();
//! let outcome = interp.run(&script).unwrap();
//! let out = outcome.output_frame().unwrap();
//! assert_eq!(out.total_null_count(), 0);
//! ```

// A panicking candidate is survivable (the search isolates it) but always
// a bug: non-test code returns typed errors instead.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// Per-cell `naive_values` (clippy.toml bans it) is for tests and oracles.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod budget;
pub mod cache;
pub mod env;
pub mod error;
pub mod eval;
#[cfg(test)]
mod naive;
pub mod numpy;
pub mod pandas;
pub mod sklearn;
pub mod value;

pub use budget::{
    silence_injected_panics, Budget, BudgetKind, BudgetUsage, FaultClass, FaultPlan,
    InjectedPanic, UNLIMITED,
};
pub use cache::{stmt_structural_hash, PrefixCache};
pub use env::{ExecOutcome, Interpreter, StmtRef};
pub use error::InterpError;
pub use value::RtValue;
