//! # lucid-core
//!
//! The LucidScript standardization engine — the primary contribution of
//! *"Toward Standardized Data Preparation: A Bottom-Up Approach"*
//! (EDBT 2025), reimplemented in Rust.
//!
//! Pipeline (Sections 3–5 of the paper):
//!
//! 1. [`lemma`] — lemmatize scripts (canonical module aliases, canonical
//!    names for variables read from the same data file) so semantically
//!    equivalent steps share one vocabulary entry.
//! 2. [`dag`] — represent each script as a DAG: atoms (operation
//!    invocations / lemmatized statements) connected by data-flow edges;
//!    1-gram (invocation-level) and n-gram (line-level) atoms.
//! 3. [`vocab`] — offline phase: build the atom vocabulary `V_A`, the edge
//!    vocabulary `V_E'`, and the corpus distribution `Q(x)`.
//! 4. [`entropy`] — the standardness objective: relative entropy
//!    `RE(s, S)` between the script's edge distribution `P(x)` and `Q(x)`.
//! 5. [`transform`] — add/delete transformations over the DAG, enumerated
//!    from the corpus vocabularies (Definition 3.4).
//! 6. [`search`] — the online phase: beam search with k-means diversity
//!    ([`kmeans`]), monotonicity, early/late execution checking, and
//!    user-intent verification ([`intent`]) — Algorithms 1–3.
//! 7. [`standardizer`] — the public façade tying it all together.
//! 8. [`leakage`] — the target-leakage case study (Section 6.6).
//!
//! ```no_run
//! use lucid_core::standardizer::Standardizer;
//! use lucid_core::config::SearchConfig;
//! use lucid_core::intent::IntentMeasure;
//! # let corpus_sources: Vec<String> = vec![];
//! # let table = lucid_frame::DataFrame::new();
//!
//! let config = SearchConfig {
//!     intent: IntentMeasure::jaccard(0.9),
//!     ..SearchConfig::default()
//! };
//! let std = Standardizer::build(&corpus_sources, "train.csv", table, config).unwrap();
//! let report = std.standardize_source("import pandas as pd\ndf = pd.read_csv('train.csv')\n").unwrap();
//! println!("improvement: {:.1}%", report.improvement_pct);
//! ```

// Per-cell `naive_values` (clippy.toml bans it) is for tests and oracles.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod batch;
pub mod config;
pub mod dag;
pub mod entropy;
pub mod error;
pub mod explain;
pub mod intent;
pub mod ir;
pub mod kmeans;
pub mod leakage;
pub mod lemma;
pub mod oracle;
pub mod pareto;
pub mod pool;
pub mod provenance;
pub mod report;
pub mod search;
pub mod standardizer;
pub mod transform;
pub mod vocab;

pub use config::SearchConfig;
pub use error::CoreError;
pub use report::StandardizeReport;
pub use standardizer::Standardizer;
