//! Error type for the standardization engine.

use lucid_interp::InterpError;
use lucid_pyast::PyAstError;
use std::fmt;

/// An error raised while building the corpus model or searching.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A script outside the corpus (the user script, a built-in snippet)
    /// failed to parse.
    Parse(PyAstError),
    /// Corpus script number `index` (its position in the sources the
    /// caller passed) failed to parse; the caller maps the index back to
    /// a file name.
    CorpusParse {
        /// Position of the failing script in the corpus sources.
        index: usize,
        /// Why it failed.
        error: PyAstError,
    },
    /// The *input* user script does not execute — the paper requires the
    /// input to be a working sketch.
    InputNotExecutable(InterpError),
    /// The corpus is empty after parsing/lemmatization.
    EmptyCorpus,
    /// Configuration out of range (beam size 0, τ out of bounds, ...).
    BadConfig(String),
    /// The intent measure could not be evaluated (e.g. missing target
    /// column for the model-performance measure).
    Intent(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse(e) => write!(f, "script parse error: {e}"),
            CoreError::CorpusParse { index, error } => {
                write!(f, "corpus script {index}: {error}")
            }
            CoreError::InputNotExecutable(e) => {
                write!(f, "input script does not execute: {e}")
            }
            CoreError::EmptyCorpus => write!(f, "corpus is empty"),
            CoreError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            CoreError::Intent(msg) => write!(f, "intent measure error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<PyAstError> for CoreError {
    fn from(e: PyAstError) -> Self {
        CoreError::Parse(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::EmptyCorpus.to_string().contains("empty"));
        assert!(CoreError::BadConfig("K = 0".into()).to_string().contains("K = 0"));
        let error = lucid_pyast::parse_module("df = (").unwrap_err();
        let msg = CoreError::CorpusParse {
            index: 1,
            error: error.clone(),
        }
        .to_string();
        assert_eq!(msg, format!("corpus script 1: {error}"));
    }
}
