//! Source positions attached to tokens and AST statements.

use serde::Serialize;
use std::fmt;

/// A position in the source text, 1-based for both line and column.
///
/// The standardizer only needs line-level resolution (transformations are
/// addressed by line number, per Definition 3.4 of the paper), but keeping
/// the column makes lexer/parser diagnostics usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Span {
    /// A span pointing at the start of the source.
    pub const START: Span = Span { line: 1, col: 1 };

    /// Creates a span at the given 1-based line and column.
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }

    /// A synthetic span for nodes created by transformations rather than
    /// parsed from source. Line 0 is never produced by the lexer.
    pub fn synthetic() -> Self {
        Span { line: 0, col: 0 }
    }

    /// Whether this span was produced by [`Span::synthetic`].
    pub fn is_synthetic(&self) -> bool {
        self.line == 0
    }
}

impl Default for Span {
    fn default() -> Self {
        Span::START
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_line_and_column() {
        assert_eq!(Span::new(3, 7).to_string(), "3:7");
    }

    #[test]
    fn synthetic_is_detectable() {
        assert!(Span::synthetic().is_synthetic());
        assert!(!Span::START.is_synthetic());
    }
}
