//! AST node definitions.
//!
//! Expressions carry no spans so that structural equality and hashing are
//! cheap — the standardizer's vocabularies ([`crate::ast::Expr`]-keyed maps)
//! rely on `Eq + Hash`. Statements carry a [`Span`] because transformations
//! are addressed by line number (Definition 3.4 of the paper).

use crate::span::Span;
use serde::Serialize;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A float literal with bit-pattern equality/hashing so [`Expr`] can be a
/// hash-map key. Two literals are equal iff their IEEE-754 bits are equal
/// (so `NaN == NaN`, and `0.0 != -0.0`, which is what structural identity
/// of source code wants).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FloatLit(pub f64);

impl PartialEq for FloatLit {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for FloatLit {}

impl Hash for FloatLit {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for FloatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.is_finite() && self.0.abs() < 1e15 {
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BinOpKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `&` (element-wise/bitwise and; pandas mask conjunction)
    BitAnd,
    /// `|` (element-wise/bitwise or; pandas mask disjunction)
    BitOr,
    /// `^`
    BitXor,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOpKind {
    /// Canonical source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOpKind::Add => "+",
            BinOpKind::Sub => "-",
            BinOpKind::Mul => "*",
            BinOpKind::Div => "/",
            BinOpKind::FloorDiv => "//",
            BinOpKind::Mod => "%",
            BinOpKind::Pow => "**",
            BinOpKind::BitAnd => "&",
            BinOpKind::BitOr => "|",
            BinOpKind::BitXor => "^",
            BinOpKind::And => "and",
            BinOpKind::Or => "or",
        }
    }

    /// Binding power used by both parser and printer; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOpKind::Or => 1,
            BinOpKind::And => 2,
            // comparisons are 4 (see parser)
            BinOpKind::BitOr => 5,
            BinOpKind::BitXor => 6,
            BinOpKind::BitAnd => 7,
            BinOpKind::Add | BinOpKind::Sub => 9,
            BinOpKind::Mul | BinOpKind::Div | BinOpKind::FloorDiv | BinOpKind::Mod => 10,
            BinOpKind::Pow => 12,
        }
    }

    /// `**` is right-associative; everything else left-associative.
    pub fn right_assoc(self) -> bool {
        matches!(self, BinOpKind::Pow)
    }
}

/// A comparison operator. Chained comparisons are not part of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CmpOpKind {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `in`
    In,
    /// `not in`
    NotIn,
}

impl CmpOpKind {
    /// Canonical source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOpKind::Lt => "<",
            CmpOpKind::Gt => ">",
            CmpOpKind::Le => "<=",
            CmpOpKind::Ge => ">=",
            CmpOpKind::Eq => "==",
            CmpOpKind::Ne => "!=",
            CmpOpKind::In => "in",
            CmpOpKind::NotIn => "not in",
        }
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum UnaryOpKind {
    /// `-`
    Neg,
    /// `not`
    Not,
    /// `~` (pandas mask negation)
    Invert,
}

impl UnaryOpKind {
    /// Canonical source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UnaryOpKind::Neg => "-",
            UnaryOpKind::Not => "not ",
            UnaryOpKind::Invert => "~",
        }
    }
}

/// A call argument: positional (`name == None`) or keyword.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Arg {
    /// Keyword name, or `None` for a positional argument.
    pub name: Option<String>,
    /// The argument value.
    pub value: Expr,
}

impl Arg {
    /// A positional argument.
    pub fn pos(value: Expr) -> Self {
        Arg { name: None, value }
    }

    /// A keyword argument.
    pub fn kw(name: impl Into<String>, value: Expr) -> Self {
        Arg {
            name: Some(name.into()),
            value,
        }
    }
}

/// An expression in the straight-line subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum Expr {
    /// An identifier reference, e.g. `df`.
    Name(String),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(FloatLit),
    /// `True` / `False`.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// Attribute access, e.g. `pd.read_csv` or `df.columns`.
    Attribute {
        /// The object.
        value: Box<Expr>,
        /// The attribute name.
        attr: String,
    },
    /// A call, e.g. `df.fillna(0, inplace=False)`.
    Call {
        /// The callee (usually a `Name` or `Attribute`).
        func: Box<Expr>,
        /// Arguments in source order (positional and keyword mixed).
        args: Vec<Arg>,
    },
    /// A subscript, e.g. `df['Age']` or `df[mask]`.
    Subscript {
        /// The subscripted object.
        value: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// A slice appearing inside a subscript, e.g. `df[0:100]`.
    Slice {
        /// Lower bound, if any.
        lower: Option<Box<Expr>>,
        /// Upper bound, if any.
        upper: Option<Box<Expr>>,
        /// Step, if any.
        step: Option<Box<Expr>>,
    },
    /// A binary operation.
    BinOp {
        /// The operator.
        op: BinOpKind,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A (non-chained) comparison.
    Compare {
        /// The operator.
        op: CmpOpKind,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    UnaryOp {
        /// The operator.
        op: UnaryOpKind,
        /// The operand.
        operand: Box<Expr>,
    },
    /// A list literal.
    List(Vec<Expr>),
    /// A tuple (parenthesized or bare, e.g. assignment targets `X, y`).
    Tuple(Vec<Expr>),
    /// A dict literal.
    Dict(Vec<(Expr, Expr)>),
}

impl Expr {
    /// Convenience constructor: `Expr::Name`.
    pub fn name(s: impl Into<String>) -> Expr {
        Expr::Name(s.into())
    }

    /// Convenience constructor: `Expr::Str`.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Str(s.into())
    }

    /// Convenience constructor: attribute access `value.attr`.
    pub fn attr(value: Expr, attr: impl Into<String>) -> Expr {
        Expr::Attribute {
            value: Box::new(value),
            attr: attr.into(),
        }
    }

    /// Convenience constructor: call with positional args only.
    pub fn call(func: Expr, args: Vec<Expr>) -> Expr {
        Expr::Call {
            func: Box::new(func),
            args: args.into_iter().map(Arg::pos).collect(),
        }
    }

    /// Convenience constructor: call with explicit [`Arg`]s.
    pub fn call_args(func: Expr, args: Vec<Arg>) -> Expr {
        Expr::Call {
            func: Box::new(func),
            args,
        }
    }

    /// Convenience constructor: subscript `value[index]`.
    pub fn subscript(value: Expr, index: Expr) -> Expr {
        Expr::Subscript {
            value: Box::new(value),
            index: Box::new(index),
        }
    }

    /// Walks this expression tree in pre-order, calling `f` on every node.
    pub fn for_each(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Attribute { value, .. } => value.for_each(f),
            Expr::Call { func, args } => {
                func.for_each(f);
                for a in args {
                    a.value.for_each(f);
                }
            }
            Expr::Subscript { value, index } => {
                value.for_each(f);
                index.for_each(f);
            }
            Expr::Slice { lower, upper, step } => {
                for part in [lower, upper, step].into_iter().flatten() {
                    part.for_each(f);
                }
            }
            Expr::BinOp { left, right, .. } | Expr::Compare { left, right, .. } => {
                left.for_each(f);
                right.for_each(f);
            }
            Expr::UnaryOp { operand, .. } => operand.for_each(f),
            Expr::List(items) | Expr::Tuple(items) => {
                for item in items {
                    item.for_each(f);
                }
            }
            Expr::Dict(pairs) => {
                for (k, v) in pairs {
                    k.for_each(f);
                    v.for_each(f);
                }
            }
            Expr::Name(_)
            | Expr::Str(_)
            | Expr::Int(_)
            | Expr::Float(_)
            | Expr::Bool(_)
            | Expr::NoneLit => {}
        }
    }

    /// Rewrites every node bottom-up via `f` (applied to children first).
    pub fn map(&self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let mapped = match self {
            Expr::Attribute { value, attr } => Expr::Attribute {
                value: Box::new(value.map(f)),
                attr: attr.clone(),
            },
            Expr::Call { func, args } => Expr::Call {
                func: Box::new(func.map(f)),
                args: args
                    .iter()
                    .map(|a| Arg {
                        name: a.name.clone(),
                        value: a.value.map(f),
                    })
                    .collect(),
            },
            Expr::Subscript { value, index } => Expr::Subscript {
                value: Box::new(value.map(f)),
                index: Box::new(index.map(f)),
            },
            Expr::Slice { lower, upper, step } => Expr::Slice {
                lower: lower.as_ref().map(|e| Box::new(e.map(f))),
                upper: upper.as_ref().map(|e| Box::new(e.map(f))),
                step: step.as_ref().map(|e| Box::new(e.map(f))),
            },
            Expr::BinOp { op, left, right } => Expr::BinOp {
                op: *op,
                left: Box::new(left.map(f)),
                right: Box::new(right.map(f)),
            },
            Expr::Compare { op, left, right } => Expr::Compare {
                op: *op,
                left: Box::new(left.map(f)),
                right: Box::new(right.map(f)),
            },
            Expr::UnaryOp { op, operand } => Expr::UnaryOp {
                op: *op,
                operand: Box::new(operand.map(f)),
            },
            Expr::List(items) => Expr::List(items.iter().map(|e| e.map(f)).collect()),
            Expr::Tuple(items) => Expr::Tuple(items.iter().map(|e| e.map(f)).collect()),
            Expr::Dict(pairs) => {
                Expr::Dict(pairs.iter().map(|(k, v)| (k.map(f), v.map(f))).collect())
            }
            leaf => leaf.clone(),
        };
        f(mapped)
    }

    /// Collects every free variable name read by this expression.
    pub fn names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each(&mut |e| {
            if let Expr::Name(n) = e {
                out.push(n.clone());
            }
        });
        out
    }
}

/// A statement in a straight-line script.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum Stmt {
    /// `import module` / `import module as alias`.
    Import {
        /// Dotted module path, e.g. `sklearn.model_selection`.
        module: String,
        /// Optional alias.
        alias: Option<String>,
        /// Source position.
        span: Span,
    },
    /// `from module import a, b as c`.
    FromImport {
        /// Dotted module path.
        module: String,
        /// Imported names with optional aliases.
        names: Vec<(String, Option<String>)>,
        /// Source position.
        span: Span,
    },
    /// `target = value` (target may be a `Name`, `Subscript`, or `Tuple`).
    Assign {
        /// Assignment target.
        target: Expr,
        /// Right-hand side.
        value: Expr,
        /// Source position.
        span: Span,
    },
    /// A bare expression statement, e.g. `df.dropna(inplace=True)`.
    ExprStmt {
        /// The expression.
        value: Expr,
        /// Source position.
        span: Span,
    },
}

impl Stmt {
    /// The source position of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Import { span, .. }
            | Stmt::FromImport { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::ExprStmt { span, .. } => *span,
        }
    }

    /// Replaces the span (used when statements are inserted by
    /// transformations and then renumbered).
    pub fn with_span(mut self, new: Span) -> Stmt {
        match &mut self {
            Stmt::Import { span, .. }
            | Stmt::FromImport { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::ExprStmt { span, .. } => *span = new,
        }
        self
    }

    /// Structural equality ignoring spans — two statements are the "same
    /// step" if their code is identical, regardless of where they sit.
    pub fn same_code(&self, other: &Stmt) -> bool {
        self.clone().with_span(Span::synthetic()) == other.clone().with_span(Span::synthetic())
    }

    /// Walks every expression in the statement (targets included).
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Assign { target, value, .. } => {
                target.for_each(f);
                value.for_each(f);
            }
            Stmt::ExprStmt { value, .. } => value.for_each(f),
            Stmt::Import { .. } | Stmt::FromImport { .. } => {}
        }
    }
}

/// A parsed script: an ordered sequence of statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize)]
pub struct Module {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

impl Module {
    /// Creates a module from statements.
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Module { stmts }
    }

    /// Renumbers statement spans to consecutive lines starting at 1.
    ///
    /// Transformations insert statements with synthetic spans; renumbering
    /// restores the invariant that statement *i* sits on line *i + 1*.
    pub fn renumber(&mut self) {
        for (i, stmt) in self.stmts.iter_mut().enumerate() {
            *stmt = stmt.clone().with_span(Span::new(i as u32 + 1, 1));
        }
    }

    /// Structural equality ignoring spans.
    pub fn same_code(&self, other: &Module) -> bool {
        self.stmts.len() == other.stmts.len()
            && self
                .stmts
                .iter()
                .zip(&other.stmts)
                .all(|(a, b)| a.same_code(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_lit_equality_is_bitwise() {
        assert_eq!(FloatLit(f64::NAN), FloatLit(f64::NAN));
        assert_ne!(FloatLit(0.0), FloatLit(-0.0));
        assert_eq!(FloatLit(1.5), FloatLit(1.5));
    }

    #[test]
    fn float_lit_display_keeps_decimal_point() {
        assert_eq!(FloatLit(80.0).to_string(), "80.0");
        assert_eq!(FloatLit(0.25).to_string(), "0.25");
    }

    #[test]
    fn for_each_visits_all_nodes() {
        let e = Expr::call(
            Expr::attr(Expr::name("df"), "fillna"),
            vec![Expr::call(Expr::attr(Expr::name("df"), "mean"), vec![])],
        );
        let mut count = 0;
        e.for_each(&mut |_| count += 1);
        // call, attr, name, call, attr, name
        assert_eq!(count, 6);
    }

    #[test]
    fn names_collects_variable_reads() {
        let e = Expr::BinOp {
            op: BinOpKind::Add,
            left: Box::new(Expr::name("a")),
            right: Box::new(Expr::subscript(Expr::name("df"), Expr::str("Age"))),
        };
        assert_eq!(e.names(), vec!["a".to_string(), "df".to_string()]);
    }

    #[test]
    fn map_rewrites_bottom_up() {
        let e = Expr::attr(Expr::name("train"), "mean");
        let renamed = e.map(&mut |node| match node {
            Expr::Name(n) if n == "train" => Expr::name("df"),
            other => other,
        });
        assert_eq!(renamed, Expr::attr(Expr::name("df"), "mean"));
    }

    #[test]
    fn same_code_ignores_spans() {
        let a = Stmt::Assign {
            target: Expr::name("x"),
            value: Expr::Int(1),
            span: Span::new(3, 1),
        };
        let b = a.clone().with_span(Span::new(9, 1));
        assert!(a.same_code(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn renumber_assigns_consecutive_lines() {
        let mut m = Module::new(vec![
            Stmt::ExprStmt {
                value: Expr::Int(1),
                span: Span::synthetic(),
            },
            Stmt::ExprStmt {
                value: Expr::Int(2),
                span: Span::new(40, 1),
            },
        ]);
        m.renumber();
        assert_eq!(m.stmts[0].span().line, 1);
        assert_eq!(m.stmts[1].span().line, 2);
    }
}
