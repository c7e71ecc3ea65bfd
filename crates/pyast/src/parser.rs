//! Recursive-descent parser with precedence climbing.

use crate::ast::{Arg, BinOpKind, CmpOpKind, Expr, Module, Stmt, UnaryOpKind};
use crate::error::{ParseError, PyAstError};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Deepest expression nesting a script may have. Nesting counts each
/// parenthesis, operand, call, subscript and attribute level, including
/// the levels of left-deep chains such as `1+1+…` and `df.a.a…` that the
/// parser builds in a loop. Every later pass over the tree (printer,
/// lemmatizer, interpreter, `Drop`) recurses once per level, so this
/// bound is what keeps a hostile script from overflowing a worker
/// thread's stack. CPython refuses more than 200 nested parentheses too.
pub const MAX_NESTING: usize = 200;

/// Parses a full script into a [`Module`].
///
/// # Errors
///
/// Returns [`PyAstError`] if the script fails to lex or is outside the
/// straight-line subset (control flow, function definitions, ...).
pub fn parse_module(source: &str) -> Result<Module, PyAstError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let module = parser.module()?;
    Ok(module)
}

/// Parses a single expression (the whole input must be one expression).
///
/// # Errors
///
/// Returns [`PyAstError`] on lexical or syntactic errors, or trailing input.
pub fn parse_expr(source: &str) -> Result<Expr, PyAstError> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.testlist()?;
    parser.eat_newline_opt();
    parser.expect(&TokenKind::Eof)?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting level of the expression being built (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one more nesting level, refusing to pass [`MAX_NESTING`].
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.error(format!("expression nests deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn bump(&mut self) -> Token {
        let tok = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_newline_opt(&mut self) {
        while self.at(&TokenKind::Newline) {
            self.bump();
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek_kind().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError::new(message, self.peek().span)
    }

    fn module(&mut self) -> Result<Module, PyAstError> {
        let mut stmts = Vec::new();
        loop {
            self.eat_newline_opt();
            if self.at(&TokenKind::Eof) {
                break;
            }
            let stmt = self.statement()?;
            stmts.push(stmt);
            if !self.at(&TokenKind::Eof) {
                self.expect(&TokenKind::Newline)?;
            }
        }
        Ok(Module::new(stmts))
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek().span;
        match self.peek_kind() {
            TokenKind::Import => self.import_stmt(span),
            TokenKind::From => self.from_import_stmt(span),
            _ => self.assign_or_expr_stmt(span),
        }
    }

    fn dotted_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.expect_ident()?;
        while self.eat(&TokenKind::Dot) {
            name.push('.');
            name.push_str(&self.expect_ident()?);
        }
        Ok(name)
    }

    fn import_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        self.expect(&TokenKind::Import)?;
        let module = self.dotted_name()?;
        let alias = if self.eat(&TokenKind::As) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(Stmt::Import {
            module,
            alias,
            span,
        })
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_import_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        self.expect(&TokenKind::From)?;
        let module = self.dotted_name()?;
        self.expect(&TokenKind::Import)?;
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let alias = if self.eat(&TokenKind::As) {
                Some(self.expect_ident()?)
            } else {
                None
            };
            names.push((name, alias));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Stmt::FromImport {
            module,
            names,
            span,
        })
    }

    fn assign_or_expr_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let first = self.testlist()?;
        if self.eat(&TokenKind::Assign) {
            let value = self.testlist()?;
            if self.at(&TokenKind::Assign) {
                return Err(self.error("chained assignment is not supported".to_string()));
            }
            validate_target(&first).map_err(|msg| ParseError::new(msg, span))?;
            Ok(Stmt::Assign {
                target: first,
                value,
                span,
            })
        } else {
            Ok(Stmt::ExprStmt { value: first, span })
        }
    }

    /// `testlist := expr (',' expr)*` — two or more become a bare tuple.
    fn testlist(&mut self) -> Result<Expr, ParseError> {
        let first = self.expression(0)?;
        if !self.at(&TokenKind::Comma) {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(&TokenKind::Comma) {
            if starts_expression(self.peek_kind()) {
                items.push(self.expression(0)?);
            } else {
                break; // trailing comma
            }
        }
        Ok(Expr::Tuple(items))
    }

    /// Precedence-climbing expression parser. `min_prec` is the lowest
    /// operator precedence this call may consume. The expression is one
    /// nesting level, and so is each operator that wraps the left-hand
    /// side built so far.
    fn expression(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let outer = self.depth;
        self.nest()?;
        let expr = self.climb(min_prec);
        self.depth = outer;
        expr
    }

    fn climb(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            // Comparison operators (precedence 4, non-associative).
            if min_prec <= 4 {
                if let Some(op) = self.peek_cmp_op() {
                    self.consume_cmp_op(op);
                    let rhs = self.expression(5)?;
                    if self.peek_cmp_op().is_some() {
                        return Err(
                            self.error("chained comparisons are not supported".to_string())
                        );
                    }
                    self.nest()?;
                    lhs = Expr::Compare {
                        op,
                        left: Box::new(lhs),
                        right: Box::new(rhs),
                    };
                    continue;
                }
            }
            let Some(op) = self.peek_bin_op() else { break };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let next_min = if op.right_assoc() { prec } else { prec + 1 };
            let rhs = self.expression(next_min)?;
            self.nest()?;
            lhs = Expr::BinOp {
                op,
                left: Box::new(lhs),
                right: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn peek_cmp_op(&self) -> Option<CmpOpKind> {
        match self.peek_kind() {
            TokenKind::Lt => Some(CmpOpKind::Lt),
            TokenKind::Gt => Some(CmpOpKind::Gt),
            TokenKind::Le => Some(CmpOpKind::Le),
            TokenKind::Ge => Some(CmpOpKind::Ge),
            TokenKind::EqEq => Some(CmpOpKind::Eq),
            TokenKind::NotEq => Some(CmpOpKind::Ne),
            TokenKind::In => Some(CmpOpKind::In),
            TokenKind::Not
                if matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::In)
                ) =>
            {
                Some(CmpOpKind::NotIn)
            }
            _ => None,
        }
    }

    fn consume_cmp_op(&mut self, op: CmpOpKind) {
        self.bump();
        if op == CmpOpKind::NotIn {
            self.bump(); // the `in` after `not`
        }
    }

    fn peek_bin_op(&self) -> Option<BinOpKind> {
        match self.peek_kind() {
            TokenKind::Plus => Some(BinOpKind::Add),
            TokenKind::Minus => Some(BinOpKind::Sub),
            TokenKind::Star => Some(BinOpKind::Mul),
            TokenKind::Slash => Some(BinOpKind::Div),
            TokenKind::DoubleSlash => Some(BinOpKind::FloorDiv),
            TokenKind::Percent => Some(BinOpKind::Mod),
            TokenKind::DoubleStar => Some(BinOpKind::Pow),
            TokenKind::Amp => Some(BinOpKind::BitAnd),
            TokenKind::Pipe => Some(BinOpKind::BitOr),
            TokenKind::Caret => Some(BinOpKind::BitXor),
            TokenKind::And => Some(BinOpKind::And),
            TokenKind::Or => Some(BinOpKind::Or),
            _ => None,
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnaryOpKind::Neg),
            TokenKind::Tilde => Some(UnaryOpKind::Invert),
            TokenKind::Not if self.peek_cmp_op() != Some(CmpOpKind::NotIn) => {
                Some(UnaryOpKind::Not)
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            // `not` binds looser than comparisons; `-`/`~` bind tight.
            let operand = if op == UnaryOpKind::Not {
                self.expression(4)?
            } else {
                self.expression(11)?
            };
            // Fold `-<number literal>` into a literal so `-1` is atomic.
            if op == UnaryOpKind::Neg {
                match operand {
                    Expr::Int(v) => return Ok(Expr::Int(-v)),
                    Expr::Float(f) => return Ok(Expr::Float(crate::ast::FloatLit(-f.0))),
                    other => {
                        return Ok(Expr::UnaryOp {
                            op,
                            operand: Box::new(other),
                        })
                    }
                }
            }
            return Ok(Expr::UnaryOp {
                op,
                operand: Box::new(operand),
            });
        }
        self.postfix()
    }

    /// Attribute, call and subscript links; each one nests a level.
    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.atom()?;
        loop {
            match self.peek_kind() {
                TokenKind::Dot => {
                    self.bump();
                    let attr = self.expect_ident()?;
                    expr = Expr::Attribute {
                        value: Box::new(expr),
                        attr,
                    };
                }
                TokenKind::LParen => {
                    self.bump();
                    let args = self.call_args()?;
                    self.expect(&TokenKind::RParen)?;
                    expr = Expr::Call {
                        func: Box::new(expr),
                        args,
                    };
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.subscript_index()?;
                    self.expect(&TokenKind::RBracket)?;
                    expr = Expr::Subscript {
                        value: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                _ => break,
            }
            self.nest()?;
        }
        Ok(expr)
    }

    fn call_args(&mut self) -> Result<Vec<Arg>, ParseError> {
        let mut args = Vec::new();
        while !self.at(&TokenKind::RParen) {
            // keyword argument: IDENT '=' expr (but not IDENT '==' ...)
            let is_kw = matches!(self.peek_kind(), TokenKind::Ident(_))
                && matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Assign)
                );
            if is_kw {
                let name = self.expect_ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.expression(0)?;
                args.push(Arg::kw(name, value));
            } else {
                args.push(Arg::pos(self.expression(0)?));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(args)
    }

    fn subscript_index(&mut self) -> Result<Expr, ParseError> {
        // A slice can omit lower/upper/step: `[:]`, `[1:]`, `[:5]`, `[::2]`.
        let lower = if self.at(&TokenKind::Colon) {
            None
        } else {
            Some(Box::new(self.testlist()?))
        };
        if !self.eat(&TokenKind::Colon) {
            return lower
                .map(|b| *b)
                .ok_or_else(|| self.error("empty subscript".to_string()));
        }
        let upper = if self.at(&TokenKind::Colon) || self.at(&TokenKind::RBracket) {
            None
        } else {
            Some(Box::new(self.expression(0)?))
        };
        let step = if self.eat(&TokenKind::Colon) {
            if self.at(&TokenKind::RBracket) {
                None
            } else {
                Some(Box::new(self.expression(0)?))
            }
        } else {
            None
        };
        Ok(Expr::Slice { lower, upper, step })
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let tok = self.peek().clone();
        match tok.kind {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::Name(name))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Float(crate::ast::FloatLit(v)))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            TokenKind::NoneLit => {
                self.bump();
                Ok(Expr::NoneLit)
            }
            TokenKind::LParen => {
                self.bump();
                if self.eat(&TokenKind::RParen) {
                    return Ok(Expr::Tuple(vec![]));
                }
                let inner = self.testlist()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::LBracket => {
                self.bump();
                let mut items = Vec::new();
                while !self.at(&TokenKind::RBracket) {
                    items.push(self.expression(0)?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                Ok(Expr::List(items))
            }
            TokenKind::LBrace => {
                self.bump();
                let mut pairs = Vec::new();
                while !self.at(&TokenKind::RBrace) {
                    let key = self.expression(0)?;
                    self.expect(&TokenKind::Colon)?;
                    let value = self.expression(0)?;
                    pairs.push((key, value));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RBrace)?;
                Ok(Expr::Dict(pairs))
            }
            other => Err(self.error(format!("unexpected {}", other.describe()))),
        }
    }
}

/// True if a token can start an expression (used for trailing-comma logic).
fn starts_expression(kind: &TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Ident(_)
            | TokenKind::Str(_)
            | TokenKind::Int(_)
            | TokenKind::Float(_)
            | TokenKind::True
            | TokenKind::False
            | TokenKind::NoneLit
            | TokenKind::LParen
            | TokenKind::LBracket
            | TokenKind::LBrace
            | TokenKind::Minus
            | TokenKind::Tilde
            | TokenKind::Not
    )
}

/// Checks that an expression is a legal assignment target.
fn validate_target(expr: &Expr) -> Result<(), String> {
    match expr {
        Expr::Name(_) | Expr::Subscript { .. } | Expr::Attribute { .. } => Ok(()),
        Expr::Tuple(items) | Expr::List(items) => {
            for item in items {
                validate_target(item)?;
            }
            Ok(())
        }
        other => Err(format!("invalid assignment target: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::FloatLit;

    #[test]
    fn parses_imports() {
        let m = parse_module("import pandas as pd\nimport numpy\n").unwrap();
        assert_eq!(
            m.stmts[0],
            Stmt::Import {
                module: "pandas".into(),
                alias: Some("pd".into()),
                span: Span::new(1, 1)
            }
        );
        assert_eq!(
            m.stmts[1],
            Stmt::Import {
                module: "numpy".into(),
                alias: None,
                span: Span::new(2, 1)
            }
        );
    }

    #[test]
    fn parses_from_import_with_aliases() {
        let m =
            parse_module("from sklearn.model_selection import train_test_split as tts, KFold\n")
                .unwrap();
        match &m.stmts[0] {
            Stmt::FromImport { module, names, .. } => {
                assert_eq!(module, "sklearn.model_selection");
                assert_eq!(
                    names,
                    &vec![
                        ("train_test_split".to_string(), Some("tts".to_string())),
                        ("KFold".to_string(), None)
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_pandas_chain() {
        let m = parse_module("df = pd.read_csv('diabetes.csv')\n").unwrap();
        match &m.stmts[0] {
            Stmt::Assign { target, value, .. } => {
                assert_eq!(target, &Expr::name("df"));
                assert_eq!(
                    value,
                    &Expr::call(
                        Expr::attr(Expr::name("pd"), "read_csv"),
                        vec![Expr::str("diabetes.csv")]
                    )
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_mask_filter_with_precedence() {
        let e = parse_expr("df[(df['Age'] > 18) & (df['Age'] < 25)]").unwrap();
        match e {
            Expr::Subscript { index, .. } => match *index {
                Expr::BinOp {
                    op: BinOpKind::BitAnd,
                    ..
                } => {}
                other => panic!("expected & mask, got {other:?}"),
            },
            other => panic!("expected subscript, got {other:?}"),
        }
    }

    #[test]
    fn comparison_binds_looser_than_bitand_operands() {
        // Python parses `a & b > c` as `a & (b > c)`... actually `&` binds
        // tighter than `>`, i.e. `(a & b) > c`. Verify our precedence agrees.
        let e = parse_expr("a & b > c").unwrap();
        match e {
            Expr::Compare {
                op: CmpOpKind::Gt,
                left,
                ..
            } => {
                assert!(matches!(
                    *left,
                    Expr::BinOp {
                        op: BinOpKind::BitAnd,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_keyword_arguments() {
        let e = parse_expr("df.fillna(0, inplace=True)").unwrap();
        match e {
            Expr::Call { args, .. } => {
                assert_eq!(args[0], Arg::pos(Expr::Int(0)));
                assert_eq!(args[1], Arg::kw("inplace", Expr::Bool(true)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_tuple_unpacking_assignment() {
        let m = parse_module("X_train, X_test = split(df)\n").unwrap();
        match &m.stmts[0] {
            Stmt::Assign { target, .. } => {
                assert_eq!(
                    target,
                    &Expr::Tuple(vec![Expr::name("X_train"), Expr::name("X_test")])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_subscript_assignment() {
        let m = parse_module("df['Age'] = df['Age'].fillna(30)\n").unwrap();
        assert!(matches!(
            &m.stmts[0],
            Stmt::Assign {
                target: Expr::Subscript { .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_slices() {
        assert!(matches!(
            parse_expr("df[0:100]").unwrap(),
            Expr::Subscript { .. }
        ));
        let e = parse_expr("a[:5]").unwrap();
        match e {
            Expr::Subscript { index, .. } => match *index {
                Expr::Slice { lower, upper, step } => {
                    assert!(lower.is_none());
                    assert_eq!(upper, Some(Box::new(Expr::Int(5))));
                    assert!(step.is_none());
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_expr("a[::2]").is_ok());
        assert!(parse_expr("a[:]").is_ok());
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_expr("-1").unwrap(), Expr::Int(-1));
        assert_eq!(parse_expr("-2.5").unwrap(), Expr::Float(FloatLit(-2.5)));
    }

    #[test]
    fn pow_is_right_associative() {
        let e = parse_expr("2 ** 3 ** 2").unwrap();
        match e {
            Expr::BinOp {
                op: BinOpKind::Pow,
                left,
                right,
            } => {
                assert_eq!(*left, Expr::Int(2));
                assert!(matches!(
                    *right,
                    Expr::BinOp {
                        op: BinOpKind::Pow,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn not_in_is_one_operator() {
        let e = parse_expr("x not in [1, 2]").unwrap();
        assert!(matches!(
            e,
            Expr::Compare {
                op: CmpOpKind::NotIn,
                ..
            }
        ));
    }

    #[test]
    fn dict_literals() {
        let e = parse_expr("{'a': 1, 'b': 2}").unwrap();
        match e {
            Expr::Dict(pairs) => assert_eq!(pairs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_chained_assignment_and_bad_targets() {
        assert!(parse_module("a = b = 1\n").is_err());
        assert!(parse_module("1 = a\n").is_err());
        assert!(parse_module("f(x) = 2\n").is_err());
    }

    #[test]
    fn rejects_chained_comparison() {
        assert!(parse_expr("1 < x < 10").is_err());
    }

    #[test]
    fn rejects_control_flow_tokens() {
        // `if` lexes as an identifier, but `if x:` then hits `:` where a
        // newline/operator is expected.
        assert!(parse_module("if x:\n").is_err());
    }

    #[test]
    fn multiline_call_is_one_statement() {
        let m = parse_module("df = df.drop(\n    ['a', 'b'],\n    axis=1,\n)\n").unwrap();
        assert_eq!(m.stmts.len(), 1);
    }

    #[test]
    fn expression_statement() {
        let m = parse_module("df.dropna(inplace=True)\n").unwrap();
        assert!(matches!(&m.stmts[0], Stmt::ExprStmt { .. }));
    }

    #[test]
    fn spans_record_statement_lines() {
        let m = parse_module("a = 1\n\n# comment\nb = 2\n").unwrap();
        assert_eq!(m.stmts[0].span().line, 1);
        assert_eq!(m.stmts[1].span().line, 4);
    }

    fn nesting_error(src: &str) -> Option<String> {
        match parse_module(src) {
            Ok(_) => None,
            Err(PyAstError::Parse(e)) if e.message.contains("nests deeper than") => Some(e.message),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn nesting_parses_at_the_limit_and_is_refused_one_level_past() {
        // The outermost expression is one level, so one parenthesis or
        // attribute fewer than the limit fits; `1+…+1` with N terms is N
        // levels deep, built by the operator loop rather than recursion.
        let parens: fn(usize) -> String = |n| format!("x = {}1{}\n", "(".repeat(n), ")".repeat(n));
        let sum: fn(usize) -> String = |n| format!("x = 1{}\n", "+1".repeat(n - 1));
        let attrs: fn(usize) -> String = |n| format!("x = df{}\n", ".a".repeat(n));
        for (shape, at_limit) in [
            (parens, MAX_NESTING - 1),
            (sum, MAX_NESTING),
            (attrs, MAX_NESTING - 1),
        ] {
            let ok = shape(at_limit);
            assert_eq!(nesting_error(&ok), None, "{}", &ok[..20]);
            // The printer adds no nesting, so a script at the limit
            // round-trips through the text the search re-parses.
            let printed = crate::printer::print_module(&parse_module(&ok).unwrap());
            assert_eq!(nesting_error(&printed), None, "{}", &printed[..20]);
            let past = shape(at_limit + 1);
            assert_eq!(
                nesting_error(&past).as_deref(),
                Some("expression nests deeper than 200 levels"),
                "{}",
                &past[..20]
            );
        }
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        const N: usize = 200_000;
        for src in [
            format!("x = {}1{}\n", "(".repeat(N), ")".repeat(N)),
            format!("x = 1{}\n", "+1".repeat(N)),
            format!("x = df{}\n", ".a".repeat(N)),
            format!("x = {}1{}\n", "[".repeat(N), "]".repeat(N)),
            format!("x = {}1{}\n", "f(".repeat(N), ")".repeat(N)),
            format!("x = {}1\n", "-".repeat(N)),
            format!("x = {}y\n", "not ".repeat(N)),
            format!("x = df{}\n", "[0]".repeat(N)),
            format!("x = 1{}\n", " < 1 and 1".repeat(N)),
        ] {
            assert!(nesting_error(&src).is_some(), "{}", &src[..20]);
        }
    }
}
