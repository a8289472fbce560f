//! Recursive-descent parser for MiniLang.
//!
//! Grammar (EBNF):
//!
//! ```text
//! program    := "program" ident ";" [ "var" decl+ ] block "."
//! decl       := ident {"," ident} ":" type ";"
//! type       := "int" | "real" | "bool" | "array" "[" intlit "]" "of" type
//! block      := "begin" stmt* "end"
//! stmt       := assign ";" | if | while | for | print ";" | block ";"
//! assign     := lvalue ":=" expr
//! if         := "if" expr "then" stmt-or-block [ "else" stmt-or-block ]
//! while      := "while" expr "do" stmt-or-block
//! for        := "for" ident ":=" expr ("to"|"downto") expr "do" stmt-or-block
//! print      := "print" expr
//! expr       := orterm
//! orterm     := andterm { "or" andterm }
//! andterm    := relterm { "and" relterm }
//! relterm    := addterm [ relop addterm ]
//! addterm    := multerm { ("+"|"-") multerm }
//! multerm    := unary { ("*"|"/"|"div"|"mod") unary }
//! unary      := ("-"|"not") unary | primary
//! primary    := literal | ident | ident "[" expr "]" | intrinsic "(" expr ")"
//!             | "(" expr ")"
//! ```
//!
//! Statements and expressions nest at most [`MAX_DEPTH`] levels deep.

use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, LexError, Token, TokenKind};

/// A parse (or lex) error with position information.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// How deep statement bodies and expressions may nest: each `then`, `else`
/// or `do` body, unary operator, parenthesised, subscript or argument
/// expression opens a level, and so does each operator on an expression's
/// longest path. The parser, the lowering and every other pass over the AST
/// recurse once per level, so deeper source is a [`ParseError`], not a
/// stack overflow. The bundled programs reach 12 levels at most.
pub const MAX_DEPTH: usize = 256;

/// Parse MiniLang source into an AST.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut sp = parmem_obs::span("ir.parse");
    sp.attr("bytes", src.len());
    let tokens = {
        let mut lsp = parmem_obs::span("ir.lex");
        let tokens = lex(src)?;
        lsp.attr("tokens", tokens.len());
        tokens
    };
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open around `pos` (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn error<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError {
            message: msg.into(),
            line,
            col,
        })
    }

    fn too_deep<T>(&self) -> Result<T, ParseError> {
        self.error(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Run `f` one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.too_deep();
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            self.error(format!("expected {kind}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if *self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => self.error(format!("expected identifier, found {other}")),
        }
    }

    // ---- grammar productions ----

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect(TokenKind::Program)?;
        let name = self.ident()?;
        self.expect(TokenKind::Semicolon)?;

        let mut decls = Vec::new();
        if self.eat(TokenKind::Var) {
            while matches!(self.peek(), TokenKind::Ident(_)) {
                decls.push(self.decl()?);
            }
        }

        let body = self.block()?;
        self.expect(TokenKind::Dot)?;
        if *self.peek() != TokenKind::Eof {
            return self.error(format!("trailing input after `end.`: {}", self.peek()));
        }
        Ok(Program { name, decls, body })
    }

    fn decl(&mut self) -> Result<Decl, ParseError> {
        let line = self.line();
        let mut names = vec![self.ident()?];
        while self.eat(TokenKind::Comma) {
            names.push(self.ident()?);
        }
        self.expect(TokenKind::Colon)?;
        let ty = self.decl_ty()?;
        self.expect(TokenKind::Semicolon)?;
        Ok(Decl { names, ty, line })
    }

    fn scalar_ty(&mut self) -> Result<Ty, ParseError> {
        match self.advance() {
            TokenKind::IntKw => Ok(Ty::Int),
            TokenKind::RealKw => Ok(Ty::Real),
            TokenKind::BoolKw => Ok(Ty::Bool),
            other => self.error(format!("expected type, found {other}")),
        }
    }

    fn decl_ty(&mut self) -> Result<DeclTy, ParseError> {
        if self.eat(TokenKind::Array) {
            self.expect(TokenKind::LBracket)?;
            let len = match self.advance() {
                TokenKind::IntLit(v) if v > 0 => v as usize,
                other => {
                    return self.error(format!("expected positive array length, found {other}"))
                }
            };
            self.expect(TokenKind::RBracket)?;
            self.expect(TokenKind::Of)?;
            let elem = self.scalar_ty()?;
            if elem == Ty::Bool {
                return self.error("bool arrays are not supported");
            }
            Ok(DeclTy::Array { len, elem })
        } else {
            Ok(DeclTy::Scalar(self.scalar_ty()?))
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(TokenKind::Begin)?;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::End {
            stmts.push(self.stmt()?);
        }
        self.expect(TokenKind::End)?;
        Ok(stmts)
    }

    /// A single statement or a `begin..end` block, as used after
    /// then/else/do.
    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.nested(|p| {
            if *p.peek() == TokenKind::Begin {
                // Optional `;` after a block in statement position is
                // consumed by the caller loop where needed.
                p.block()
            } else {
                Ok(vec![p.stmt()?])
            }
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::If => {
                self.advance();
                let cond = self.expr()?;
                self.expect(TokenKind::Then)?;
                let then_body = self.stmt_or_block()?;
                let else_body = if self.eat(TokenKind::Else) {
                    self.stmt_or_block()?
                } else {
                    Vec::new()
                };
                self.eat(TokenKind::Semicolon);
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                })
            }
            TokenKind::While => {
                self.advance();
                let cond = self.expr()?;
                self.expect(TokenKind::Do)?;
                let body = self.stmt_or_block()?;
                self.eat(TokenKind::Semicolon);
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::For => {
                self.advance();
                let var = self.ident()?;
                self.expect(TokenKind::Assign)?;
                let from = self.expr()?;
                let down = match self.advance() {
                    TokenKind::To => false,
                    TokenKind::Downto => true,
                    other => {
                        return self.error(format!("expected `to` or `downto`, found {other}"))
                    }
                };
                let to = self.expr()?;
                self.expect(TokenKind::Do)?;
                let body = self.stmt_or_block()?;
                self.eat(TokenKind::Semicolon);
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    down,
                    body,
                    line,
                })
            }
            TokenKind::Print => {
                self.advance();
                let value = self.expr()?;
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Print { value, line })
            }
            TokenKind::Begin => {
                // Nested bare block: flatten into an If with constant true?
                // Simpler: disallow — blocks appear only after then/else/do.
                self.error("bare `begin` block not allowed here")
            }
            TokenKind::Ident(_) => {
                let name = self.ident()?;
                let target = if self.eat(TokenKind::LBracket) {
                    let index = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    LValue::Index { array: name, index }
                } else {
                    LValue::Var(name)
                };
                self.expect(TokenKind::Assign)?;
                let value = self.expr()?;
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Assign {
                    target,
                    value,
                    line,
                })
            }
            other => self.error(format!("expected statement, found {other}")),
        }
    }

    // ---- expressions (precedence climbing) ----
    //
    // Each production returns its expression with the expression's height
    // (the nodes on its longest root-to-leaf path). An operator chain
    // `a + b + c` is parsed by a loop but builds a left-deep tree, so
    // heights, not the parser's recursion, tell how deep it reaches.

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.binary(Prec::Or)?.0)
    }

    /// The operators binding at least as tightly as `min`, folded
    /// left-associatively, except that a comparison takes no comparison
    /// operand (`a < b < c` stops after `a < b`).
    fn binary(&mut self, min: Prec) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.unary()?;
        // After an operator, the recursive call has taken every tighter
        // one, so only operators binding no tighter may follow here, and
        // after a comparison none binding as tightly as a comparison.
        let mut ceiling = Prec::Unary;
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min || prec > ceiling {
                break;
            }
            self.advance();
            let (rhs, rhs_height) = self.binary(prec.next())?;
            height = 1 + height.max(rhs_height);
            if self.depth + height > MAX_DEPTH {
                return self.too_deep();
            }
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            ceiling = if prec == Prec::Rel { Prec::And } else { prec };
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr, usize), ParseError> {
        let op = if self.eat(TokenKind::Minus) {
            UnOp::Neg
        } else if self.eat(TokenKind::Not) {
            UnOp::Not
        } else {
            return self.primary();
        };
        let (e, height) = self.nested(Self::unary)?;
        let e = Expr::Unary {
            op,
            expr: Box::new(e),
        };
        Ok((e, height + 1))
    }

    fn primary(&mut self) -> Result<(Expr, usize), ParseError> {
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.advance();
                Ok((Expr::IntLit(v), 1))
            }
            TokenKind::RealLit(v) => {
                self.advance();
                Ok((Expr::RealLit(v), 1))
            }
            TokenKind::TrueKw => {
                self.advance();
                Ok((Expr::BoolLit(true), 1))
            }
            TokenKind::FalseKw => {
                self.advance();
                Ok((Expr::BoolLit(false), 1))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.nested(|p| p.binary(Prec::Or))?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.advance();
                if self.eat(TokenKind::LBracket) {
                    let (index, height) = self.nested(|p| p.binary(Prec::Or))?;
                    self.expect(TokenKind::RBracket)?;
                    let e = Expr::Index {
                        array: name,
                        index: Box::new(index),
                    };
                    Ok((e, height + 1))
                } else if *self.peek() == TokenKind::LParen {
                    let func = match Intrinsic::from_name(&name) {
                        Some(f) => f,
                        None => return self.error(format!("unknown intrinsic function `{name}`")),
                    };
                    self.advance(); // (
                    let (arg, height) = self.nested(|p| p.binary(Prec::Or))?;
                    self.expect(TokenKind::RParen)?;
                    let e = Expr::Call {
                        func,
                        arg: Box::new(arg),
                    };
                    Ok((e, height + 1))
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            other => self.error(format!("expected expression, found {other}")),
        }
    }
}

/// Binary-operator precedence, loosest first. No binary operator binds
/// at `Unary`, so `binary(Prec::Unary)` parses one unary operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    Or,
    And,
    Rel,
    Add,
    Mul,
    Unary,
}

impl Prec {
    /// The next tighter level.
    fn next(self) -> Prec {
        match self {
            Prec::Or => Prec::And,
            Prec::And => Prec::Rel,
            Prec::Rel => Prec::Add,
            Prec::Add => Prec::Mul,
            Prec::Mul | Prec::Unary => Prec::Unary,
        }
    }
}

fn binary_op(t: &TokenKind) -> Option<(BinOp, Prec)> {
    Some(match t {
        TokenKind::Or => (BinOp::Or, Prec::Or),
        TokenKind::And => (BinOp::And, Prec::And),
        TokenKind::Eq => (BinOp::Eq, Prec::Rel),
        TokenKind::Ne => (BinOp::Ne, Prec::Rel),
        TokenKind::Lt => (BinOp::Lt, Prec::Rel),
        TokenKind::Le => (BinOp::Le, Prec::Rel),
        TokenKind::Gt => (BinOp::Gt, Prec::Rel),
        TokenKind::Ge => (BinOp::Ge, Prec::Rel),
        TokenKind::Plus => (BinOp::Add, Prec::Add),
        TokenKind::Minus => (BinOp::Sub, Prec::Add),
        TokenKind::Star => (BinOp::Mul, Prec::Mul),
        TokenKind::Slash => (BinOp::Div, Prec::Mul),
        TokenKind::Div => (BinOp::IDiv, Prec::Mul),
        TokenKind::Mod => (BinOp::Mod, Prec::Mul),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("program t; begin end.").unwrap();
        assert_eq!(p.name, "t");
        assert!(p.decls.is_empty());
        assert!(p.body.is_empty());
    }

    #[test]
    fn parses_declarations() {
        let p = parse(
            "program t;
             var i, j: int;
                 x: real;
                 a: array[16] of real;
             begin end.",
        )
        .unwrap();
        assert_eq!(p.decls.len(), 3);
        assert_eq!(p.decls[0].names, vec!["i", "j"]);
        assert_eq!(p.decls[0].ty, DeclTy::Scalar(Ty::Int));
        assert_eq!(
            p.decls[2].ty,
            DeclTy::Array {
                len: 16,
                elem: Ty::Real
            }
        );
    }

    #[test]
    fn parses_assignment_and_precedence() {
        let p = parse("program t; var x: int; begin x := 1 + 2 * 3; end.").unwrap();
        match &p.body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("wrong tree: {other:?}"),
            },
            other => panic!("not an assign: {other:?}"),
        }
    }

    #[test]
    fn binary_operators_associate_left_and_comparisons_do_not_chain() {
        let p = parse("program t; var x: int; begin x := 8 - 4 - 2 * 3 div 2; end.").unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else {
            panic!("not an assign: {:?}", p.body[0]);
        };
        // ((8 - 4) - ((2 * 3) div 2))
        let Expr::Binary {
            op: BinOp::Sub,
            lhs,
            rhs,
        } = value
        else {
            panic!("wrong tree: {value:?}");
        };
        assert!(matches!(**lhs, Expr::Binary { op: BinOp::Sub, .. }));
        let Expr::Binary {
            op: BinOp::IDiv,
            lhs: product,
            ..
        } = &**rhs
        else {
            panic!("wrong tree: {rhs:?}");
        };
        assert!(matches!(**product, Expr::Binary { op: BinOp::Mul, .. }));

        for chained in ["1 < 2 < 3", "true or 1 < 2 < 3", "1 < 2 and 2 < 3 = true"] {
            let src = format!("program t; var b: bool; begin b := {chained}; end.");
            let e = parse(&src).unwrap_err();
            assert!(e.message.contains("expected `;`"), "{chained}: {e}");
        }
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            "program t; var i, n: int;
             begin
               n := 10;
               i := 0;
               while i < n do begin
                 i := i + 1;
               end;
               if i = n then print i; else print 0;
               for i := 0 to n - 1 do print i;
             end.",
        )
        .unwrap();
        assert_eq!(p.body.len(), 5);
        assert!(matches!(p.body[2], Stmt::While { .. }));
        assert!(matches!(p.body[3], Stmt::If { .. }));
        assert!(matches!(p.body[4], Stmt::For { .. }));
    }

    #[test]
    fn parses_array_access_and_intrinsics() {
        let p = parse(
            "program t; var a: array[8] of real; x: real;
             begin a[3] := sqrt(x) + sin(a[2]); end.",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Assign {
                target: LValue::Index { array, .. },
                value,
                ..
            } => {
                assert_eq!(array, "a");
                assert!(matches!(value, Expr::Binary { op: BinOp::Add, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_logical_operators() {
        let p = parse(
            "program t; var b: bool; x: int;
             begin b := x > 0 and not (x = 5) or false; end.",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::Assign { value, .. } => {
                assert!(matches!(value, Expr::Binary { op: BinOp::Or, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_downto_loop() {
        let p = parse("program t; var i: int; begin for i := 9 downto 0 do print i; end.").unwrap();
        match &p.body[0] {
            Stmt::For { down, .. } => assert!(*down),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_intrinsic() {
        let e = parse("program t; var x: int; begin x := foo(1); end.").unwrap_err();
        assert!(e.message.contains("unknown intrinsic"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse("program t; var x: int; begin x := 1 end.").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("program t; begin end. extra").is_err());
    }

    /// A program whose body is `stmt` on line 2.
    fn with_body(stmt: &str) -> String {
        format!("program t; var x: int;\nbegin {stmt}\nend.")
    }

    #[test]
    fn deep_nesting_is_a_parse_error() {
        let parens = format!("x := {}1{};", "(".repeat(5000), ")".repeat(5000));
        let ifs = format!("{}x := 2;", "if x > 0 then ".repeat(5000));
        let negations = format!("x := {}1;", "-".repeat(20_000));
        // Operator chains nest too: each `+` puts the chain so far one
        // level deeper, whether or not parentheses open around it.
        let chain = format!("x := 1{};", " + 1".repeat(20_000));
        let grouped = format!("x := {}1{};", "(".repeat(100), " + 1 + 1 + 1)".repeat(100));
        for src in [parens, ifs, negations, chain, grouped].map(|s| with_body(&s)) {
            let e = parse(&src).unwrap_err();
            assert!(e.message.contains("nesting deeper than 256"), "{e}");
            assert_eq!(e.line, 2, "{e}");
        }
    }

    #[test]
    fn nesting_within_the_bound_parses() {
        let parens = format!("x := {}1{};", "(".repeat(200), ")".repeat(200));
        let ifs = format!("{}x := 2;", "if x > 0 then ".repeat(200));
        let negations = format!("x := {}1;", "-".repeat(200));
        let chain = format!("x := 1{};", " + 1".repeat(200));
        for src in [parens, ifs, negations, chain].map(|s| with_body(&s)) {
            parse(&src).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn error_carries_position() {
        let e = parse("program t;\nbegin\n  x := ;\nend.").unwrap_err();
        assert_eq!(e.line, 3);
    }
}
