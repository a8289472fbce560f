//! Loop unrolling — the classic ILP-raising transformation LIW compilers
//! apply before scheduling (the paper's RLIW compiler exposed fine-grained
//! parallelism the same way; our per-block list scheduler needs bigger
//! blocks to fill wide instruction words).
//!
//! AST-level, innermost `for` loops only:
//!
//! ```text
//! for i := a to b do S(i)
//! ```
//! becomes
//! ```text
//! i := a;
//! while i + (U-1) <= b do begin
//!     S(i); S(i+1); ... S(i+U-1);      // reads of i replaced by i+j
//!     i := i + U;
//! end;
//! while i <= b do begin S(i); i := i + 1; end;
//! ```
//!
//! Body copies index with `i + j` instead of chained increments, so address
//! computations of different iterations are independent and schedule in
//! parallel. Loops whose body writes the induction variable, or contains
//! inner loops, are left untouched. `downto` loops unroll symmetrically.

use crate::ast::{BinOp, Expr, LValue, Program, Stmt};

/// Unrolling configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnrollConfig {
    /// Bodies are replicated this many times per iteration of the unrolled
    /// loop. 1 = no unrolling.
    pub factor: usize,
    /// Loops whose body exceeds this many statements are not unrolled
    /// (code-size guard).
    pub max_body_stmts: usize,
}

impl Default for UnrollConfig {
    fn default() -> Self {
        UnrollConfig {
            factor: 4,
            max_body_stmts: 12,
        }
    }
}

/// Unroll all eligible innermost `for` loops of `p`.
pub fn unroll_program(p: &Program, cfg: UnrollConfig) -> Program {
    if cfg.factor <= 1 {
        return p.clone();
    }
    let mut sp = parmem_obs::span("ir.unroll");
    sp.attr("factor", cfg.factor);
    Program {
        name: p.name.clone(),
        decls: p.decls.clone(),
        body: unroll_stmts(&p.body, cfg),
    }
}

fn unroll_stmts(stmts: &[Stmt], cfg: UnrollConfig) -> Vec<Stmt> {
    stmts.iter().flat_map(|s| unroll_stmt(s, cfg)).collect()
}

fn unroll_stmt(s: &Stmt, cfg: UnrollConfig) -> Vec<Stmt> {
    match s {
        Stmt::For {
            var,
            from,
            to,
            down,
            body,
            line,
        } => {
            let body_unrolled = unroll_stmts(body, cfg);
            // The unrolled form re-evaluates `to` at each iteration, whereas
            // Pascal `for` evaluates it once — so the body must not write
            // any variable `to` reads (nor the induction variable).
            let mut bound_vars = Vec::new();
            expr_vars(to, &mut bound_vars);
            let bound_invariant = bound_vars.iter().all(|v| !writes_var(body, v));
            if is_innermost(body)
                && body.len() <= cfg.max_body_stmts
                && !writes_var(body, var)
                && bound_invariant
            {
                unroll_for(var, from, to, *down, body, *line, cfg.factor)
            } else {
                vec![Stmt::For {
                    var: var.clone(),
                    from: from.clone(),
                    to: to.clone(),
                    down: *down,
                    body: body_unrolled,
                    line: *line,
                }]
            }
        }
        Stmt::While { cond, body, line } => vec![Stmt::While {
            cond: cond.clone(),
            body: unroll_stmts(body, cfg),
            line: *line,
        }],
        Stmt::If {
            cond,
            then_body,
            else_body,
            line,
        } => vec![Stmt::If {
            cond: cond.clone(),
            then_body: unroll_stmts(then_body, cfg),
            else_body: unroll_stmts(else_body, cfg),
            line: *line,
        }],
        other => vec![other.clone()],
    }
}

/// Collect every variable an expression reads.
fn expr_vars(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Var(v) => out.push(v.clone()),
        Expr::Index { array, index } => {
            out.push(array.clone());
            expr_vars(index, out);
        }
        Expr::Unary { expr, .. } => expr_vars(expr, out),
        Expr::Binary { lhs, rhs, .. } => {
            expr_vars(lhs, out);
            expr_vars(rhs, out);
        }
        Expr::Call { arg, .. } => expr_vars(arg, out),
        Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) => {}
    }
}

/// No nested loops inside.
fn is_innermost(body: &[Stmt]) -> bool {
    body.iter().all(|s| match s {
        Stmt::For { .. } | Stmt::While { .. } => false,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => is_innermost(then_body) && is_innermost(else_body),
        _ => true,
    })
}

/// Whether any statement assigns `var`.
fn writes_var(body: &[Stmt], var: &str) -> bool {
    body.iter().any(|s| match s {
        Stmt::Assign {
            target: LValue::Var(v),
            ..
        } => v == var,
        Stmt::Assign { .. } | Stmt::Print { .. } => false,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => writes_var(then_body, var) || writes_var(else_body, var),
        Stmt::While { body, .. } => writes_var(body, var),
        Stmt::For {
            var: inner,
            body,
            from,
            to,
            ..
        } => {
            inner == var || writes_var(body, var) || {
                // from/to are expressions; they cannot write.
                let _ = (from, to);
                false
            }
        }
    })
}

fn unroll_for(
    var: &str,
    from: &Expr,
    to: &Expr,
    down: bool,
    body: &[Stmt],
    line: u32,
    factor: usize,
) -> Vec<Stmt> {
    let u = factor as i64;
    let ivar = || Expr::Var(var.to_string());
    let offset = |j: i64| -> Expr {
        if j == 0 {
            ivar()
        } else {
            Expr::Binary {
                op: if down { BinOp::Sub } else { BinOp::Add },
                lhs: Box::new(ivar()),
                rhs: Box::new(Expr::IntLit(j)),
            }
        }
    };

    let mut out = Vec::new();
    // i := from
    out.push(Stmt::Assign {
        target: LValue::Var(var.to_string()),
        value: from.clone(),
        line,
    });

    // Main unrolled loop: while i ± (U-1) within bound.
    let guard_lhs = offset(u - 1);
    let cond = Expr::Binary {
        op: if down { BinOp::Ge } else { BinOp::Le },
        lhs: Box::new(guard_lhs),
        rhs: Box::new(to.clone()),
    };
    let mut main_body = Vec::new();
    for j in 0..u {
        for s in body {
            main_body.push(substitute_stmt(s, var, &offset(j)));
        }
    }
    main_body.push(Stmt::Assign {
        target: LValue::Var(var.to_string()),
        value: Expr::Binary {
            op: if down { BinOp::Sub } else { BinOp::Add },
            lhs: Box::new(ivar()),
            rhs: Box::new(Expr::IntLit(u)),
        },
        line,
    });
    out.push(Stmt::While {
        cond,
        body: main_body,
        line,
    });

    // Remainder loop.
    let rem_cond = Expr::Binary {
        op: if down { BinOp::Ge } else { BinOp::Le },
        lhs: Box::new(ivar()),
        rhs: Box::new(to.clone()),
    };
    let mut rem_body = body.to_vec();
    rem_body.push(Stmt::Assign {
        target: LValue::Var(var.to_string()),
        value: Expr::Binary {
            op: if down { BinOp::Sub } else { BinOp::Add },
            lhs: Box::new(ivar()),
            rhs: Box::new(Expr::IntLit(1)),
        },
        line,
    });
    out.push(Stmt::While {
        cond: rem_cond,
        body: rem_body,
        line,
    });

    out
}

/// Replace every read of `var` in a statement by `repl`.
fn substitute_stmt(s: &Stmt, var: &str, repl: &Expr) -> Stmt {
    match s {
        Stmt::Assign {
            target,
            value,
            line,
        } => Stmt::Assign {
            target: match target {
                LValue::Var(v) => LValue::Var(v.clone()),
                LValue::Index { array, index } => LValue::Index {
                    array: array.clone(),
                    index: substitute_expr(index, var, repl),
                },
            },
            value: substitute_expr(value, var, repl),
            line: *line,
        },
        Stmt::Print { value, line } => Stmt::Print {
            value: substitute_expr(value, var, repl),
            line: *line,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
            line,
        } => Stmt::If {
            cond: substitute_expr(cond, var, repl),
            then_body: then_body
                .iter()
                .map(|s| substitute_stmt(s, var, repl))
                .collect(),
            else_body: else_body
                .iter()
                .map(|s| substitute_stmt(s, var, repl))
                .collect(),
            line: *line,
        },
        // Only eligible (innermost, loop-free) bodies are substituted, but
        // keep the recursion total for safety.
        Stmt::While { cond, body, line } => Stmt::While {
            cond: substitute_expr(cond, var, repl),
            body: body.iter().map(|s| substitute_stmt(s, var, repl)).collect(),
            line: *line,
        },
        Stmt::For {
            var: v,
            from,
            to,
            down,
            body,
            line,
        } => Stmt::For {
            var: v.clone(),
            from: substitute_expr(from, var, repl),
            to: substitute_expr(to, var, repl),
            down: *down,
            body: if v == var {
                body.clone() // shadowed: inner loop redefines the variable
            } else {
                body.iter().map(|s| substitute_stmt(s, var, repl)).collect()
            },
            line: *line,
        },
    }
}

fn substitute_expr(e: &Expr, var: &str, repl: &Expr) -> Expr {
    match e {
        Expr::Var(v) if v == var => repl.clone(),
        Expr::Var(_) | Expr::IntLit(_) | Expr::RealLit(_) | Expr::BoolLit(_) => e.clone(),
        Expr::Index { array, index } => Expr::Index {
            array: array.clone(),
            index: Box::new(substitute_expr(index, var, repl)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute_expr(expr, var, repl)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(substitute_expr(lhs, var, repl)),
            rhs: Box::new(substitute_expr(rhs, var, repl)),
        },
        Expr::Call { func, arg } => Expr::Call {
            func: *func,
            arg: Box::new(substitute_expr(arg, var, repl)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run;
    use crate::lower::lower;
    use crate::parser::parse;

    /// Semantic equivalence: unrolled program prints the same output.
    fn assert_equivalent(src: &str, factor: usize) {
        let ast = parse(src).unwrap();
        let plain = run(&lower(&ast).unwrap()).unwrap();
        let unrolled_ast = unroll_program(
            &ast,
            UnrollConfig {
                factor,
                max_body_stmts: 32,
            },
        );
        let unrolled = run(&lower(&unrolled_ast).unwrap()).unwrap();
        assert_eq!(plain.output, unrolled.output, "factor {factor}\n{src}");
    }

    #[test]
    fn simple_sum_loop() {
        let src = "program t; var i, s: int;
            begin s := 0; for i := 1 to 17 do s := s + i; print s; end.";
        for f in [2, 3, 4, 8] {
            assert_equivalent(src, f);
        }
    }

    #[test]
    fn downto_loop() {
        let src = "program t; var i, s: int;
            begin s := 0; for i := 13 downto 1 do s := s + i * i; print s; end.";
        for f in [2, 4, 5] {
            assert_equivalent(src, f);
        }
    }

    #[test]
    fn array_fill_and_read() {
        let src = "program t; var a: array[32] of int; i, s: int;
            begin
              for i := 0 to 31 do a[i] := i * 3;
              s := 0;
              for i := 0 to 31 do s := s + a[i];
              print s;
            end.";
        for f in [2, 4, 7] {
            assert_equivalent(src, f);
        }
    }

    #[test]
    fn trip_count_shorter_than_factor() {
        let src = "program t; var i, s: int;
            begin s := 0; for i := 1 to 2 do s := s + i; print s; end.";
        assert_equivalent(src, 8);
    }

    #[test]
    fn empty_trip_count() {
        let src = "program t; var i, s: int;
            begin s := 0; for i := 5 to 2 do s := s + i; print s; end.";
        assert_equivalent(src, 4);
    }

    #[test]
    fn nested_loops_unroll_inner_only() {
        let src = "program t; var i, j, s: int;
            begin
              s := 0;
              for i := 0 to 5 do
                for j := 0 to 5 do
                  s := s + i * j;
              print s;
            end.";
        assert_equivalent(src, 4);
        // Structure check: the outer loop survives as a For.
        let ast = parse(src).unwrap();
        let u = unroll_program(&ast, UnrollConfig::default());
        assert!(
            u.body.iter().any(|s| matches!(s, Stmt::For { .. })),
            "outer loop should remain a For"
        );
    }

    #[test]
    fn loop_with_conditional_body() {
        let src = "program t; var i, s: int;
            begin
              s := 0;
              for i := 0 to 20 do
                if i mod 3 = 0 then s := s + i; else s := s - 1;
              print s;
            end.";
        for f in [2, 4] {
            assert_equivalent(src, f);
        }
    }

    #[test]
    fn body_writing_induction_var_is_skipped() {
        let src = "program t; var i, s: int;
            begin
              s := 0;
              for i := 0 to 10 do begin
                s := s + i;
                i := i + 1; { skips every other value }
              end;
              print s;
            end.";
        // Must stay semantically identical (i.e. not unrolled at all).
        assert_equivalent(src, 4);
        let ast = parse(src).unwrap();
        let u = unroll_program(&ast, UnrollConfig::default());
        assert!(u.body.iter().any(|s| matches!(s, Stmt::For { .. })));
    }

    #[test]
    fn factor_one_is_identity() {
        let src = "program t; var i: int; begin for i := 0 to 3 do print i; end.";
        let ast = parse(src).unwrap();
        let u = unroll_program(
            &ast,
            UnrollConfig {
                factor: 1,
                max_body_stmts: 8,
            },
        );
        assert_eq!(ast, u);
    }

    #[test]
    fn unrolling_benchmarks_preserves_semantics() {
        // A TAYLOR-like benchmark through the unroller.
        assert_equivalent(helpers::TAYLOR_LIKE, 4);
    }

    mod helpers {
        pub const TAYLOR_LIKE: &str = "program t;
            var g: array[16] of real; f: array[16] of real; n, i, kk: int; s: real;
            begin
              n := 12;
              for i := 0 to n do g[i] := 1.0 / itor(i + 1);
              f[0] := 1.0;
              for i := 1 to n do begin
                s := 0.0;
                for kk := 1 to i do s := s + itor(kk) * g[kk] * f[i - kk];
                f[i] := s / itor(i);
              end;
              for i := 0 to n do print f[i];
            end.";
    }

    #[test]
    fn variable_bounds_work() {
        let src = "program t; var i, n, s: int;
            begin n := 19; s := 0; for i := 3 to n - 1 do s := s + i; print s; end.";
        for f in [2, 4, 6] {
            assert_equivalent(src, f);
        }
    }
}
