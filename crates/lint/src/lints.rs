//! PML-coded lint diagnostics over `liw-ir` programs, mirroring
//! `parmem-verify`'s PM certificate codes: each lint is a pure consumer of
//! the shared dataflow analyses, and the diagnostic list is deterministic
//! (sorted by code, then location, then message).

use liw_ir::cfg::{natural_loops, Cfg};
use liw_ir::tac::{BlockId, TacProgram, Terminator};
use liw_ir::webs::TERM_IDX;
use liw_ir::BitSet;

use crate::analyses::{
    ConstProp, ConstVal, DefiniteInit, Liveness, SubscriptAnalysis, SubscriptClass,
};

/// Stable lint codes (`PML` = parallel-memory lint).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// A scalar read may execute before any explicit assignment, relying on
    /// the implicit zero initialization on at least one path.
    PML001,
    /// A computed value is never read (dead store).
    PML002,
    /// A basic block is unreachable from the program entry.
    PML003,
    /// A branch condition is compile-time constant — one arm never runs.
    PML004,
    /// A constant array subscript is out of bounds.
    PML005,
    /// A strided array access whose stride shares a factor with the module
    /// count `k` under-uses the interleaved layout (bank hazard).
    PML006,
    /// A loop-invariant array subscript hits the same element — and so the
    /// same memory module — on every iteration.
    PML007,
}

impl LintCode {
    /// Stable textual code, e.g. `"PML001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::PML001 => "PML001",
            LintCode::PML002 => "PML002",
            LintCode::PML003 => "PML003",
            LintCode::PML004 => "PML004",
            LintCode::PML005 => "PML005",
            LintCode::PML006 => "PML006",
            LintCode::PML007 => "PML007",
        }
    }

    /// One-line description of what the code means.
    pub fn description(self) -> &'static str {
        match self {
            LintCode::PML001 => "read may rely on implicit zero initialization",
            LintCode::PML002 => "dead store: computed value is never read",
            LintCode::PML003 => "unreachable basic block",
            LintCode::PML004 => "branch condition is compile-time constant",
            LintCode::PML005 => "constant array subscript out of bounds",
            LintCode::PML006 => "array stride under-uses interleaved modules",
            LintCode::PML007 => "loop-invariant subscript hits one module every iteration",
        }
    }

    /// All codes, in order.
    pub const ALL: [LintCode; 7] = [
        LintCode::PML001,
        LintCode::PML002,
        LintCode::PML003,
        LintCode::PML004,
        LintCode::PML005,
        LintCode::PML006,
        LintCode::PML007,
    ];
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintDiag {
    /// The lint code.
    pub code: LintCode,
    /// Human-readable message.
    pub message: String,
    /// Block the finding is in, if location-specific.
    pub block: Option<u32>,
    /// Instruction index within the block (`TERM_IDX` = terminator).
    pub instr: Option<u32>,
}

impl LintDiag {
    fn new(code: LintCode, message: String) -> LintDiag {
        LintDiag {
            code,
            message,
            block: None,
            instr: None,
        }
    }

    fn at(mut self, block: BlockId, instr: Option<u32>) -> LintDiag {
        self.block = Some(block.0);
        self.instr = instr;
        self
    }

    /// Render as `CODE [Bb:i] message` (the stable text-report line).
    pub fn render(&self) -> String {
        let loc = match (self.block, self.instr) {
            (Some(b), Some(i)) if i == TERM_IDX => format!(" [B{b}:term]"),
            (Some(b), Some(i)) => format!(" [B{b}:{i}]"),
            (Some(b), None) => format!(" [B{b}]"),
            _ => String::new(),
        };
        format!("{}{loc} {}", self.code, self.message)
    }
}

/// Lint configuration.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Number of parallel memory modules (`k`) assumed by the layout-aware
    /// lints (PML006).
    pub modules: usize,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions { modules: 4 }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Run every lint over `p`, returning the deterministic diagnostic list.
pub fn lint_program(p: &TacProgram, opts: &LintOptions) -> Vec<LintDiag> {
    let span = parmem_obs::span("lint.analyze");
    let mut diags = Vec::new();
    let cfg = Cfg::build(p);

    // PML001: reads that may observe the implicit zero initializer. Only
    // named program variables are reported — temporaries are defined before
    // use by construction, and a temp finding would point at nothing the
    // programmer wrote.
    for (b, ii, v) in DefiniteInit::maybe_uninit_uses(p) {
        if p.var(v).is_temp {
            continue;
        }
        diags.push(
            LintDiag::new(
                LintCode::PML001,
                format!(
                    "`{}` may be read before explicit initialization (implicit zero on some path)",
                    p.var(v).name
                ),
            )
            .at(b, Some(ii)),
        );
    }

    // PML002: dead stores, from a per-block backward liveness walk.
    let lv = Liveness::compute(p);
    for &b in &cfg.rpo {
        let bi = b.index();
        let mut live = lv.live_out[bi].clone();
        for v in p.blocks[bi].term.reads() {
            live.insert(v.index());
        }
        for (ii, inst) in p.blocks[bi].instrs.iter().enumerate().rev() {
            if let Some(v) = inst.writes() {
                if !live.contains(v.index()) {
                    diags.push(
                        LintDiag::new(
                            LintCode::PML002,
                            format!("value stored to `{}` is never read", p.var(v).name),
                        )
                        .at(b, Some(ii as u32)),
                    );
                }
                live.remove(v.index());
            }
            for v in inst.reads() {
                live.insert(v.index());
            }
        }
    }

    // PML003: unreachable blocks.
    for bi in 0..p.blocks.len() {
        if !cfg.is_reachable(BlockId(bi as u32)) {
            diags.push(
                LintDiag::new(
                    LintCode::PML003,
                    "block is unreachable from the program entry".to_string(),
                )
                .at(BlockId(bi as u32), None),
            );
        }
    }

    // PML004: compile-time-constant branch conditions, from constant
    // propagation over the condition variables' slice.
    let mut conds = BitSet::new(p.vars.len());
    for v in p.blocks.iter().flat_map(|b| b.term.reads()) {
        conds.insert(v.index());
    }
    let cp = ConstProp::compute(p, &cfg, &conds);
    for &b in &cfg.rpo {
        if let Terminator::Branch { cond, .. } = &p.blocks[b.index()].term {
            if let ConstVal::Known(v) = cp.operand(b, TERM_IDX, cond) {
                diags.push(
                    LintDiag::new(
                        LintCode::PML004,
                        format!("branch condition is always {}", v.as_bool()),
                    )
                    .at(b, Some(TERM_IDX)),
                );
            }
        }
    }

    // PML005/PML006/PML007: subscript-shape lints.
    let sa = SubscriptAnalysis::compute(p);
    let in_loop: Vec<bool> = {
        let loops = natural_loops(&cfg, &cfg.dominators());
        let mut v = vec![false; p.blocks.len()];
        for l in &loops {
            for b in &l.blocks {
                v[b.index()] = true;
            }
        }
        v
    };
    let k = opts.modules.max(1) as u64;
    let mut keyed: Vec<(&(BlockId, u32), &SubscriptClass)> = sa.classes.iter().collect();
    keyed.sort_by_key(|((b, i), _)| (b.0, *i));
    for (&(b, ii), class) in keyed {
        let inst = &p.blocks[b.index()].instrs[ii as usize];
        let Some((arr, _)) = inst.array_access() else {
            continue;
        };
        let info = p.array(arr);
        match *class {
            SubscriptClass::Fixed(i) => {
                if i < 0 || i as usize >= info.len {
                    diags.push(
                        LintDiag::new(
                            LintCode::PML005,
                            format!(
                                "constant subscript {i} out of bounds for `{}` (len {})",
                                info.name, info.len
                            ),
                        )
                        .at(b, Some(ii)),
                    );
                } else if in_loop[b.index()] {
                    diags.push(
                        LintDiag::new(
                            LintCode::PML007,
                            format!(
                                "subscript of `{}` is fixed at {i} inside a loop: every \
                                 iteration hits the same module",
                                info.name
                            ),
                        )
                        .at(b, Some(ii)),
                    );
                }
            }
            SubscriptClass::Strided(s) => {
                let g = gcd(s.unsigned_abs(), k);
                if g > 1 {
                    diags.push(
                        LintDiag::new(
                            LintCode::PML006,
                            format!(
                                "stride-{s} access to `{}` touches only {} of {k} modules \
                                 under interleaving",
                                info.name,
                                k / g
                            ),
                        )
                        .at(b, Some(ii)),
                    );
                }
            }
            SubscriptClass::Invariant => {
                diags.push(
                    LintDiag::new(
                        LintCode::PML007,
                        format!(
                            "subscript of `{}` is loop-invariant: every iteration hits \
                             the same module",
                            info.name
                        ),
                    )
                    .at(b, Some(ii)),
                );
            }
            SubscriptClass::Unknown => {}
        }
    }

    diags.sort_by(|a, b| {
        (a.code, a.block, a.instr, &a.message).cmp(&(b.code, b.block, b.instr, &b.message))
    });

    if parmem_obs::enabled() {
        for d in &diags {
            parmem_obs::counter_add(&format!("lint.diags[code={}]", d.code.as_str()), 1);
        }
    }
    drop(span);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<LintDiag> {
        let p = liw_ir::compile(src).unwrap();
        lint_program(&p, &LintOptions::default())
    }

    fn has(diags: &[LintDiag], code: LintCode) -> bool {
        diags.iter().any(|d| d.code == code)
    }

    #[test]
    fn clean_program_has_no_diags() {
        let diags = lint("program t; var s: int; begin s := 1; print s; end.");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn uninitialized_accumulator_is_pml001() {
        let diags = lint(
            "program t; var s, i: int;
            begin for i := 1 to 3 do s := s + i; print s; end.",
        );
        assert!(has(&diags, LintCode::PML001), "{diags:?}");
    }

    #[test]
    fn dead_store_is_pml002() {
        let diags = lint(
            "program t; var a, b: int;
            begin a := 1; a := 2; b := a; print b; end.",
        );
        assert!(has(&diags, LintCode::PML002), "{diags:?}");
    }

    #[test]
    fn constant_branch_is_pml004() {
        let diags = lint(
            "program t; var a, b: int;
            begin a := 1; if a > 0 then b := 1; else b := 2; print b; end.",
        );
        assert!(has(&diags, LintCode::PML004), "{diags:?}");
    }

    #[test]
    fn stride_sharing_factor_with_k_is_pml006() {
        let diags = lint(
            "program t; var a: array[64] of int; i: int;
            begin for i := 0 to 31 do a[i * 2] := i; end.",
        );
        assert!(has(&diags, LintCode::PML006), "{diags:?}");
        // Unit stride is clean.
        let ok = lint(
            "program t; var a: array[64] of int; i: int;
            begin for i := 0 to 63 do a[i] := i; end.",
        );
        assert!(!has(&ok, LintCode::PML006), "{ok:?}");
    }

    #[test]
    fn diags_are_sorted_and_render_stably() {
        let diags = lint(
            "program t; var s, i: int; a: array[8] of int;
            begin for i := 1 to 3 do s := s + a[i * 4]; print s; end.",
        );
        let mut sorted = diags.clone();
        sorted.sort_by(|a, b| {
            (a.code, a.block, a.instr, &a.message).cmp(&(b.code, b.block, b.instr, &b.message))
        });
        assert_eq!(diags, sorted);
        for d in &diags {
            assert!(d.render().starts_with(d.code.as_str()));
        }
    }
}
