//! Per-program lint report: the diagnostic list plus the optional
//! predicted-vs-measured conflict section, rendered as deterministic text
//! or JSON. The `parmem lint` CLI aggregates these per-program reports
//! into its corpus-level document.

use std::fmt::Write as _;

use liw_ir::webs::TERM_IDX;
use parmem_obs::json;

use crate::lints::LintDiag;
use crate::predict::PredictReport;

/// Everything `parmem lint` reports about one program at one `k`.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Display name (workload name or file stem).
    pub program: String,
    /// Module count the lints and predictions assumed.
    pub k: usize,
    /// Basic blocks in the linted TAC.
    pub blocks: usize,
    /// Instructions in the linted TAC.
    pub instrs: usize,
    /// Sorted diagnostics.
    pub diags: Vec<LintDiag>,
    /// Predicted-vs-measured conflict section, when requested.
    pub predict: Option<PredictReport>,
}

impl LintReport {
    /// Whether the program produced no diagnostics.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Stable human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {} (k={}): {} blocks, {} instrs, {} diagnostic{}",
            self.program,
            self.k,
            self.blocks,
            self.instrs,
            self.diags.len(),
            if self.diags.len() == 1 { "" } else { "s" }
        );
        for d in &self.diags {
            let _ = writeln!(s, "  {}", d.render());
        }
        if let Some(p) = &self.predict {
            let _ = writeln!(s, "  predicted vs measured (seed {}):", p.seed);
            let _ = writeln!(s, "    words {}  mem words {}", p.words, p.mem_words);
            let _ = writeln!(
                s,
                "    t_min {:>10} predicted | {:>10} measured (ideal)",
                p.t_min_predicted, p.t_min_measured
            );
            let _ = writeln!(
                s,
                "    t_ave {:>10.3} predicted | {:>10} measured (uniform) | rel err {:.4}",
                p.t_ave_predicted,
                p.t_ave_measured,
                p.t_ave_rel_err()
            );
            let _ = writeln!(
                s,
                "    t_max {:>10} predicted | {:>10} measured (same-module)",
                p.t_max_predicted, p.t_max_measured
            );
            let _ = writeln!(
                s,
                "    module transfers predicted {:?} measured {:?}",
                p.module_transfers_predicted, p.module_transfers_measured
            );
            if !p.per_array.is_empty() {
                let arrays: Vec<String> = p
                    .per_array
                    .iter()
                    .map(|(n, c)| format!("{n}={c}"))
                    .collect();
                let _ = writeln!(s, "    array accesses {}", arrays.join(" "));
            }
            for row in &p.policies {
                let _ = writeln!(
                    s,
                    "    {:<20} {:>10} measured | {:>10.3} modeled | rel err {:.4}{} | layout {:016x}",
                    row.policy,
                    row.t_measured,
                    row.t_modeled,
                    row.rel_err(),
                    if row.uniform_like { "" } else { " (advisory)" },
                    row.layout_digest
                );
            }
            let _ = writeln!(
                s,
                "    model check: {}",
                if p.within_tolerance() {
                    "within tolerance"
                } else {
                    "OUT OF TOLERANCE"
                }
            );
        }
        s
    }

    /// One deterministic JSON object (no trailing newline). Terminator
    /// locations are encoded as instruction index `-1`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"program\":\"{}\",\"k\":{},\"blocks\":{},\"instrs\":{},\"diags\":[",
            json::escape(&self.program),
            self.k,
            self.blocks,
            self.instrs
        );
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"code\":\"{}\"", d.code.as_str());
            if let Some(b) = d.block {
                let _ = write!(s, ",\"block\":{b}");
            }
            if let Some(ii) = d.instr {
                let ii = if ii == TERM_IDX { -1 } else { ii as i64 };
                let _ = write!(s, ",\"instr\":{ii}");
            }
            let _ = write!(s, ",\"message\":\"{}\"}}", json::escape(&d.message));
        }
        s.push(']');
        if let Some(p) = &self.predict {
            let _ = write!(
                s,
                ",\"predict\":{{\"seed\":{},\"words\":{},\"mem_words\":{}",
                p.seed, p.words, p.mem_words
            );
            let _ = write!(
                s,
                ",\"t_min\":{{\"predicted\":{},\"measured\":{}}}",
                p.t_min_predicted, p.t_min_measured
            );
            let _ = write!(
                s,
                ",\"t_ave\":{{\"predicted\":{:.6},\"analytic\":{:.6},\"measured\":{},\"rel_err\":{:.6}}}",
                p.t_ave_predicted,
                p.t_ave_analytic,
                p.t_ave_measured,
                p.t_ave_rel_err()
            );
            let _ = write!(
                s,
                ",\"t_max\":{{\"predicted\":{},\"measured\":{}}}",
                p.t_max_predicted, p.t_max_measured
            );
            let _ = write!(
                s,
                ",\"module_transfers\":{{\"predicted\":{:?},\"measured\":{:?}}}",
                p.module_transfers_predicted, p.module_transfers_measured
            );
            s.push_str(",\"arrays\":[");
            for (i, (name, n)) in p.per_array.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"name\":\"{}\",\"accesses\":{n}}}",
                    json::escape(name)
                );
            }
            s.push(']');
            if !p.policies.is_empty() {
                s.push_str(",\"policies\":[");
                for (i, row) in p.policies.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"policy\":\"{}\",\"layout_digest\":\"{:016x}\",\"t_modeled\":{:.6},\
                         \"t_measured\":{},\"rel_err\":{:.6},\"uniform_like\":{},\
                         \"within_tolerance\":{}}}",
                        row.policy,
                        row.layout_digest,
                        row.t_modeled,
                        row.t_measured,
                        row.rel_err(),
                        row.uniform_like,
                        row.within_tolerance()
                    );
                }
                s.push(']');
            }
            let _ = write!(s, ",\"within_tolerance\":{}}}", p.within_tolerance());
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{lint_program, LintOptions};

    fn report(src: &str) -> LintReport {
        let p = liw_ir::compile(src).unwrap();
        let diags = lint_program(&p, &LintOptions::default());
        LintReport {
            program: "test".into(),
            k: 4,
            blocks: p.blocks.len(),
            instrs: p.instr_count(),
            diags,
            predict: None,
        }
    }

    #[test]
    fn text_and_json_are_stable() {
        let r = report(
            "program t; var s, i: int;
            begin for i := 1 to 3 do s := s + i; print s; end.",
        );
        let t1 = r.to_text();
        let j1 = r.to_json();
        let r2 = report(
            "program t; var s, i: int;
            begin for i := 1 to 3 do s := s + i; print s; end.",
        );
        assert_eq!(t1, r2.to_text());
        assert_eq!(j1, r2.to_json());
        assert!(j1.starts_with("{\"program\":\"test\""));
        assert!(t1.contains("PML001"));
        assert!(!r.is_clean());
    }

    #[test]
    fn json_escapes_the_program_name() {
        let mut r = report("program t; var s: int; begin s := 1; print s; end.");
        r.program = "a\"b\\c\n\u{1}".into();
        let j = r.to_json();
        assert!(!j.bytes().any(|b| b < 0x20), "raw control byte in {j:?}");
        let doc = json::parse(&j).expect("lint JSON parses");
        assert_eq!(
            doc.get("program").and_then(|p| p.as_str()),
            Some(r.program.as_str())
        );
    }
}
