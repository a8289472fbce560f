//! Structured diagnostics with stable error codes.
//!
//! Every invariant the verifier checks has a fixed `PMxxx` code so tests,
//! scripts, and CI can match on failures without parsing prose. Codes in the
//! `PM0xx` range concern the module assignment; `PM1xx` codes concern the
//! renaming/dataflow invariants of the compiled program; `PM2xx` codes
//! concern exact-solver optimality certificates.

use std::fmt;

use parmem_obs::json;

/// Stable identifier of one verified invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// An instruction fetches more distinct scalars than there are modules.
    PM001,
    /// An instruction operand has no copy in any module.
    PM002,
    /// An instruction is not conflict-free: its operands cannot be matched to
    /// distinct modules holding their copies.
    PM003,
    /// The report's `residual_conflicts` disagrees with an independent
    /// recount over the trace.
    PM004,
    /// Two single-copy values that co-occur in an instruction share their
    /// only module (proper-coloring violation).
    PM005,
    /// The report's copy bookkeeping (`single_copy` / `multi_copy` /
    /// `extra_copies`) disagrees with a recount over the assignment.
    PM006,
    /// A value has a copy in a module outside `0..k`.
    PM007,
    /// The statically predicted conflict count disagrees with what the
    /// simulator measured cycle-by-cycle.
    PM008,
    /// The scheduled program's published access trace disagrees with an
    /// independent reconstruction from its long words.
    PM009,
    /// A use reads a web that differs from a definition reaching it
    /// (renaming/fresh-value violation — a stale read).
    PM101,
    /// One web renames more than one program variable.
    PM102,
    /// A long word reads a data value that is not defined on every path from
    /// entry.
    PM103,
    /// A long word writes the same data value twice (nondeterministic
    /// commit).
    PM104,
    /// An exact certificate's witness is malformed: a trace value is
    /// unplaced, placed more than once, or placed outside `0..k`.
    PM201,
    /// The witness's recounted residual disagrees with the certificate's
    /// claimed upper bound.
    PM202,
    /// A clique in the certificate's evidence is invalid: too small, not
    /// pairwise co-occurring, vertex-overlapping, or support-overlapping.
    PM203,
    /// The certificate's bounds/status are inconsistent (`lower > upper`,
    /// or the status does not match the bounds).
    PM204,
    /// The certificate claims more evidence-backed lower bound than its
    /// clique evidence supports.
    PM205,
    /// A heuristic assignment's residual is below the certified lower bound
    /// (impossible for a valid certificate: negative gap).
    PM206,
    /// A memory layout maps some array element to an out-of-range module,
    /// or the mapping is not total/deterministic over the probed indices.
    PM301,
    /// A memory layout's recomputed digest disagrees with its own recorded
    /// digest (the plan is not digest-stable).
    PM302,
    /// A memory layout's embedded scalar assignment is inconsistent with
    /// the layout's module count.
    PM303,
}

impl Code {
    /// The stable textual form, e.g. `"PM003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::PM001 => "PM001",
            Code::PM002 => "PM002",
            Code::PM003 => "PM003",
            Code::PM004 => "PM004",
            Code::PM005 => "PM005",
            Code::PM006 => "PM006",
            Code::PM007 => "PM007",
            Code::PM008 => "PM008",
            Code::PM009 => "PM009",
            Code::PM101 => "PM101",
            Code::PM102 => "PM102",
            Code::PM103 => "PM103",
            Code::PM104 => "PM104",
            Code::PM201 => "PM201",
            Code::PM202 => "PM202",
            Code::PM203 => "PM203",
            Code::PM204 => "PM204",
            Code::PM205 => "PM205",
            Code::PM206 => "PM206",
            Code::PM301 => "PM301",
            Code::PM302 => "PM302",
            Code::PM303 => "PM303",
        }
    }

    /// One-line summary of the invariant this code guards.
    pub fn description(self) -> &'static str {
        match self {
            Code::PM001 => "instruction has more operands than memory modules",
            Code::PM002 => "operand value has no copy in any module",
            Code::PM003 => "instruction is not conflict-free",
            Code::PM004 => "residual-conflict count disagrees with recount",
            Code::PM005 => "adjacent single-copy values share a module",
            Code::PM006 => "copy bookkeeping disagrees with recount",
            Code::PM007 => "copy placed in an out-of-range module",
            Code::PM008 => "static conflict prediction disagrees with simulation",
            Code::PM009 => "published access trace disagrees with reconstruction",
            Code::PM101 => "use reads a different web than a reaching definition",
            Code::PM102 => "one web renames multiple variables",
            Code::PM103 => "read of a possibly-undefined data value",
            Code::PM104 => "data value written twice in one long word",
            Code::PM201 => "certificate witness is malformed",
            Code::PM202 => "witness residual disagrees with claimed upper bound",
            Code::PM203 => "certificate clique evidence is invalid",
            Code::PM204 => "certificate bounds or status inconsistent",
            Code::PM205 => "claimed evidence lower bound exceeds valid evidence",
            Code::PM206 => "heuristic residual below certified lower bound",
            Code::PM301 => "layout maps an array element out of range or non-totally",
            Code::PM302 => "layout digest is not stable under recomputation",
            Code::PM303 => "layout's scalar assignment inconsistent with module count",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verified-invariant violation, with enough context to locate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which invariant failed.
    pub code: Code,
    /// Human-readable detail.
    pub message: String,
    /// Offending instruction (index into the access trace), if applicable.
    pub instruction: Option<usize>,
    /// Offending data value, if applicable.
    pub value: Option<u32>,
    /// Offending basic block, if applicable.
    pub block: Option<u32>,
}

impl Diagnostic {
    /// A diagnostic with only a code and message.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            message: message.into(),
            instruction: None,
            value: None,
            block: None,
        }
    }

    /// Attach the offending instruction index.
    pub fn at_instruction(mut self, i: usize) -> Diagnostic {
        self.instruction = Some(i);
        self
    }

    /// Attach the offending data value.
    pub fn with_value(mut self, v: u32) -> Diagnostic {
        self.value = Some(v);
        self
    }

    /// Attach the offending basic block.
    pub fn in_block(mut self, b: u32) -> Diagnostic {
        self.block = Some(b);
        self
    }

    /// Render as a JSON object (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"code\":\"{}\"", self.code));
        s.push_str(&format!(",\"message\":\"{}\"", json::escape(&self.message)));
        if let Some(i) = self.instruction {
            s.push_str(&format!(",\"instruction\":{i}"));
        }
        if let Some(v) = self.value {
            s.push_str(&format!(",\"value\":{v}"));
        }
        if let Some(b) = self.block {
            s.push_str(&format!(",\"block\":{b}"));
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        if let Some(i) = self.instruction {
            write!(f, " (instruction {i})")?;
        }
        if let Some(v) = self.value {
            write!(f, " (value V{v})")?;
        }
        if let Some(b) = self.block {
            write!(f, " (block B{b})")?;
        }
        Ok(())
    }
}

/// The outcome of a verification run: every violation found, plus which
/// checker passes ran (so "clean" is distinguishable from "skipped").
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// All violations, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Names of the checker passes that ran.
    pub checks_run: Vec<&'static str>,
}

impl VerifyReport {
    /// True if no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Diagnostics carrying the given code.
    pub fn with_code(&self, code: Code) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// True if some diagnostic carries `code`.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Merge another report's findings into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.diagnostics.extend(other.diagnostics);
        self.checks_run.extend(other.checks_run);
    }

    /// Render the whole report as a JSON object.
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json()).collect();
        let checks: Vec<String> = self
            .checks_run
            .iter()
            .map(|c| format!("\"{}\"", json::escape(c)))
            .collect();
        format!(
            "{{\"clean\":{},\"checks_run\":[{}],\"diagnostics\":[{}]}}",
            self.is_clean(),
            checks.join(","),
            diags.join(",")
        )
    }
}

/// Aggregate of many verification runs (batch mode): per-code violation
/// counts across every report, plus which labelled runs were dirty. The
/// batch engine folds one [`VerifyReport`] per job into this so a fleet-wide
/// run summarizes as "N clean / M dirty, PMxxx×c" instead of N full reports.
#[derive(Clone, Debug, Default)]
pub struct BatchSummary {
    /// Reports folded in.
    pub reports: usize,
    /// How many of them were clean.
    pub clean: usize,
    /// Violation count per diagnostic code, across all reports.
    pub counts: std::collections::BTreeMap<Code, usize>,
    /// Labels of the dirty reports, with their violation counts, in fold
    /// order.
    pub dirty: Vec<(String, usize)>,
}

impl BatchSummary {
    /// Fold one labelled report into the aggregate.
    pub fn add(&mut self, label: &str, report: &VerifyReport) {
        self.reports += 1;
        if report.is_clean() {
            self.clean += 1;
        } else {
            self.dirty
                .push((label.to_string(), report.diagnostics.len()));
        }
        for d in &report.diagnostics {
            *self.counts.entry(d.code).or_insert(0) += 1;
        }
    }

    /// True if every folded report was clean.
    pub fn is_clean(&self) -> bool {
        self.clean == self.reports
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(c, n)| format!("\"{c}\":{n}"))
            .collect();
        let dirty: Vec<String> = self
            .dirty
            .iter()
            .map(|(l, n)| format!("{{\"label\":\"{}\",\"violations\":{n}}}", json::escape(l)))
            .collect();
        format!(
            "{{\"reports\":{},\"clean\":{},\"counts\":{{{}}},\"dirty\":[{}]}}",
            self.reports,
            self.clean,
            counts.join(","),
            dirty.join(",")
        )
    }
}

impl fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} verification runs clean", self.clean, self.reports)?;
        if !self.counts.is_empty() {
            let parts: Vec<String> = self
                .counts
                .iter()
                .map(|(c, n)| format!("{c}×{n}"))
                .collect();
            write!(f, " ({})", parts.join(", "))?;
        }
        Ok(())
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            writeln!(f, "verified: {} checks clean", self.checks_run.len())
        } else {
            writeln!(f, "{} violation(s):", self.diagnostics.len())?;
            for d in &self.diagnostics {
                writeln!(f, "  {d}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::PM001.as_str(), "PM001");
        assert_eq!(Code::PM104.as_str(), "PM104");
        assert!(!Code::PM008.description().is_empty());
    }

    #[test]
    fn diagnostic_display_includes_context() {
        let d = Diagnostic::new(Code::PM003, "cannot match operands")
            .at_instruction(7)
            .with_value(3);
        let s = d.to_string();
        assert!(s.contains("PM003"));
        assert!(s.contains("instruction 7"));
        assert!(s.contains("V3"));
    }

    #[test]
    fn json_escapes_and_nests() {
        let d = Diagnostic::new(Code::PM004, "count \"7\" != 8\n").at_instruction(1);
        let j = d.to_json();
        assert!(j.contains("\\\"7\\\""));
        assert!(j.contains("\\n"));
        let mut r = VerifyReport::default();
        r.checks_run.push("assignment");
        r.diagnostics.push(d);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"clean\":false"));
        assert!(j.contains("\"assignment\""));
    }

    #[test]
    fn batch_summary_aggregates_codes_and_labels() {
        let mut clean = VerifyReport::default();
        clean.checks_run.push("assignment");
        let mut dirty = VerifyReport::default();
        dirty.diagnostics.push(Diagnostic::new(Code::PM003, "a"));
        dirty.diagnostics.push(Diagnostic::new(Code::PM003, "b"));
        dirty.diagnostics.push(Diagnostic::new(Code::PM008, "c"));

        let mut s = BatchSummary::default();
        s.add("FFT k=8", &clean);
        s.add("SORT k=2", &dirty);
        assert!(!s.is_clean());
        assert_eq!((s.reports, s.clean), (2, 1));
        assert_eq!(s.counts[&Code::PM003], 2);
        assert_eq!(s.dirty, vec![("SORT k=2".to_string(), 3)]);
        let text = s.to_string();
        assert!(text.contains("1/2") && text.contains("PM003×2"), "{text}");
        let j = s.to_json();
        assert!(j.contains("\"PM008\":1") && j.contains("SORT k=2"), "{j}");
    }

    #[test]
    fn report_queries() {
        let mut r = VerifyReport::default();
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic::new(Code::PM001, "too wide"));
        assert!(r.has_code(Code::PM001));
        assert!(!r.has_code(Code::PM002));
        assert_eq!(r.with_code(Code::PM001).len(), 1);
    }
}
