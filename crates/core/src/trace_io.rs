//! Plain-text serialization for access traces — the `parmem` CLI's input
//! format, handy for experimenting with the assignment algorithms on
//! hand-written instruction streams.
//!
//! ```text
//! # comment (also ';' or '//' lines)
//! modules 3
//! x y t1        # one instruction per line: its operand names
//! y z t2
//! -             # an instruction without operands
//! y z t1
//! ```
//!
//! Operand names are arbitrary identifiers; they are interned to dense
//! [`ValueId`]s in first-appearance order. Blank lines are skipped, so an
//! instruction that reads no value is written as a line holding only `-`:
//! a trace read back keeps every instruction, and with it the instruction
//! numbers diagnostics name.

use std::collections::HashMap;
use std::fmt;

use crate::types::{AccessTrace, Instructions, ValueId};

/// A parsed trace plus the name table for printing results back.
#[derive(Clone, Debug)]
pub struct NamedTrace {
    /// The machine-readable trace.
    pub trace: AccessTrace,
    /// Name of each dense value.
    pub names: Vec<String>,
}

impl NamedTrace {
    /// The value's display name.
    pub fn name(&self, v: ValueId) -> &str {
        &self.names[v.index()]
    }
}

/// Parse error with line number.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line.
    pub line: usize,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

/// Parse the text format described in the module docs.
pub fn parse_trace(text: &str) -> Result<NamedTrace, TraceParseError> {
    let mut modules: Option<usize> = None;
    let mut names: Vec<String> = Vec::new();
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut instructions = Instructions::new();

    for (ln, raw) in text.lines().enumerate() {
        let line = ln + 1;
        // Strip comments.
        let mut s = raw;
        for marker in ["#", ";", "//"] {
            if let Some(pos) = s.find(marker) {
                s = &s[..pos];
            }
        }
        let s = s.trim();
        if s.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = s.split_whitespace().collect();
        if tokens[0].eq_ignore_ascii_case("modules") {
            if tokens.len() != 2 {
                return Err(TraceParseError {
                    message: "expected `modules <count>`".into(),
                    line,
                });
            }
            let k: usize = tokens[1].parse().map_err(|_| TraceParseError {
                message: format!("bad module count `{}`", tokens[1]),
                line,
            })?;
            if !(1..=crate::types::MAX_MODULES).contains(&k) {
                return Err(TraceParseError {
                    message: format!("module count {k} out of range"),
                    line,
                });
            }
            if modules.replace(k).is_some() {
                return Err(TraceParseError {
                    message: "duplicate `modules` directive".into(),
                    line,
                });
            }
            continue;
        }
        if tokens == ["-"] {
            instructions.push(std::iter::empty());
            continue;
        }
        instructions.push(tokens.iter().map(|t| {
            let next = names.len() as u32;
            let id = *ids.entry(t.to_string()).or_insert_with(|| {
                names.push(t.to_string());
                next
            });
            ValueId(id)
        }));
    }

    let modules = modules.ok_or(TraceParseError {
        message: "missing `modules <count>` directive".into(),
        line: 0,
    })?;
    Ok(NamedTrace {
        trace: AccessTrace::new(modules, instructions),
        names,
    })
}

/// Serialize a trace back to the text format (canonical names `V<i>` when no
/// name table is given, `-` for an instruction without operands).
pub fn format_trace(trace: &AccessTrace, names: Option<&[String]>) -> String {
    let mut out = format!("modules {}\n", trace.modules);
    for inst in &trace.instructions {
        if inst.is_empty() {
            out.push_str("-\n");
            continue;
        }
        let line: Vec<String> = inst
            .iter()
            .map(|v| match names {
                Some(ns) => ns[v.index()].clone(),
                None => format!("V{}", v.0),
            })
            .collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_trace() {
        let t = parse_trace("# paper Fig. 1\nmodules 3\nV1 V2 V4\nV2 V3 V5\nV2 V3 V4\n").unwrap();
        assert_eq!(t.trace.modules, 3);
        assert_eq!(t.trace.instructions.len(), 3);
        assert_eq!(t.names.len(), 5);
        assert_eq!(t.name(ValueId(0)), "V1");
    }

    #[test]
    fn arbitrary_names_are_interned() {
        let t = parse_trace("modules 2\nx y\ny zulu\n").unwrap();
        assert_eq!(t.names, vec!["x", "y", "zulu"]);
        assert_eq!(&t.trace.instructions[1], &[ValueId(1), ValueId(2)]);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let t = parse_trace("; header\nmodules 2\n\n// c1\na b  # trailing\n").unwrap();
        assert_eq!(t.trace.instructions.len(), 1);
    }

    #[test]
    fn missing_modules_errors() {
        let e = parse_trace("a b\n").unwrap_err();
        assert!(e.message.contains("missing"));
    }

    #[test]
    fn duplicate_modules_errors() {
        let e = parse_trace("modules 2\nmodules 3\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn bad_module_count_errors() {
        assert!(parse_trace("modules zero\n").is_err());
        assert!(parse_trace("modules 0\n").is_err());
        assert!(parse_trace("modules 65\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let src = "modules 4\na b c\n-\nc d\n";
        let t = parse_trace(src).unwrap();
        assert!(t.trace.instructions[1].is_empty());
        let printed = format_trace(&t.trace, Some(&t.names));
        assert_eq!(printed, src);
        let t2 = parse_trace(&printed).unwrap();
        assert_eq!(t.trace.instructions, t2.trace.instructions);
        assert_eq!(t.names, t2.names);
    }

    #[test]
    fn anonymous_format_uses_v_names() {
        let t = parse_trace("modules 2\nx y\n").unwrap();
        let s = format_trace(&t.trace, None);
        assert!(s.contains("V0 V1"), "{s}");
    }
}
