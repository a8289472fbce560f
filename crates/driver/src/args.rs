//! Shared command-line parsing for the `parmem` CLI.
//!
//! Every subcommand used to re-scan its raw argument list with ad-hoc
//! `flag`/`opt_value` helpers, silently ignoring anything it did not
//! recognise. [`CommonArgs::parse`] replaces those copies: a subcommand
//! declares its boolean flags and value-taking options once, unknown
//! options are rejected with an error that lists what *is* accepted, and
//! the uniform profiling options (`--profile`, `--trace-out`,
//! `--trace-summary`) are accepted everywhere without per-command plumbing.
//!
//! The module also hosts the option → pipeline-config builders
//! ([`session`], [`assign_params`], [`strategy`], [`k_list`],
//! [`module_count`], [`exact_config`], [`resolve_program`]) that were
//! previously duplicated across subcommands.

use parmem_core::assignment::{AssignParams, DuplicationStrategy};
use parmem_core::strategies::Strategy;
use parmem_core::types::MAX_MODULES;

use crate::session::Session;

/// Boolean flags every subcommand accepts (profiling plumbing).
const COMMON_FLAGS: &[&str] = &["--profile"];
/// Value options every subcommand accepts (profiling plumbing).
const COMMON_VALUES: &[&str] = &["--trace-out", "--trace-summary"];

/// A parsed argument list: recognised flags, option values, and positional
/// arguments, with everything unrecognised already rejected.
#[derive(Clone, Debug, Default)]
pub struct CommonArgs {
    flags: Vec<String>,
    values: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl CommonArgs {
    /// Parse `raw` for subcommand `cmd`, accepting exactly `flags` (boolean)
    /// and `value_opts` (consume the next argument) plus the common
    /// profiling options. Unknown `-`/`--` arguments and missing option
    /// values are errors; `--k` is normalised to `-k`.
    pub fn parse(
        cmd: &str,
        raw: &[String],
        flags: &[&str],
        value_opts: &[&str],
    ) -> Result<CommonArgs, String> {
        let known_flag = |a: &str| flags.contains(&a) || COMMON_FLAGS.contains(&a);
        // `--k` is a spelling of `-k`, accepted only where the subcommand
        // declares `-k` — it must not sneak past the unknown-option check on
        // subcommands that take no module count.
        let known_value = |a: &str| {
            value_opts.contains(&a)
                || COMMON_VALUES.contains(&a)
                || (a == "--k" && value_opts.contains(&"-k"))
        };
        let mut out = CommonArgs::default();
        let mut i = 0;
        while i < raw.len() {
            let a = raw[i].as_str();
            let canonical = if a == "--k" { "-k" } else { a };
            if known_value(a) {
                let v = raw
                    .get(i + 1)
                    .ok_or_else(|| format!("`parmem {cmd}`: option `{a}` requires a value"))?;
                out.values.push((canonical.to_string(), v.clone()));
                i += 2;
                continue;
            }
            if known_flag(a) {
                out.flags.push(canonical.to_string());
            } else if a.starts_with('-') {
                let mut valid: Vec<&str> = flags
                    .iter()
                    .chain(value_opts)
                    .chain(COMMON_FLAGS)
                    .chain(COMMON_VALUES)
                    .copied()
                    .collect();
                valid.sort_unstable();
                return Err(format!(
                    "`parmem {cmd}`: unknown option `{a}` (accepted: {})",
                    valid.join(", ")
                ));
            } else {
                out.positionals.push(a.to_string());
            }
            i += 1;
        }
        Ok(out)
    }

    /// Whether the boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The (last) value of a value option, verbatim.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of an option parsed as `T`; a value that does not parse is
    /// an error naming the option (the old scanners silently dropped it).
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("option `{name}` has invalid value `{v}`")),
        }
    }

    /// Positional (non-option) arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The input-file positional: the first one that is not a bare number.
    pub fn file_arg(&self) -> Result<String, String> {
        self.positionals
            .iter()
            .find(|a| a.parse::<f64>().is_err())
            .cloned()
            .ok_or_else(|| "missing input file".to_string())
    }

    /// The first positional (workload name or file path).
    pub fn target_arg(&self) -> Result<String, String> {
        self.positionals
            .first()
            .cloned()
            .ok_or_else(|| "missing workload name or MiniLang file".to_string())
    }
}

/// Largest `--unroll` factor, the bound `parmem serve` also enforces.
const MAX_UNROLL: usize = 64;

/// The session a pipeline-running subcommand runs: `k` modules plus the
/// uniform `--unroll <factor>`, `--no-opt`, `--backtrack`, `--no-atoms`,
/// `--seed` and `--array-policy` options, each at its [`Session::new`]
/// default where absent. `--stor` is left to the subcommand, since
/// `batch --stor all` names a list of strategies.
pub fn session(a: &CommonArgs, k: usize) -> Result<Session, String> {
    let mut s = Session::new(k).with_params(assign_params(a));
    if let Some(factor) = a.parsed::<usize>("--unroll")? {
        if factor > MAX_UNROLL {
            return Err(format!(
                "--unroll {factor} is above the cap of {MAX_UNROLL}"
            ));
        }
        s = s.with_unroll(factor);
    }
    if a.flag("--no-opt") {
        s = s.without_optimizer();
    }
    if let Some(seed) = a.parsed("--seed")? {
        s = s.with_seed(seed);
    }
    s.array_policy = array_policy(a)?;
    Ok(s)
}

/// Assignment parameters from the uniform `--backtrack` / `--no-atoms`
/// flags.
pub fn assign_params(a: &CommonArgs) -> AssignParams {
    AssignParams {
        duplication: if a.flag("--backtrack") {
            DuplicationStrategy::Backtrack
        } else {
            DuplicationStrategy::HittingSet
        },
        use_atoms: !a.flag("--no-atoms"),
        ..AssignParams::default()
    }
}

/// Parse `--array-policy` (`interleaved|hash|block|auto`); `None` when
/// absent — the scalar-only pipeline, byte-identical to before the layout
/// work.
pub fn array_policy(a: &CommonArgs) -> Result<Option<parmem_core::layout::ArrayPolicy>, String> {
    match a.value("--array-policy") {
        None => Ok(None),
        Some(v) => parmem_core::layout::ArrayPolicy::parse(v)
            .map(Some)
            .ok_or_else(|| format!("bad --array-policy `{v}` (interleaved|hash|block|auto)")),
    }
}

/// Parse `--stor` through the strategy registry (flags `1|2|3|exact` and
/// names `STOR1|STOR2|STOR3|EXACT`); defaults to STOR1 when absent.
pub fn strategy(a: &CommonArgs) -> Result<Strategy, String> {
    match a.value("--stor") {
        None => Ok(Strategy::Stor1),
        Some(v) => Strategy::parse(v)
            .ok_or_else(|| format!("bad --stor `{v}` (1|2|3|exact, or all in batch)")),
    }
}

/// Parse the `-k` module-count list (`2,4,8` style); `default` when absent.
/// Every entry must lie in `1..=MAX_MODULES`.
pub fn k_list(a: &CommonArgs, default: &[usize]) -> Result<Vec<usize>, String> {
    let ks: Vec<usize> = match a.value("-k") {
        None => default.to_vec(),
        Some(list) => list
            .split(',')
            .map(|p| p.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad -k list `{list}` (expected e.g. 2,4)"))?,
    };
    for &k in &ks {
        check_module_count(k)?;
    }
    Ok(ks)
}

/// Parse a single `-k` module count; `default` when absent. It must lie in
/// `1..=MAX_MODULES`.
pub fn module_count(a: &CommonArgs, default: usize) -> Result<usize, String> {
    let k = a.parsed::<usize>("-k")?.unwrap_or(default);
    check_module_count(k)?;
    Ok(k)
}

fn check_module_count(k: usize) -> Result<(), String> {
    if (1..=MAX_MODULES).contains(&k) {
        Ok(())
    } else {
        Err(format!("k = {k} is outside 1..={MAX_MODULES}"))
    }
}

/// Exact-solver budget/portfolio configuration from the uniform flags.
pub fn exact_config(a: &CommonArgs) -> Result<parmem_exact::ExactConfig, String> {
    let mut cfg = parmem_exact::ExactConfig::default();
    if let Some(n) = a.parsed("--budget-nodes")? {
        cfg.budget_nodes = n;
    }
    if let Some(ms) = a.parsed("--budget-ms")? {
        cfg.budget_ms = ms;
    }
    if a.flag("--no-portfolio") {
        cfg.portfolio = false;
    }
    if let Some(seed) = a.parsed("--seed")? {
        cfg.seed = seed;
    }
    Ok(cfg)
}

/// Resolve a positional target as a workload name first, a MiniLang source
/// file second.
pub fn resolve_program(target: &str) -> Result<(String, String), String> {
    match workloads::by_name(target) {
        Some(b) => Ok((b.name.to_string(), b.source.to_string())),
        None => {
            let src = std::fs::read_to_string(target).map_err(|e| {
                format!("`{target}` is neither a workload nor a readable file ({e})")
            })?;
            Ok((target.to_string(), src))
        }
    }
}

/// Select benchmarks by positional names, `--all`, or the paper default.
pub fn select_benchmarks(a: &CommonArgs) -> Result<Vec<workloads::Benchmark>, String> {
    let names = a.positionals();
    if !names.is_empty() {
        names
            .iter()
            .map(|n| workloads::by_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .collect()
    } else if a.flag("--all") {
        Ok(workloads::all_benchmarks())
    } else {
        Ok(workloads::benchmarks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_values_positionals() {
        let a = CommonArgs::parse(
            "batch",
            &argv(&["FFT", "-k", "2,4", "--timings", "--jobs", "3"]),
            &["--timings"],
            &["-k", "--jobs"],
        )
        .unwrap();
        assert!(a.flag("--timings"));
        assert!(!a.flag("--json"));
        assert_eq!(a.value("-k"), Some("2,4"));
        assert_eq!(a.parsed::<usize>("--jobs").unwrap(), Some(3));
        assert_eq!(a.positionals(), &["FFT".to_string()]);
        assert_eq!(k_list(&a, &[8]).unwrap(), vec![2, 4]);
    }

    #[test]
    fn rejects_unknown_options_helpfully() {
        let err =
            CommonArgs::parse("batch", &argv(&["--bogus"]), &["--timings"], &["-k"]).unwrap_err();
        assert!(err.contains("unknown option `--bogus`"), "{err}");
        assert!(err.contains("--timings"), "{err}");
        assert!(err.contains("--profile"), "error lists common flags: {err}");
    }

    #[test]
    fn rejects_missing_and_bad_values() {
        let err = CommonArgs::parse("exact", &argv(&["--jobs"]), &[], &["--jobs"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let a = CommonArgs::parse("exact", &argv(&["--jobs", "many"]), &[], &["--jobs"]).unwrap();
        let err = a.parsed::<usize>("--jobs").unwrap_err();
        assert!(err.contains("invalid value `many`"), "{err}");
    }

    #[test]
    fn normalises_double_dash_k() {
        let a = CommonArgs::parse("trace", &argv(&["--k", "4"]), &[], &["-k"]).unwrap();
        assert_eq!(a.parsed::<usize>("-k").unwrap(), Some(4));
    }

    #[test]
    fn double_dash_k_rejected_where_k_is_not_declared() {
        // `run` and `assign` declare no `-k`; `--k` must be an unknown
        // option there, not a silently swallowed value pair.
        let err = CommonArgs::parse("run", &argv(&["--k", "4"]), &[], &[]).unwrap_err();
        assert!(err.contains("unknown option `--k`"), "{err}");
        assert!(err.contains("accepted:"), "{err}");
    }

    #[test]
    fn common_profiling_options_always_accepted() {
        let a = CommonArgs::parse(
            "run",
            &argv(&["x.ml", "--profile", "--trace-out", "t.json"]),
            &[],
            &[],
        )
        .unwrap();
        assert!(a.flag("--profile"));
        assert_eq!(a.value("--trace-out"), Some("t.json"));
    }

    #[test]
    fn array_policy_parses_or_errors() {
        let a = CommonArgs::parse(
            "trace",
            &argv(&["--array-policy", "hash"]),
            &[],
            &["--array-policy"],
        )
        .unwrap();
        assert_eq!(
            array_policy(&a).unwrap(),
            Some(parmem_core::layout::ArrayPolicy::Hash)
        );
        let none = CommonArgs::parse("trace", &argv(&[]), &[], &["--array-policy"]).unwrap();
        assert_eq!(array_policy(&none).unwrap(), None);
        let bad = CommonArgs::parse(
            "trace",
            &argv(&["--array-policy", "striped"]),
            &[],
            &["--array-policy"],
        )
        .unwrap();
        let err = array_policy(&bad).unwrap_err();
        assert!(err.contains("bad --array-policy `striped`"), "{err}");
    }

    #[test]
    fn builders_map_flags_to_configs() {
        let a = CommonArgs::parse(
            "trace",
            &argv(&["--backtrack", "--no-opt", "--unroll", "2", "--stor", "3"]),
            &["--backtrack", "--no-opt"],
            &["--unroll", "--stor"],
        )
        .unwrap();
        let s = session(&a, 4).unwrap();
        assert_eq!(s.params.duplication, DuplicationStrategy::Backtrack);
        assert!(!s.opts.optimize);
        assert_eq!(s.opts.unroll.map(|u| u.factor), Some(2));
        assert_eq!(strategy(&a).unwrap(), Strategy::STOR3);
    }
}
