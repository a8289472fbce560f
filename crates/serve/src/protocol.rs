//! The `/v1/*` request protocol: strict JSON bodies parsed with the
//! workspace's minimal reader (`parmem_obs::json` — no serde in the
//! tree).
//!
//! Every request names its input exactly one way — a bundled `workload`,
//! inline MiniLang `source`, or a seeded `synth` spec (assign endpoint
//! only) — plus the same knobs the CLI exposes as flags. Parsing is
//! **strict**: an unknown member is a 400 naming the accepted ones, the
//! same contract the CLI's exit-2 unknown-option audit enforces, so a
//! typo'd option can never be silently ignored into a wrong-but-cached
//! response.

use parmem_core::assignment::DuplicationStrategy;
use parmem_core::layout::ArrayPolicy;
use parmem_core::strategies::{Strategy, STRATEGY_REGISTRY};
use parmem_core::synth::ScaleSpec;
use parmem_driver::Session;
use parmem_exact::ExactConfig;
use parmem_obs::digest::fnv1a;
use parmem_obs::json::{self, Json};

use crate::cache::CacheKey;

/// Which pipeline a request drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `/v1/assign` — module assignment report for a trace.
    Assign,
    /// `/v1/compile` — the full compile→assign→verify→simulate job.
    Compile,
    /// `/v1/exact` — exact solver certificate + optimality gap.
    Exact,
    /// `/v1/lint` — static analyses (+ optional conflict prediction).
    Lint,
}

impl Endpoint {
    /// Cache-key discriminant.
    pub fn discriminant(self) -> u8 {
        match self {
            Endpoint::Assign => 0,
            Endpoint::Compile => 1,
            Endpoint::Exact => 2,
            Endpoint::Lint => 3,
        }
    }

    /// Stats label (matches [`crate::stats::ENDPOINTS`]).
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Assign => "assign",
            Endpoint::Compile => "compile",
            Endpoint::Exact => "exact",
            Endpoint::Lint => "lint",
        }
    }
}

/// A request's program input.
#[derive(Clone, Debug)]
pub enum Source {
    /// MiniLang text (from `workload` or inline `source`).
    Text(String),
    /// Seeded synthetic scale workload (assign endpoint only).
    Synth(ScaleSpec),
}

/// One parsed, validated API request.
#[derive(Clone, Debug)]
pub struct ApiRequest {
    /// The endpoint it arrived on.
    pub endpoint: Endpoint,
    /// Display name for the response (`workload` name, `program` member,
    /// or a default).
    pub program: String,
    /// Program input.
    pub source: Source,
    /// The pipeline configuration the members ask for, `k` 4 and the rest
    /// at their [`Session::new`] defaults where absent. On `/v1/exact` the
    /// solver budgets ride along as `exact_gap`, so they are part of
    /// [`Session::config_digest`] (and the budget clamp's target).
    pub session: Session,
    /// Run the conflict predictor (`/v1/lint`).
    pub predict: bool,
    /// Debug-only artificial latency, for deterministic saturation tests.
    /// Only parsed when the daemon runs with debug hooks enabled.
    pub sleep_ms: u64,
}

const BASE_FIELDS: &[&str] = &[
    "workload",
    "source",
    "synth",
    "program",
    "k",
    "strategy",
    "unroll",
    "no_opt",
    "rename",
    "backtrack",
    "no_atoms",
    "seed",
    "array_policy",
];
const EXACT_FIELDS: &[&str] = &["budget_nodes", "budget_ms", "no_portfolio"];
const LINT_FIELDS: &[&str] = &["predict"];
const SYNTH_FIELDS: &[&str] = &["values", "edges", "cliques", "clique_size", "components"];

/// Per-request caps on a synth spec: at most this many values, and at most
/// four times as many target edges or planted-clique pairs (the default
/// density at the value cap), so no one request can claim more memory than
/// the largest default-shaped workload.
const SYNTH_MAX_VALUES: usize = 2_000_000;
const SYNTH_MAX_EDGES: usize = 4 * SYNTH_MAX_VALUES;

fn accepted_fields(endpoint: Endpoint, debug: bool) -> Vec<&'static str> {
    let mut f: Vec<&str> = BASE_FIELDS.to_vec();
    match endpoint {
        Endpoint::Exact => f.extend_from_slice(EXACT_FIELDS),
        Endpoint::Lint => f.extend_from_slice(LINT_FIELDS),
        _ => {}
    }
    if debug {
        f.push("sleep_ms");
    }
    f
}

fn as_count(v: &Json, field: &str) -> Result<u64, String> {
    let n = v
        .as_num()
        .ok_or_else(|| format!("`{field}` must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > 9.0e15 {
        return Err(format!("`{field}` must be a non-negative integer"));
    }
    Ok(n as u64)
}

fn as_bool(v: &Json, field: &str) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{field}` must be a boolean")),
    }
}

fn parse_synth(v: &Json, k: usize) -> Result<ScaleSpec, String> {
    let Json::Obj(members) = v else {
        return Err("`synth` must be an object".to_string());
    };
    for (name, _) in members {
        if !SYNTH_FIELDS.contains(&name.as_str()) {
            return Err(format!(
                "unknown synth member `{name}` (accepted: {})",
                SYNTH_FIELDS.join(", ")
            ));
        }
    }
    let values = match v.get("values") {
        Some(n) => as_count(n, "synth.values")? as usize,
        None => 1_000,
    };
    let spec = ScaleSpec {
        values,
        edges: match v.get("edges") {
            Some(n) => as_count(n, "synth.edges")? as usize,
            None => values.saturating_mul(4),
        },
        cliques: match v.get("cliques") {
            Some(n) => as_count(n, "synth.cliques")? as usize,
            None => 4,
        },
        clique_size: match v.get("clique_size") {
            Some(n) => as_count(n, "synth.clique_size")? as usize,
            None => 10,
        },
        components: match v.get("components") {
            Some(n) => as_count(n, "synth.components")? as usize,
            None => 4,
        },
        modules: k,
    };
    spec.validate().map_err(|e| format!("synth: {e}"))?;
    if spec.values > SYNTH_MAX_VALUES {
        return Err(format!(
            "synth.values is capped at {SYNTH_MAX_VALUES} per request"
        ));
    }
    if spec.edge_target() > SYNTH_MAX_EDGES {
        return Err(format!(
            "synth.edges is capped at {SYNTH_MAX_EDGES} per request"
        ));
    }
    if spec.planted_pairs() > SYNTH_MAX_EDGES {
        return Err(format!(
            "synth cliques may span at most {SYNTH_MAX_EDGES} vertex pairs per request"
        ));
    }
    Ok(spec)
}

/// Parse and validate one request body. `debug_hooks` gates the
/// `sleep_ms` test seam; unknown members are rejected naming the accepted
/// set.
pub fn parse_request(
    endpoint: Endpoint,
    body: &[u8],
    debug_hooks: bool,
) -> Result<ApiRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let Json::Obj(members) = &doc else {
        return Err("body must be a JSON object".to_string());
    };
    let accepted = accepted_fields(endpoint, debug_hooks);
    for (name, _) in members {
        if !accepted.contains(&name.as_str()) {
            return Err(format!(
                "unknown member `{name}` (accepted: {})",
                accepted.join(", ")
            ));
        }
    }

    let k = match doc.get("k") {
        Some(v) => {
            let k = as_count(v, "k")? as usize;
            if k == 0 || k > 64 {
                return Err("`k` must be between 1 and 64".to_string());
            }
            k
        }
        None => 4,
    };

    // Exactly one input: workload XOR source XOR synth.
    let inputs = ["workload", "source", "synth"]
        .iter()
        .filter(|f| doc.get(f).is_some())
        .count();
    if inputs != 1 {
        return Err("exactly one of `workload`, `source`, `synth` is required".to_string());
    }
    let (default_name, source) = if let Some(v) = doc.get("workload") {
        let name = v.as_str().ok_or("`workload` must be a string")?;
        let b = workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        (b.name.to_string(), Source::Text(b.source.to_string()))
    } else if let Some(v) = doc.get("source") {
        let src = v.as_str().ok_or("`source` must be a string")?;
        ("inline".to_string(), Source::Text(src.to_string()))
    } else {
        if endpoint != Endpoint::Assign {
            return Err("`synth` input is only supported by /v1/assign".to_string());
        }
        let spec = parse_synth(doc.get("synth").expect("counted above"), k)?;
        ("synth".to_string(), Source::Synth(spec))
    };
    let program = match doc.get("program") {
        Some(v) => v.as_str().ok_or("`program` must be a string")?.to_string(),
        None => default_name,
    };

    let mut session = Session::new(k);
    if let Some(v) = doc.get("strategy") {
        let s = v.as_str().ok_or("`strategy` must be a string")?;
        session.strategy =
            Strategy::parse(s).ok_or_else(|| format!("bad strategy `{s}` (1|2|3|exact)"))?;
    }
    if let Some(v) = doc.get("unroll") {
        let factor = as_count(v, "unroll")? as usize;
        if !(2..=64).contains(&factor) {
            return Err("`unroll` must be between 2 and 64".to_string());
        }
        session = session.with_unroll(factor);
    }
    if let Some(v) = doc.get("no_opt") {
        session.opts.optimize = !as_bool(v, "no_opt")?;
    }
    if let Some(v) = doc.get("rename") {
        session.opts.rename = as_bool(v, "rename")?;
    }
    if let Some(v) = doc.get("backtrack") {
        if as_bool(v, "backtrack")? {
            session.params.duplication = DuplicationStrategy::Backtrack;
        }
    }
    if let Some(v) = doc.get("no_atoms") {
        session.params.use_atoms = !as_bool(v, "no_atoms")?;
    }
    if let Some(v) = doc.get("seed") {
        session.seed = as_count(v, "seed")?;
    }
    if let Some(v) = doc.get("array_policy") {
        let s = v.as_str().ok_or("`array_policy` must be a string")?;
        session.array_policy = Some(
            ArrayPolicy::parse(s)
                .ok_or_else(|| format!("bad array_policy `{s}` (interleaved|hash|block|auto)"))?,
        );
    }
    if endpoint == Endpoint::Exact {
        let mut exact = ExactConfig::default();
        if let Some(v) = doc.get("budget_nodes") {
            exact.budget_nodes = as_count(v, "budget_nodes")?;
        }
        if let Some(v) = doc.get("budget_ms") {
            exact.budget_ms = as_count(v, "budget_ms")?;
        }
        if let Some(v) = doc.get("no_portfolio") {
            exact.portfolio = !as_bool(v, "no_portfolio")?;
        }
        session.exact_gap = Some(exact);
    }

    let predict = match doc.get("predict") {
        Some(v) => as_bool(v, "predict")?,
        None => false,
    };
    let sleep_ms = match doc.get("sleep_ms") {
        Some(v) => as_count(v, "sleep_ms")?.min(60_000),
        None => 0,
    };

    Ok(ApiRequest {
        endpoint,
        program,
        source,
        session,
        predict,
        sleep_ms,
    })
}

impl ApiRequest {
    /// FNV digest of the program input — the display name plus the source
    /// text or canonical synth-spec string (the seed lives in the options
    /// digest). The display name is included because it appears verbatim
    /// in response bodies: two requests differing only in `program` must
    /// not share a cached body.
    pub fn program_digest(&self) -> u64 {
        let input = match &self.source {
            Source::Text(src) => format!("{}\u{0}{}", self.program, src),
            Source::Synth(sp) => format!(
                "{}\u{0}synth:values={},edges={},cliques={},clique_size={},components={},modules={}",
                self.program, sp.values, sp.edges, sp.cliques, sp.clique_size, sp.components,
                sp.modules
            ),
        };
        fnv1a(input.as_bytes())
    }

    /// The content address of this request's response.
    pub fn cache_key(&self) -> CacheKey {
        let mut opts = self.session.config_digest();
        // Per-endpoint extras outside the session: the lint predict flag.
        if self.predict {
            opts ^= 0x9E37_79B9_7F4A_7C15;
        }
        CacheKey {
            endpoint: self.endpoint.discriminant(),
            program: self.program_digest(),
            k: self.session.k as u32,
            strategy: STRATEGY_REGISTRY
                .iter()
                .position(|i| i.name == self.session.strategy.name())
                .unwrap_or(0) as u8,
            opts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(endpoint: Endpoint, body: &str) -> Result<ApiRequest, String> {
        parse_request(endpoint, body.as_bytes(), false)
    }

    #[test]
    fn minimal_workload_request_defaults() {
        let r = parse(Endpoint::Assign, r#"{"workload":"FFT"}"#).unwrap();
        assert_eq!(r.program, "FFT");
        assert_eq!(r.session.k, 4);
        assert_eq!(r.session.strategy.name(), "STOR1");
        assert_eq!(r.session.seed, parmem_driver::DEFAULT_SEED);
        assert!(matches!(r.source, Source::Text(_)));
    }

    #[test]
    fn unknown_members_are_rejected_naming_accepted() {
        let e = parse(Endpoint::Assign, r#"{"workload":"FFT","stor":"2"}"#).unwrap_err();
        assert!(e.contains("unknown member `stor`"), "{e}");
        assert!(e.contains("accepted:"), "{e}");
        // Exact-only members don't leak into assign.
        let e = parse(Endpoint::Assign, r#"{"workload":"FFT","budget_nodes":1}"#).unwrap_err();
        assert!(e.contains("unknown member `budget_nodes`"), "{e}");
        // sleep_ms is rejected without debug hooks…
        let e = parse(Endpoint::Assign, r#"{"workload":"FFT","sleep_ms":50}"#).unwrap_err();
        assert!(e.contains("unknown member `sleep_ms`"), "{e}");
        // …and accepted with them.
        let r = parse_request(
            Endpoint::Assign,
            br#"{"workload":"FFT","sleep_ms":50}"#,
            true,
        )
        .unwrap();
        assert_eq!(r.sleep_ms, 50);
    }

    #[test]
    fn exactly_one_input_is_required() {
        let e = parse(Endpoint::Assign, r#"{"k":4}"#).unwrap_err();
        assert!(e.contains("exactly one of"), "{e}");
        let e = parse(
            Endpoint::Assign,
            r#"{"workload":"FFT","source":"program x; begin end."}"#,
        )
        .unwrap_err();
        assert!(e.contains("exactly one of"), "{e}");
    }

    #[test]
    fn synth_only_on_assign_and_validated() {
        let e = parse(Endpoint::Compile, r#"{"synth":{"values":100}}"#).unwrap_err();
        assert!(e.contains("only supported by /v1/assign"), "{e}");
        let e = parse(Endpoint::Assign, r#"{"synth":{"values":3,"components":4}}"#).unwrap_err();
        assert!(e.contains("too small"), "{e}");
        let r = parse(Endpoint::Assign, r#"{"synth":{"values":100},"k":8}"#).unwrap();
        match r.source {
            Source::Synth(sp) => {
                assert_eq!(sp.values, 100);
                assert_eq!(sp.modules, 8);
                assert_eq!(sp.edges, 400);
            }
            _ => panic!("expected synth source"),
        }
    }

    #[test]
    fn knobs_parse_like_the_cli_flags() {
        let r = parse(
            Endpoint::Exact,
            r#"{"workload":"FFT","k":2,"strategy":"3","no_opt":true,"backtrack":true,
               "no_atoms":true,"seed":7,"budget_nodes":1000,"budget_ms":50,"no_portfolio":true}"#,
        )
        .unwrap();
        let s = &r.session;
        assert_eq!(s.k, 2);
        assert_eq!(s.strategy.name(), "STOR3");
        assert!(!s.opts.optimize);
        assert_eq!(s.params.duplication, DuplicationStrategy::Backtrack);
        assert!(!s.params.use_atoms);
        assert_eq!(s.seed, 7);
        let exact = s.exact_gap.expect("/v1/exact carries its budgets");
        assert_eq!(exact.budget_nodes, 1000);
        assert_eq!(exact.budget_ms, 50);
        assert!(!exact.portfolio);
        // Only /v1/exact runs the solver, so only it carries budgets.
        let c = parse(Endpoint::Compile, r#"{"workload":"FFT"}"#).unwrap();
        assert!(c.session.exact_gap.is_none());
    }

    #[test]
    fn members_configure_the_same_session_as_the_cli_flags() {
        use parmem_driver::args::{self, CommonArgs};

        let r = parse(
            Endpoint::Compile,
            r#"{"workload":"FFT","k":4,"strategy":"3","unroll":4,"no_opt":true,
               "backtrack":true,"no_atoms":true,"seed":7,"array_policy":"hash"}"#,
        )
        .unwrap();
        let flags = ["--no-opt", "--backtrack", "--no-atoms"];
        let values = ["-k", "--stor", "--unroll", "--seed", "--array-policy"];
        let argv: Vec<String> = [
            "FFT",
            "-k",
            "4",
            "--stor",
            "3",
            "--unroll",
            "4",
            "--no-opt",
            "--backtrack",
            "--no-atoms",
            "--seed",
            "7",
            "--array-policy",
            "hash",
        ]
        .map(String::from)
        .to_vec();
        let a = CommonArgs::parse("trace", &argv, &flags, &values).unwrap();
        let cli = args::session(&a, args::module_count(&a, 8).unwrap())
            .unwrap()
            .with_strategy(args::strategy(&a).unwrap());
        assert_eq!(r.session.opts.unroll, cli.opts.unroll);
        assert_eq!(r.session.config_digest(), cli.config_digest());
    }

    #[test]
    fn array_policy_parses_and_feeds_the_session() {
        let r = parse(
            Endpoint::Compile,
            r#"{"workload":"FFT","array_policy":"block"}"#,
        )
        .unwrap();
        assert_eq!(r.session.array_policy, Some(ArrayPolicy::Block));
        // Absent policy keeps the scalar-only session (and its digest).
        let plain = parse(Endpoint::Compile, r#"{"workload":"FFT"}"#).unwrap();
        assert_eq!(plain.session.array_policy, None);
        assert_ne!(plain.session.config_digest(), r.session.config_digest());
        let e = parse(
            Endpoint::Compile,
            r#"{"workload":"FFT","array_policy":"striped"}"#,
        )
        .unwrap_err();
        assert!(e.contains("bad array_policy `striped`"), "{e}");
    }

    #[test]
    fn bad_values_are_descriptive_400s() {
        for (body, needle) in [
            (r#"{"workload":"NOPE"}"#, "unknown workload"),
            (r#"{"workload":"FFT","k":0}"#, "between 1 and 64"),
            (r#"{"workload":"FFT","k":-3}"#, "non-negative"),
            (r#"{"workload":"FFT","strategy":"9"}"#, "bad strategy"),
            (r#"{"workload":"FFT","unroll":1}"#, "between 2 and 64"),
            (r#"{"workload":"FFT","no_opt":"yes"}"#, "must be a boolean"),
            ("[1,2]", "must be a JSON object"),
            ("{broken", "not valid JSON"),
        ] {
            let e = parse(Endpoint::Assign, body).unwrap_err();
            assert!(e.contains(needle), "`{body}` -> {e}");
        }
    }

    #[test]
    fn cache_key_separates_what_matters_and_ignores_rest() {
        let base = parse(Endpoint::Assign, r#"{"workload":"FFT"}"#).unwrap();
        let k0 = base.cache_key();
        // Same request → same key.
        assert_eq!(
            k0,
            parse(Endpoint::Assign, r#"{"workload":"FFT"}"#)
                .unwrap()
                .cache_key()
        );
        // Different program, k, strategy, options, endpoint → different key.
        for body in [
            r#"{"workload":"SORT"}"#,
            r#"{"workload":"FFT","k":8}"#,
            r#"{"workload":"FFT","strategy":"2"}"#,
            r#"{"workload":"FFT","seed":1}"#,
            r#"{"workload":"FFT","no_opt":true}"#,
            r#"{"workload":"FFT","array_policy":"hash"}"#,
        ] {
            let k = parse(Endpoint::Assign, body).unwrap().cache_key();
            assert_ne!(k0, k, "{body} should change the key");
        }
        assert_ne!(
            k0,
            parse(Endpoint::Compile, r#"{"workload":"FFT"}"#)
                .unwrap()
                .cache_key()
        );
        // The lint predict flag is part of the address.
        let lp = parse(Endpoint::Lint, r#"{"workload":"FFT","predict":true}"#)
            .unwrap()
            .cache_key();
        let ln = parse(Endpoint::Lint, r#"{"workload":"FFT"}"#)
            .unwrap()
            .cache_key();
        assert_ne!(lp, ln);
        // The display name appears in response bodies, so it is part of
        // the address too: a relabelled request must not hit the other
        // label's cached body.
        let named = parse(
            Endpoint::Assign,
            r#"{"workload":"FFT","program":"renamed"}"#,
        )
        .unwrap();
        assert_eq!(named.program, "renamed");
        assert_ne!(k0, named.cache_key());
    }
}
