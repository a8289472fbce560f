//! Live-telemetry wiring for the CLI: `--metrics-addr` and
//! `--flight-dump`.
//!
//! The session layer is the single place these flags turn into running
//! machinery: [`TelemetryConfig::from_args`] reads them off the shared
//! [`CommonArgs`] parser and [`TelemetryConfig::start`] arms the obs
//! collector, the flight recorder, and (when an address is given) the
//! std-only HTTP `/metrics` endpoint. The returned [`TelemetryGuard`]
//! shuts the endpoint down at the end of the command — after an optional
//! linger (`PARMEM_METRICS_LINGER_MS`) so scripts scraping a short run get
//! a final read — and writes the flight dump when the command fails.
//!
//! Panics need no explicit handling here: [`parmem_obs::flight::install`]
//! chains a panic hook that writes the dump even for panics the batch
//! engine later catches.

use std::path::PathBuf;
use std::sync::Arc;

use parmem_obs::serve::{serve_http, HttpOptions, HttpServer, MetricsState};

use crate::args::CommonArgs;

/// Flight-recorder ring capacity used by the CLI.
pub const FLIGHT_CAPACITY: usize = parmem_obs::flight::DEFAULT_CAPACITY;

/// Parsed telemetry options of one CLI invocation.
#[derive(Clone, Debug, Default)]
pub struct TelemetryConfig {
    /// `--metrics-addr ADDR` — bind the live `/metrics` endpoint here
    /// (e.g. `127.0.0.1:9184`; port 0 picks a free port).
    pub metrics_addr: Option<String>,
    /// `--flight-dump PATH` — write the flight-recorder artifact here on
    /// panic or command failure.
    pub flight_dump: Option<PathBuf>,
}

impl TelemetryConfig {
    /// Read `--metrics-addr`/`--flight-dump` from parsed arguments (both
    /// optional; subcommands that do not declare them simply never see
    /// them here).
    pub fn from_args(args: &CommonArgs) -> TelemetryConfig {
        TelemetryConfig {
            metrics_addr: args.value("--metrics-addr").map(str::to_string),
            flight_dump: args.value("--flight-dump").map(PathBuf::from),
        }
    }

    /// True when either flag was given.
    pub fn is_active(&self) -> bool {
        self.metrics_addr.is_some() || self.flight_dump.is_some()
    }

    /// Arm everything requested: enable the obs collector (live snapshots
    /// need data), install the flight recorder (and its panic hook), and
    /// bind the metrics endpoint. Prints the bound address to stderr so
    /// callers that passed port 0 can discover it.
    pub fn start(&self) -> Result<TelemetryGuard, String> {
        if !self.is_active() {
            return Ok(TelemetryGuard { server: None });
        }
        parmem_obs::set_enabled(true);
        parmem_obs::flight::install(FLIGHT_CAPACITY, self.flight_dump.clone(), false);
        let server = match &self.metrics_addr {
            Some(addr) => {
                let state = MetricsState::new();
                let srv = serve_http(
                    addr,
                    HttpOptions::default(),
                    Arc::new(move |req| state.route(req)),
                )
                .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
                eprintln!("metrics: listening on http://{}/metrics", srv.local_addr());
                Some(srv)
            }
            None => None,
        };
        Ok(TelemetryGuard { server })
    }
}

/// Keeps the metrics endpoint alive for the duration of the command.
pub struct TelemetryGuard {
    server: Option<HttpServer>,
}

impl TelemetryGuard {
    /// Write the flight dump for a command that failed without panicking
    /// (the PM-diagnostic path); no-op when `--flight-dump` was not given.
    pub fn dump_error(&self, message: &str) {
        let _ = parmem_obs::flight::dump_to_configured_path("error", Some((message, "<command>")));
    }

    /// Linger if `PARMEM_METRICS_LINGER_MS` asks for it (so a scraper can
    /// take a final reading of a short run), then shut the endpoint down.
    pub fn finish(self) {
        if let Some(srv) = self.server {
            let linger_ms = std::env::var("PARMEM_METRICS_LINGER_MS")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
            if linger_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(linger_ms.min(60_000)));
            }
            srv.shutdown();
        }
        parmem_obs::flight::deactivate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_config_starts_an_inert_guard() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.is_active());
        let guard = cfg.start().expect("inert start");
        guard.dump_error("nothing configured"); // no-op, must not fail
        guard.finish();
    }

    #[test]
    fn from_args_picks_up_both_flags() {
        let raw: Vec<String> = [
            "--metrics-addr",
            "127.0.0.1:0",
            "--flight-dump",
            "/tmp/fd.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = CommonArgs::parse("synth", &raw, &[], &["--metrics-addr", "--flight-dump"])
            .expect("parse");
        let cfg = TelemetryConfig::from_args(&args);
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(
            cfg.flight_dump.as_deref(),
            Some(std::path::Path::new("/tmp/fd.json"))
        );
        assert!(cfg.is_active());
    }
}
