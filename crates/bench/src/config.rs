//! Typed run configuration for the experiment framework.
//!
//! The former per-binary drivers each re-parsed `RIL_TIMEOUT_SECS`,
//! `RIL_THREADS`, `RIL_TABLE1_FULL`, … ad hoc, silently swallowing
//! malformed values. [`RunConfig`] parses the environment exactly once,
//! **validates** it (a typo'd `RIL_TIMEOUT_SECS=6O` is an error, not a
//! silent fall-back to the default), and is recorded verbatim into every
//! run manifest so a result can always be traced to the knobs that
//! produced it.

use std::path::PathBuf;
use std::time::Duration;

/// Stderr verbosity of a run's narration (`RIL_LOG`). Levels are
/// cumulative: `note` shows errors and notes. The span log always
/// records every note and error, whatever the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing on stderr.
    Off,
    /// Only errors.
    Error,
    /// Errors plus run lifecycle and notes (the default).
    Note,
}

impl LogLevel {
    /// Parses a `RIL_LOG` value. `None` for anything but the three level
    /// names (callers treat that as a hard configuration error).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "note" => Some(LogLevel::Note),
            _ => None,
        }
    }

    /// The level's `RIL_LOG` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Note => "note",
        }
    }
}

/// A validated experiment-run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Per-cell attack budget (`RIL_TIMEOUT_SECS`, default 60 s — the
    /// scaled-down stand-in for the paper's 5-day timeout).
    pub timeout: Duration,
    /// Sweep worker threads (`RIL_THREADS`, default: available
    /// parallelism).
    pub threads: usize,
    /// Output directory for tables, manifests, span logs and the cell
    /// cache (`RIL_OUT_DIR`, default `exp_out`).
    pub out_dir: PathBuf,
    /// Run the paper's full 10-row Table I sweep (`RIL_TABLE1_FULL=1`).
    pub table1_full: bool,
    /// Monte-Carlo instance count for Fig. 6 (`RIL_MC_INSTANCES`,
    /// default 100).
    pub mc_instances: usize,
    /// CI-sized variants: tiny sweeps, capped budgets (`--smoke`).
    pub smoke: bool,
    /// Read/write the content-addressed cell cache (`--no-cache` turns
    /// this off; the cells are then always recomputed).
    pub use_cache: bool,
    /// Stderr verbosity of the narration (`RIL_LOG`, default `note`).
    pub log_level: LogLevel,
}

/// A rejected environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending variable.
    pub var: &'static str,
    /// Its value as found.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: {}", self.var, self.value, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            timeout: Duration::from_secs(60),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            out_dir: PathBuf::from("exp_out"),
            table1_full: false,
            mc_instances: 100,
            smoke: false,
            use_cache: true,
            log_level: LogLevel::Note,
        }
    }
}

impl RunConfig {
    /// Parses and validates the `RIL_*` environment once. Unset variables
    /// take their documented defaults; set-but-malformed variables are
    /// **errors**.
    ///
    /// # Errors
    ///
    /// Returns the first offending variable.
    pub fn from_env() -> Result<RunConfig, ConfigError> {
        let mut cfg = RunConfig::default();
        if let Some(v) = read_env("RIL_TIMEOUT_SECS") {
            let secs: u64 = v.parse().map_err(|_| ConfigError {
                var: "RIL_TIMEOUT_SECS",
                value: v.clone(),
                reason: "expected a positive integer number of seconds",
            })?;
            if secs == 0 {
                return Err(ConfigError {
                    var: "RIL_TIMEOUT_SECS",
                    value: v,
                    reason: "must be at least 1",
                });
            }
            cfg.timeout = Duration::from_secs(secs);
        }
        if let Some(v) = read_env("RIL_THREADS") {
            let n: usize = v.parse().map_err(|_| ConfigError {
                var: "RIL_THREADS",
                value: v.clone(),
                reason: "expected a positive integer worker count",
            })?;
            if n == 0 {
                return Err(ConfigError {
                    var: "RIL_THREADS",
                    value: v,
                    reason: "must be at least 1",
                });
            }
            cfg.threads = n;
        }
        if let Some(v) = read_env("RIL_OUT_DIR") {
            cfg.out_dir = PathBuf::from(v);
        }
        if let Some(v) = read_env("RIL_TABLE1_FULL") {
            cfg.table1_full = match v.as_str() {
                "1" => true,
                "0" => false,
                _ => {
                    return Err(ConfigError {
                        var: "RIL_TABLE1_FULL",
                        value: v,
                        reason: "expected 0 or 1",
                    })
                }
            };
        }
        if let Some(v) = read_env("RIL_MC_INSTANCES") {
            let n: usize = v.parse().map_err(|_| ConfigError {
                var: "RIL_MC_INSTANCES",
                value: v.clone(),
                reason: "expected a positive integer instance count",
            })?;
            if n == 0 {
                return Err(ConfigError {
                    var: "RIL_MC_INSTANCES",
                    value: v,
                    reason: "must be at least 1",
                });
            }
            cfg.mc_instances = n;
        }
        if let Some(v) = read_env("RIL_LOG") {
            cfg.log_level = LogLevel::parse(&v).ok_or(ConfigError {
                var: "RIL_LOG",
                value: v,
                reason: "expected one of off, error, note",
            })?;
        }
        Ok(cfg)
    }

    /// Applies the `--smoke` caps: per-cell budget ≤ 3 s, ≤ 20 MC
    /// instances, never the full Table I row set. Experiments additionally
    /// shrink their own sweeps when `smoke` is set.
    pub fn apply_smoke(mut self) -> RunConfig {
        self.smoke = true;
        self.timeout = self.timeout.min(Duration::from_secs(3));
        self.mc_instances = self.mc_instances.min(20);
        self.table1_full = false;
        self
    }

    /// The configuration as a JSON object, for manifests.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"timeout_s":{},"threads":{},"out_dir":"{}","table1_full":{},"mc_instances":{},"smoke":{},"use_cache":{},"log_level":"{}"}}"#,
            self.timeout.as_secs_f64(),
            self.threads,
            ril_trace::json::escape(&self.out_dir.display().to_string()),
            self.table1_full,
            self.mc_instances,
            self.smoke,
            self.use_cache,
            self.log_level.as_str(),
        )
    }
}

fn read_env(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|v| !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-mutation is unsafe under the parallel test harness, so the
    // parsing paths are covered via the pure helpers and defaults only;
    // `from_env` with a clean environment must yield the defaults.
    #[test]
    fn defaults_are_sane() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.timeout, Duration::from_secs(60));
        assert!(cfg.threads >= 1);
        assert!(cfg.use_cache);
        assert!(!cfg.smoke);
    }

    #[test]
    fn smoke_caps_budgets() {
        let cfg = RunConfig {
            table1_full: true,
            ..RunConfig::default()
        }
        .apply_smoke();
        assert!(cfg.smoke);
        assert!(cfg.timeout <= Duration::from_secs(3));
        assert!(cfg.mc_instances <= 20);
        assert!(!cfg.table1_full);
    }

    #[test]
    fn smoke_respects_tighter_explicit_budget() {
        let cfg = RunConfig {
            timeout: Duration::from_secs(1),
            mc_instances: 5,
            ..RunConfig::default()
        }
        .apply_smoke();
        assert_eq!(cfg.timeout, Duration::from_secs(1));
        assert_eq!(cfg.mc_instances, 5);
    }

    #[test]
    fn config_json_parses_back() {
        let cfg = RunConfig::default();
        let v = ril_trace::json::JsonValue::parse(&cfg.to_json()).unwrap();
        assert_eq!(v.get("timeout_s").unwrap().as_f64(), Some(60.0));
        assert_eq!(v.get("use_cache").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("log_level").unwrap().as_str(), Some("note"));
    }

    #[test]
    fn log_levels_parse_and_order() {
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("error"), Some(LogLevel::Error));
        assert_eq!(LogLevel::parse("note"), Some(LogLevel::Note));
        assert_eq!(LogLevel::parse("debug"), None);
        assert_eq!(LogLevel::parse("NOTE"), None);
        assert!(LogLevel::Off < LogLevel::Error);
        assert!(LogLevel::Error < LogLevel::Note);
        assert_eq!(LogLevel::Note.as_str(), "note");
    }
}
