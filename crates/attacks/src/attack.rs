//! The unified attack API.
//!
//! The four adversaries of the paper's Table III — the exact SAT attack,
//! AppSAT, ScanSAT and removal+bypass — historically each had their own
//! free-function entry point with its own config struct. This module puts
//! one surface over all of them: [`AttackKind`] names an attack,
//! [`AttackConfig`] carries every knob any of them understands, and
//! [`run_attack`] runs the one a kind names. Every attack returns the same
//! [`AttackOutcome`], so the bench drivers iterate over kinds instead of
//! special-casing call signatures. [`run_attack`] is the one harness: it
//! builds the attacker view and the oracle, runs the attack, and checks
//! the recovered key against ground truth with [`check_key`]. The
//! oracle-level drivers (`satattack::sat_attack`, `appsat::appsat_attack`,
//! `scansat::scansat_model_attack`) stay at their module paths for callers
//! that bring their own oracle.

use crate::appsat::{appsat_attack, AppSatConfig};
use crate::oracle::{attacker_view, Oracle};
use crate::removal::{removal_attack_impl, RemovalReport};
use crate::report::{AttackReport, AttackResult};
use crate::satattack::{sat_attack, SatAttackConfig, DEFAULT_TIMEOUT};
use crate::scansat::scansat_model_attack;
use ril_core::LockedCircuit;
use ril_netlist::NetlistError;
use ril_sat::SolverStats;
use std::time::{Duration, Instant};

/// The attacks of the paper's Table III, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// The exact oracle-guided SAT attack.
    Sat,
    /// AppSAT, the approximate variant with error estimation.
    AppSat,
    /// ScanSAT's output-mask modelling attack.
    ScanSat,
    /// Removal + bypass of key-dependent logic.
    Removal,
}

impl AttackKind {
    /// Every kind, in the paper's table order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::Sat,
        AttackKind::AppSat,
        AttackKind::ScanSat,
        AttackKind::Removal,
    ];

    /// Stable machine-readable name (the `attack` field in bench output).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Sat => "sat",
            AttackKind::AppSat => "appsat",
            AttackKind::ScanSat => "scansat",
            AttackKind::Removal => "removal",
        }
    }

    /// Parses [`AttackKind::name`] back; `None` for unknown names.
    pub fn parse(s: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The canonical cross-attack configuration: the union of every knob the
/// four attacks understand. Each attack reads the fields it cares about
/// and ignores the rest.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Total wall-clock budget (`None` = unbounded).
    pub timeout: Option<Duration>,
    /// Maximum DIP iterations (SAT / AppSAT / ScanSAT).
    pub max_iterations: Option<usize>,
    /// RNG seed (AppSAT's random queries, removal's scoring patterns).
    pub seed: u64,
    /// SAT / ScanSAT: DIPs accumulated per round before one lane-packed
    /// oracle flush (`1` = strictly sequential; clamped to `1..=64`).
    pub dip_batch: usize,
    /// AppSAT: DIP iterations between error estimations.
    pub rounds_per_estimate: usize,
    /// AppSAT: random queries per estimation.
    pub queries_per_estimate: usize,
    /// AppSAT: accept the candidate at or below this estimated error.
    pub error_threshold: f64,
    /// Removal: 64-pattern simulation words scoring the salvage.
    pub patterns: usize,
}

impl Default for AttackConfig {
    fn default() -> AttackConfig {
        let appsat = AppSatConfig::default();
        AttackConfig {
            timeout: Some(DEFAULT_TIMEOUT),
            max_iterations: None,
            seed: appsat.seed,
            dip_batch: SatAttackConfig::default().dip_batch,
            rounds_per_estimate: appsat.rounds_per_estimate,
            queries_per_estimate: appsat.queries_per_estimate,
            error_threshold: appsat.error_threshold,
            patterns: 32,
        }
    }
}

impl AttackConfig {
    /// Projects the shared config onto a [`SatAttackConfig`] (SAT and
    /// ScanSAT read this view).
    pub fn sat_config(&self) -> SatAttackConfig {
        SatAttackConfig {
            timeout: self.timeout,
            max_iterations: self.max_iterations,
            dip_batch: self.dip_batch,
        }
    }

    /// Projects the shared config onto an [`AppSatConfig`].
    pub fn appsat_config(&self) -> AppSatConfig {
        AppSatConfig {
            rounds_per_estimate: self.rounds_per_estimate,
            queries_per_estimate: self.queries_per_estimate,
            error_threshold: self.error_threshold,
            timeout: self.timeout,
            max_iterations: self.max_iterations,
            seed: self.seed,
        }
    }
}

/// What any attack produces: the common [`AttackReport`] plus any
/// attack-specific extras.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Which attack ran.
    pub kind: AttackKind,
    /// The canonical report (for removal this is synthesized from the
    /// native [`RemovalReport`]).
    pub report: AttackReport,
    /// The full removal report, when [`AttackOutcome::kind`] is
    /// [`AttackKind::Removal`].
    pub removal: Option<RemovalReport>,
}

/// Runs removal+bypass and synthesizes its canonical report.
///
/// Removal is structural, not oracle-guided, so its native result is a
/// [`RemovalReport`]. The canonical report claims success (an empty
/// [`AttackResult::ExactKey`]: removal recovers a circuit, not a key) only
/// when the exact miter proved the salvage equivalent, and otherwise
/// [`AttackResult::Failed`] carrying the sampled error rate. The full
/// native report rides along in [`AttackOutcome::removal`].
fn removal_outcome(
    locked: &LockedCircuit,
    cfg: &AttackConfig,
) -> Result<AttackOutcome, NetlistError> {
    let start = Instant::now();
    let removal = removal_attack_impl(locked, cfg.patterns, cfg.seed)?;
    let exact = removal.exact_equivalent;
    let result = if exact == Some(true) {
        AttackResult::ExactKey(Vec::new())
    } else {
        AttackResult::Failed(format!(
            "salvaged netlist is not equivalent (sampled error rate {:.4})",
            removal.error_rate
        ))
    };
    let report = AttackReport {
        result,
        wall: start.elapsed(),
        iterations: 0,
        oracle_queries: 0,
        functionally_correct: exact,
        miter_stats: SolverStats::default(),
        finder_stats: SolverStats::default(),
        iteration_stats: Vec::new(),
    };
    Ok(AttackOutcome {
        kind: AttackKind::Removal,
        report,
        removal: Some(removal),
    })
}

/// Runs the attack named by `kind` — the canonical entry point of the
/// suite. An oracle-guided attack runs against the locked circuit's
/// attacker view and an in-process [`Oracle`]; its recovered key is then
/// checked with [`check_key`].
///
/// # Errors
///
/// Propagates netlist/simulator construction failures.
pub fn run_attack(
    kind: AttackKind,
    locked: &LockedCircuit,
    cfg: &AttackConfig,
) -> Result<AttackOutcome, NetlistError> {
    if kind == AttackKind::Removal {
        return removal_outcome(locked, cfg);
    }
    let view = attacker_view(locked);
    let mut oracle = Oracle::new(locked)?;
    let mut report = match kind {
        AttackKind::Sat => sat_attack(&view, &mut oracle, &cfg.sat_config()),
        AttackKind::AppSat => appsat_attack(&view, &mut oracle, &cfg.appsat_config()),
        AttackKind::ScanSat => scansat_model_attack(&view, &mut oracle, &cfg.sat_config())?,
        AttackKind::Removal => unreachable!("removal returned above"),
    };
    check_key(locked, &mut report)?;
    Ok(AttackOutcome {
        kind,
        report,
        removal: None,
    })
}

/// Checks the key a report recovered, if any, for *true* functional
/// equivalence — the ground truth the attacker lacks — and records the
/// verdict in [`AttackReport::functionally_correct`]. The check samples
/// 32 random 64-pattern blocks of the functional-mode circuit.
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn check_key(locked: &LockedCircuit, report: &mut AttackReport) -> Result<(), NetlistError> {
    if let Some(key) = report.result.key() {
        let _v = ril_trace::span("verify_key", ril_trace::Phase::Verify);
        report.functionally_correct = Some(locked.equivalent_under_key(key, 32)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_core::baselines::{sfll_lock, xor_lock};
    use ril_core::{Obfuscator, RilBlockSpec};
    use ril_netlist::generators;

    fn fast_cfg() -> AttackConfig {
        AttackConfig {
            timeout: Some(Duration::from_secs(30)),
            ..AttackConfig::default()
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in AttackKind::ALL {
            assert_eq!(AttackKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(AttackKind::parse("mystery"), None);
    }

    #[test]
    fn config_projections_carry_shared_knobs() {
        let mut cfg = fast_cfg();
        cfg.max_iterations = Some(7);
        cfg.error_threshold = 0.25;
        cfg.seed = 99;
        cfg.dip_batch = 16;
        let sat = cfg.sat_config();
        assert_eq!(sat.timeout, cfg.timeout);
        assert_eq!(sat.max_iterations, Some(7));
        assert_eq!(sat.dip_batch, 16);
        let app = cfg.appsat_config();
        assert_eq!(app.timeout, cfg.timeout);
        assert_eq!(app.max_iterations, Some(7));
        assert_eq!(app.error_threshold, 0.25);
        assert_eq!(app.seed, 99);
    }

    #[test]
    fn dispatcher_runs_every_kind() {
        let host = generators::adder(8);
        let locked = xor_lock(&host, 10, 4).unwrap();
        for kind in AttackKind::ALL {
            let outcome = run_attack(kind, &locked, &fast_cfg()).unwrap();
            assert_eq!(outcome.kind, kind);
            assert_eq!(outcome.removal.is_some(), kind == AttackKind::Removal);
        }
    }

    #[test]
    fn sat_kind_breaks_ril_blocks() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&host)
            .unwrap();
        let outcome = run_attack(AttackKind::Sat, &locked, &fast_cfg()).unwrap();
        assert!(outcome.report.result.succeeded(), "{}", outcome.report);
        assert_eq!(outcome.report.functionally_correct, Some(true));
    }

    #[test]
    fn sat_attack_is_deterministic() {
        // One engine, one decision order: rerunning the same attack must
        // replay the same search, solve by solve.
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&host)
            .unwrap();
        let cfg = fast_cfg();
        let first = run_attack(AttackKind::Sat, &locked, &cfg).unwrap().report;
        let second = run_attack(AttackKind::Sat, &locked, &cfg).unwrap().report;
        assert!(first.result.key().is_some(), "{first}");
        assert_eq!(first.result.key(), second.result.key());
        assert_eq!(first.iterations, second.iterations);
        let searches = |r: &AttackReport| -> Vec<(u64, u64, u64)> {
            r.iteration_stats
                .iter()
                .map(|it| {
                    (
                        it.stats.conflicts,
                        it.stats.decisions,
                        it.stats.propagations,
                    )
                })
                .collect()
        };
        assert_eq!(searches(&first), searches(&second));
    }

    #[test]
    fn removal_outcome_is_faithful_to_native_report() {
        // SFLL: sampling says "near perfect" but the exact miter says no —
        // the canonical report must reflect the exact verdict.
        let host = generators::adder(8);
        let locked = sfll_lock(&host, 8, 3).unwrap();
        let outcome = run_attack(AttackKind::Removal, &locked, &fast_cfg()).unwrap();
        let removal = outcome.removal.expect("native removal report");
        assert_eq!(removal.exact_equivalent, Some(false));
        assert!(matches!(outcome.report.result, AttackResult::Failed(_)));
        assert_eq!(outcome.report.functionally_correct, Some(false));
    }
}
