//! # ril-bench — experiment framework
//!
//! Every table and figure of the paper is an [`Experiment`] registered
//! with the framework and driven by the single `ril-bench` binary
//! (see DESIGN.md §8):
//!
//! | experiment | regenerates |
//! |---|---|
//! | `table1` | Table I — SAT seconds vs RIL-Block count/size on c7552 |
//! | `table3` | Table III — ISCAS/CEP benchmarks, 8×8×8 blocks, AppSAT ✗ |
//! | `table4` | Table IV — MRAM LUT energy |
//! | `table5` | Table V — attack-resiliency comparison matrix |
//! | `fig1` | Fig. 1 — MESO vs LUT-2 SAT-encoding runtimes |
//! | `fig5` | Fig. 5 — transient waveforms (AND → NOR → SE update) |
//! | `fig6` | Fig. 6 — Monte-Carlo PV distributions |
//! | `overhead` | §III-A overhead comparison |
//! | `scan_defense` | §III-C / IV-C Scan-Enable defense demonstration |
//! | `dynamic_defense` | Table V dynamic row — morph period vs SAT progress over `ril-serve` |
//! | `corruptibility` | output-corruption comparison vs point functions |
//! | `key_redundancy` | §III-A switch-box key-redundancy comparison |
//! | `lut_scaling` | §IV-B LUT-size / block-width scaling ablation |
//!
//! `ril-bench list` prints the registry; `ril-bench run <names…>` (or
//! `--all`, `--smoke`) executes experiments with a typed, validated
//! [`RunConfig`] (env knobs `RIL_TIMEOUT_SECS`, `RIL_THREADS`,
//! `RIL_OUT_DIR`, `RIL_TABLE1_FULL`, `RIL_MC_INSTANCES`, `RIL_LOG` are
//! parsed once, there), a content-addressed cell cache that makes
//! interrupted sweeps resumable, per-run manifests, and one run record
//! per experiment: the span log `SPANS_<exp>.jsonl` (spans, notes,
//! errors and metrics; DESIGN.md §9), which `ril-trace` writes and reads.
//! `ril-bench trace <run-dir>` aggregates a finished run's spans into a
//! per-phase time breakdown and renders each log as a Perfetto-loadable
//! `TRACE_<exp>.json`; `ril-bench validate <run-dir>` integrity-checks
//! every manifest and span log.

#![warn(missing_docs)]

pub mod cache;
pub mod cell;
pub mod config;
pub mod experiment;
pub mod experiments;
pub mod farm;
pub mod sweep;
pub mod tracereport;

pub use cache::{CacheKey, CellCache, Manifest, CACHE_VERSION};
pub use cell::{CellSpec, SatCellSpec, SEARCH};
pub use config::{ConfigError, LogLevel, RunConfig};
pub use experiment::{
    registry, run_experiments, run_experiments_with, Experiment, ExperimentError, ExperimentOutput,
    RunContext,
};
pub use farm::{run_farm_phase, run_worker, FarmSpec, WorkerConfig, WorkerSummary};
pub use tracereport::{trace_report, validate_run_dir};

use ril_attacks::{run_attack, AttackConfig, AttackKind, AttackReport, AttackResult};
use ril_core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::Netlist;
use std::time::Duration;

/// Renders a markdown-ish table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        fmt_row(row);
    }
}

/// One table cell's outcome: the rendered cell plus, when an attack
/// actually ran, the full [`AttackReport`] (with per-iteration solver
/// statistics) for machine-readable output.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The table cell string (`seconds`, `∞`, `n/a`, `err:…`).
    pub cell: String,
    /// The underlying attack report, when one was produced.
    pub report: Option<AttackReport>,
}

impl CellOutcome {
    /// A cell with no attack behind it (`n/a`, `err:…`).
    pub fn bare(cell: impl Into<String>) -> CellOutcome {
        CellOutcome {
            cell: cell.into(),
            report: None,
        }
    }

    /// The cell's JSON value: the report object, or `null` for bare cells.
    pub fn report_json(&self) -> String {
        self.report
            .as_ref()
            .map(AttackReport::to_json)
            .unwrap_or_else(|| "null".to_string())
    }
}

/// The SAT cell: locks the host with the spec's RIL-Blocks and runs the
/// SAT attack within its budget. The rendered cell is `seconds`, `∞`, or
/// `n/a` when the host cannot host that many independent blocks; the
/// full [`AttackReport`] (per-iteration DIP statistics included) rides
/// along.
pub(crate) fn sat_cell(c: &SatCellSpec) -> Result<CellOutcome, ExperimentError> {
    let host = ril_netlist::generators::by_name(&c.bench)?;
    let locked = {
        // Obfuscation is the cell's encode-side cost outside the attack
        // (the attack's own CNF building has its own `encode_*` spans).
        let _lock_span = ril_trace::span("lock", ril_trace::Phase::Encode);
        Obfuscator::new(c.spec)
            .blocks(c.blocks)
            .seed(c.seed)
            .obfuscate(&host)
    };
    let Ok(locked) = locked else {
        return Ok(CellOutcome::bare("n/a"));
    };
    let cfg = AttackConfig {
        timeout: Some(Duration::from_secs(c.timeout_s)),
        ..AttackConfig::default()
    };
    Ok(match run_attack(AttackKind::Sat, &locked, &cfg) {
        Err(e) => CellOutcome::bare(format!("err:{e}")),
        Ok(outcome) => {
            let report = outcome.report;
            let cell = if report.result.succeeded() && report.functionally_correct == Some(false) {
                // Recovered a key that does not actually unlock.
                format!("{}(✗)", report.table_cell())
            } else {
                report.table_cell()
            };
            CellOutcome {
                cell,
                report: Some(report),
            }
        }
    })
}

/// Obfuscates with the Scan-Enable stage on, retrying seeds until at least
/// one SE key bit is set (so the defense is actually armed).
pub fn lock_with_armed_se(
    host: &Netlist,
    spec: RilBlockSpec,
    blocks: usize,
    base_seed: u64,
) -> Option<LockedCircuit> {
    for seed in base_seed..base_seed + 50 {
        let locked = Obfuscator::new(spec)
            .blocks(blocks)
            .scan_obfuscation(true)
            .seed(seed)
            .obfuscate(host)
            .ok()?;
        let armed = locked
            .keys
            .kinds()
            .iter()
            .zip(locked.keys.bits())
            .any(|(k, &v)| matches!(k, ril_core::KeyBitKind::ScanEnable { .. }) && v);
        if armed {
            return Some(locked);
        }
    }
    None
}

/// Classifies an attack report into the ✓(defense held)/✗(broken) notation
/// used by Table V-style matrices, from the *defender's* perspective.
pub fn defense_held(result: &AttackResult, functionally_correct: Option<bool>) -> bool {
    match result {
        AttackResult::Timeout | AttackResult::Failed(_) => true,
        _ => functionally_correct == Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_netlist::generators;

    fn sat_cell_string(bench: &str, spec: RilBlockSpec, blocks: usize, seed: u64) -> String {
        let spec = SatCellSpec {
            bench: bench.to_string(),
            spec,
            blocks,
            seed,
            timeout_s: 30,
            solver_threads: 1,
        };
        sat_cell(&spec).expect("known host").cell
    }

    #[test]
    fn attack_cell_solves_trivial_config() {
        let cell = sat_cell_string("adder:8", RilBlockSpec::size_2x2(), 1, 3);
        assert_ne!(cell, "∞");
        assert_ne!(cell, "n/a");
        cell.parse::<f64>().expect("numeric cell");
    }

    #[test]
    fn attack_cell_reports_na_when_host_too_small() {
        let cell = sat_cell_string("adder:2", RilBlockSpec::size_8x8(), 50, 1);
        assert_eq!(cell, "n/a");
    }

    #[test]
    fn armed_se_lock_found() {
        let host = generators::adder(8);
        let locked = lock_with_armed_se(&host, RilBlockSpec::size_2x2(), 2, 0).unwrap();
        assert!(locked
            .keys
            .kinds()
            .iter()
            .zip(locked.keys.bits())
            .any(|(k, &v)| matches!(k, ril_core::KeyBitKind::ScanEnable { .. }) && v));
    }

    #[test]
    fn defense_classification() {
        assert!(defense_held(&AttackResult::Timeout, None));
        assert!(defense_held(&AttackResult::Failed("x".into()), None));
        assert!(defense_held(&AttackResult::ExactKey(vec![]), Some(false)));
        assert!(!defense_held(&AttackResult::ExactKey(vec![]), Some(true)));
    }
}
