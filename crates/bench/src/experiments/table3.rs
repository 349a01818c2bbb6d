//! Table III — SAT seconds for 1/2/3 8×8×8 RIL-Blocks on the ISCAS-89 /
//! ITC-99 and CEP benchmark set, plus the AppSAT column under the armed
//! Scan-Enable circuitry (✗ = attack fails, as the paper reports for every
//! circuit).
//!
//! Cells run in parallel across `RunConfig::threads` workers; each cell
//! goes through the content-addressed cache, so an interrupted sweep
//! resumes from the cells already on disk. Full per-cell attack reports
//! land in `<out_dir>/BENCH_table3.json`.

use std::time::Duration;

use ril_attacks::{run_attack, AttackConfig, AttackKind};
use ril_core::RilBlockSpec;
use ril_netlist::generators;

use crate::cell::LockCell;
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{
    defense_held, lock_with_armed_se, print_table, CellOutcome, CellSpec, RunConfig, SatCellSpec,
};

/// The Table III reproduction.
pub struct Table3;

/// One reported Table III row: (benchmark, 1, 2, 3 blocks; None = ∞).
type PaperRow = (&'static str, Option<f64>, Option<f64>, Option<f64>);

/// Paper Table III per benchmark for 1/2/3 blocks.
const PAPER: &[PaperRow] = &[
    ("b15", Some(124.25), Some(546.2), None),
    ("s35932", Some(105.1), Some(1864.2), None),
    ("s38584", Some(345.2), None, None),
    ("b20", Some(240.4), Some(2454.26), None),
    ("aes", Some(1060.56), None, None),
    ("sha256", Some(846.87), None, None),
    ("md5", Some(1450.1), None, None),
    ("gps", None, None, None),
];

/// The benchmark rows this configuration sweeps.
fn paper_rows(cfg: &RunConfig) -> &'static [PaperRow] {
    if cfg.smoke {
        &PAPER[..2]
    } else {
        PAPER
    }
}

/// The per-cell obfuscation seed (varies with block count only).
fn seed_for(blocks: usize) -> u64 {
    7 + blocks as u64
}

/// The AppSAT/SE column's cell: AppSAT against the first lock at or
/// after the cell's seed whose Scan-Enable stage is armed.
pub(crate) fn appsat_cell(c: &LockCell) -> Result<CellOutcome, ExperimentError> {
    let host = generators::by_name(&c.bench)?;
    let Some(locked) = lock_with_armed_se(&host, c.spec, c.blocks, c.seed) else {
        return Ok(CellOutcome::bare("n/a"));
    };
    let app_cfg = AttackConfig {
        timeout: Some(Duration::from_secs(c.timeout_s)),
        ..AttackConfig::default()
    };
    let report = run_attack(AttackKind::AppSat, &locked, &app_cfg)?.report;
    let cell = if defense_held(&report.result, report.functionally_correct) {
        "✗ (paper ✗)".to_string()
    } else {
        "BROKE DEFENSE (paper ✗)".to_string()
    };
    Ok(CellOutcome {
        cell,
        report: Some(report),
    })
}

impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn describe(&self) -> &'static str {
        "Table III — benchmark suite with 8×8×8 blocks + AppSAT/SE column"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        ctx.note(&format!(
            "Table III reproduction — timeout {:?} per cell (paper: 5 days), {} worker threads",
            cfg.timeout, cfg.threads
        ));
        let paper_rows = paper_rows(cfg);
        let cells = self.cells(cfg);
        let outcomes = ctx.outcomes(&cells, cfg.threads);

        let mut rows = Vec::new();
        let mut json_cells = Vec::new();
        for (bi, &(name, p1, p2, p3)) in paper_rows.iter().enumerate() {
            let mut row = vec![name.to_string()];
            for (ci, paper) in [(0usize, p1), (1, p2), (2, p3)] {
                let outcome = &outcomes[bi * 4 + ci];
                let p = paper.map(|s| s.to_string()).unwrap_or_else(|| "∞".into());
                row.push(format!("{} (paper {p})", outcome.cell));
                json_cells.push(format!(
                    r#"{{"bench":"{name}","blocks":{},"attack":"sat","cell":"{}","report":{}}}"#,
                    ci + 1,
                    outcome.cell,
                    outcome.report_json()
                ));
            }
            // AppSAT with the SE circuitry armed — the ✗ column.
            let appsat = &outcomes[bi * 4 + 3];
            row.push(appsat.cell.clone());
            json_cells.push(format!(
                r#"{{"bench":"{name}","blocks":1,"attack":"appsat_se","cell":"{}","report":{}}}"#,
                appsat.cell,
                appsat.report_json()
            ));
            rows.push(row);
        }
        print_table(
            "Table III — SAT seconds with N 8x8x8 RIL-Blocks, measured (paper)",
            &[
                "Circuit",
                "1 block",
                "2 blocks",
                "3 blocks",
                "AppSAT success",
            ],
            &rows,
        );
        let json = format!(
            r#"{{"table":"table3","timeout_s":{},"threads":{},"cells":[{}]}}"#,
            cfg.timeout.as_secs_f64(),
            cfg.threads,
            json_cells.join(",")
        );
        let path = ctx.write_output("BENCH_table3.json", &json)?;
        ctx.note(&format!("per-cell solver statistics: {}", path.display()));
        Ok(ExperimentOutput {
            summary: format!(
                "{} cells ({} benchmarks × 4 columns)",
                cells.len(),
                paper_rows.len()
            ),
            files: vec![path],
        })
    }

    /// Per benchmark row: the 1/2/3-block SAT cells, then the AppSAT/SE
    /// cell.
    fn cells(&self, cfg: &RunConfig) -> Vec<CellSpec> {
        let spec = RilBlockSpec::size_8x8x8();
        let timeout_s = cfg.timeout.as_secs();
        paper_rows(cfg)
            .iter()
            .flat_map(|&(name, ..)| {
                (1..=3)
                    .map(move |blocks| {
                        CellSpec::Sat(SatCellSpec {
                            bench: name.to_string(),
                            spec,
                            blocks,
                            seed: seed_for(blocks),
                            timeout_s,
                            solver_threads: 1,
                        })
                    })
                    .chain([CellSpec::AppSatSe(LockCell {
                        bench: name.to_string(),
                        spec: spec.with_scan(true),
                        blocks: 1,
                        seed: 100,
                        timeout_s,
                    })])
            })
            .collect()
    }
}
