//! Section IV-B ablation — "the LUT used in RIL-block can be increased to
//! increase the SAT-hardness of the resulting RIL-Block": SAT-attack cost
//! versus LUT input count for plain LUT locking (the custom-LUT scheme of
//! refs \[8\]/\[12\]), and versus RIL-Block width for the full primitive.

use std::time::Duration;

use ril_attacks::{run_attack, AttackConfig, AttackKind};
use ril_core::baselines::lutm_lock;
use ril_core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::generators;

use crate::cell::{LockCell, LutMCell};
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, CellOutcome, CellSpec, RunConfig};

/// The LUT-size / block-width scaling ablation.
pub struct LutScaling;

/// The LUT input counts of the plain-LUT sweep.
fn lut_sizes(cfg: &RunConfig) -> std::ops::RangeInclusive<usize> {
    if cfg.smoke {
        2..=3
    } else {
        2..=6
    }
}

/// The RIL-Block shapes of the width sweep.
fn block_specs(cfg: &RunConfig) -> Vec<RilBlockSpec> {
    let tokens: &[&str] = if cfg.smoke {
        &["2x2", "4x4"]
    } else {
        &["2x2", "4x4", "8x8", "4x4x4", "8x8x8"]
    };
    tokens
        .iter()
        .map(|t| RilBlockSpec::parse(t).expect("valid spec token"))
        .collect()
}

/// SAT-attacks `locked` and renders the three scaling columns (key bits
/// / SAT time / DIP iterations) tab-separated in one cell string.
fn scaling_cell(locked: &LockedCircuit, timeout_s: u64) -> Result<CellOutcome, ExperimentError> {
    let attack_cfg = AttackConfig {
        timeout: Some(Duration::from_secs(timeout_s)),
        ..AttackConfig::default()
    };
    let report = run_attack(AttackKind::Sat, locked, &attack_cfg)?.report;
    Ok(CellOutcome {
        cell: format!(
            "{}\t{}\t{}",
            locked.key_width(),
            report.table_cell(),
            report.iterations
        ),
        report: Some(report),
    })
}

/// Plain LUT locking: the cell's LUT-`m`s on its host.
pub(crate) fn lutm_cell(c: &LutMCell) -> Result<CellOutcome, ExperimentError> {
    let host = generators::by_name(&c.bench)?;
    scaling_cell(&lutm_lock(&host, c.luts, c.m, c.seed)?, c.timeout_s)
}

/// The cell's RIL-Blocks on its host; a host too small for them renders
/// as an `error:` cell.
pub(crate) fn width_cell(c: &LockCell) -> Result<CellOutcome, ExperimentError> {
    let host = generators::by_name(&c.bench)?;
    match Obfuscator::new(c.spec)
        .blocks(c.blocks)
        .seed(c.seed)
        .obfuscate(&host)
    {
        Err(e) => Ok(CellOutcome::bare(format!("error: {e}"))),
        Ok(locked) => scaling_cell(&locked, c.timeout_s),
    }
}

impl Experiment for LutScaling {
    fn name(&self) -> &'static str {
        "lut_scaling"
    }

    fn describe(&self) -> &'static str {
        "§IV-B — SAT cost vs LUT input count and vs RIL-Block width"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        ctx.note(&format!(
            "LUT-size / block-width scaling — host `c7552`, timeout {:?}",
            cfg.timeout
        ));
        let cells = self.cells(cfg);
        let outcomes = ctx.outcomes(&cells, 1);
        let mut rows: Vec<Vec<String>> = cells
            .iter()
            .zip(&outcomes)
            .map(|(spec, outcome)| {
                let mut row = vec![spec.label()];
                row.extend(outcome.cell.split('\t').map(str::to_string));
                row.resize(4, String::new());
                row
            })
            .collect();
        let width_rows = rows.split_off(lut_sizes(cfg).count());
        let headers = ["Config", "Key bits", "SAT time", "DIP iterations"];
        print_table(
            "Plain LUT locking: SAT seconds vs LUT size",
            &headers,
            &rows,
        );
        print_table(
            "RIL-Blocks: SAT seconds vs block width (≈4 gates absorbed)",
            &headers,
            &width_rows,
        );
        ctx.note(
            "expected shape: both scalings grow the key search space per absorbed \
             gate; the routing+LUT composition (RIL) grows hardness faster than key \
             count alone (paper Section III-A)",
        );
        Ok(ExperimentOutput::summary(format!(
            "{} LUT sizes + {} block widths attacked",
            lut_sizes(cfg).count(),
            block_specs(cfg).len()
        )))
    }

    /// The LUT-size sweep, then the block-width sweep.
    fn cells(&self, cfg: &RunConfig) -> Vec<CellSpec> {
        let timeout_s = cfg.timeout.as_secs();
        let lutm = lut_sizes(cfg).map(|m| {
            CellSpec::LutM(LutMCell {
                bench: "c7552".to_string(),
                luts: 4,
                m,
                seed: 77,
                timeout_s,
            })
        });
        // The width sweep keeps the absorbed-gate count comparable
        // (~4 gates).
        let widths = block_specs(cfg).into_iter().map(|spec| {
            CellSpec::RilWidth(LockCell {
                bench: "c7552".to_string(),
                spec,
                blocks: (4 / spec.luts()).max(1),
                seed: 55,
                timeout_s,
            })
        });
        lutm.chain(widths).collect()
    }
}
