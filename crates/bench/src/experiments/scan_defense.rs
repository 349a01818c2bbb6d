//! Sections III-C / IV-C — the Scan-Enable defense in action: the same
//! locked design is attacked with and without the SE circuitry armed, by
//! the SAT attack, AppSAT, and the ScanSAT model. With SE armed, every
//! oracle access returns corrupted responses and all oracle-guided attacks
//! are defeated.

use std::time::Duration;

use ril_attacks::{run_attack, AttackConfig, AttackKind, AttackReport};
use ril_core::{Obfuscator, RilBlockSpec};
use ril_netlist::generators;

use crate::cell::AttackCell;
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{defense_held, lock_with_armed_se, print_table, CellOutcome, CellSpec, RunConfig};

/// The Scan-Enable defense demonstration.
pub struct ScanDefense;

/// The attack columns, in table order.
const ATTACKS: [AttackKind; 3] = [AttackKind::Sat, AttackKind::AppSat, AttackKind::ScanSat];

fn render(report: &AttackReport) -> String {
    if defense_held(&report.result, report.functionally_correct) {
        if report.result.succeeded() {
            // The attack believes it won, but its key only matches the
            // corrupted scan responses, not the real function.
            "defended (recovered key is functionally wrong)".to_string()
        } else {
            format!("defended ({})", report.result)
        }
    } else {
        format!("BROKEN in {}", report.table_cell())
    }
}

/// The table row name of the design with the SE stage `armed` or not.
pub(crate) fn design_name(armed: bool) -> &'static str {
    if armed {
        "3 × 2x2 + SE armed"
    } else {
        "3 × 2x2 (no SE)"
    }
}

/// One cell: the attack against three 2x2 blocks on the 6-bit
/// multiplier (lock seed 21), with the SE stage armed or not.
pub(crate) fn attack_cell(c: &AttackCell<bool>) -> Result<CellOutcome, ExperimentError> {
    let host = generators::multiplier(6);
    let spec = RilBlockSpec::size_2x2();
    let locked = if c.design {
        lock_with_armed_se(&host, spec, 3, 21).ok_or("no seed in range yields an armed SE lock")?
    } else {
        Obfuscator::new(spec).blocks(3).seed(21).obfuscate(&host)?
    };
    let a_cfg = AttackConfig {
        timeout: Some(Duration::from_secs(c.timeout_s)),
        ..AttackConfig::default()
    };
    let report = run_attack(c.attack, &locked, &a_cfg)?.report;
    Ok(CellOutcome {
        cell: report.table_cell(),
        report: Some(report),
    })
}

impl Experiment for ScanDefense {
    fn name(&self) -> &'static str {
        "scan_defense"
    }

    fn describe(&self) -> &'static str {
        "§III-C/IV-C — oracle-guided attacks vs the armed SE defense"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let host = generators::multiplier(6);
        ctx.note(&format!(
            "Scan-Enable defense demo — host `{}` ({} gates), timeout {:?}",
            host.name(),
            host.gate_count(),
            cfg.timeout
        ));
        let outcomes = ctx.outcomes(&self.cells(cfg), 1);
        let mut rows = Vec::new();
        let mut broken = 0usize;
        for (armed, cells) in [false, true]
            .into_iter()
            .zip(outcomes.chunks(ATTACKS.len()))
        {
            let name = design_name(armed);
            let mut row = vec![name.to_string()];
            for (attack, outcome) in ATTACKS.iter().zip(cells) {
                let report = outcome.report.as_ref().ok_or_else(|| {
                    format!("{name}/{attack}: cell has no report ({})", outcome.cell)
                })?;
                if !defense_held(&report.result, report.functionally_correct) {
                    broken += 1;
                }
                row.push(render(report));
            }
            rows.push(row);
        }
        print_table(
            "Oracle-guided attacks vs the SE defense",
            &["Design", "SAT attack", "AppSAT", "ScanSAT model"],
            &rows,
        );
        ctx.note(
            "why: with SE armed, asserting scan-enable flips the output of every LUT \
             whose hidden MTJ_SE key is 1 — an OR LUT answers like a NOR (Section IV-C), \
             and no key hypothesis is consistent with the corrupted responses once the \
             inversions mix into wider cones. The IP owner, who knows the SE keys, \
             tests the chip normally",
        );
        Ok(ExperimentOutput::summary(format!(
            "6 attack cells; {broken} broke a defense"
        )))
    }

    /// The unarmed design's row, then the armed one's.
    fn cells(&self, cfg: &RunConfig) -> Vec<CellSpec> {
        [false, true]
            .into_iter()
            .flat_map(|armed| {
                ATTACKS.map(|attack| {
                    CellSpec::ScanDefense(AttackCell {
                        attack,
                        design: armed,
                        timeout_s: cfg.timeout.as_secs(),
                    })
                })
            })
            .collect()
    }
}
