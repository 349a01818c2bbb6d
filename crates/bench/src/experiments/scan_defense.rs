//! Sections III-C / IV-C — the Scan-Enable defense in action: the same
//! locked design is attacked with and without the SE circuitry armed, by
//! the SAT attack, AppSAT, and the ScanSAT model. With SE armed, every
//! oracle access returns corrupted responses and all oracle-guided attacks
//! are defeated.

use ril_attacks::{run_attack, AttackConfig, AttackKind, AttackReport};
use ril_core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::generators;

use crate::cache::CacheKey;
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::experiments::cached_outcome;
use crate::{defense_held, lock_with_armed_se, print_table, CellOutcome, RunConfig};

/// The Scan-Enable defense demonstration.
pub struct ScanDefense;

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

fn attack_outcome(
    ctx: &RunContext,
    cfg: &RunConfig,
    attack: &'static str,
    design: &str,
    spec_token: &str,
    locked: &LockedCircuit,
) -> Result<CellOutcome, ExperimentError> {
    let key = CacheKey::new("attack")
        .field("kind", attack)
        .field("bench", "mult6x6")
        .field("spec", spec_token)
        .field("blocks", 3)
        .field("seed", 21)
        .field("timeout_s", cfg.timeout.as_secs());
    cached_outcome(ctx, &key, &format!("{design} / {attack}"), || {
        let kind =
            AttackKind::parse(attack).ok_or_else(|| format!("unknown attack kind {attack}"))?;
        let a_cfg = AttackConfig {
            timeout: Some(cfg.timeout),
            ..AttackConfig::default()
        };
        let report = run_attack(kind, locked, &a_cfg)?.report;
        Ok(CellOutcome {
            cell: report.table_cell(),
            report: Some(report),
        })
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
        let spec = RilBlockSpec::size_2x2();
        let plain = Obfuscator::new(spec).blocks(3).seed(21).obfuscate(&host)?;
        let armed = lock_with_armed_se(&host, spec, 3, 21)
            .ok_or("no seed in range yields an armed SE lock")?;

        let mut rows = Vec::new();
        let mut broken = 0usize;
        for (name, spec_token, locked) in [
            ("3 × 2x2 (no SE)", "2x2", &plain),
            ("3 × 2x2 + SE armed", "2x2+se", &armed),
        ] {
            let mut row = vec![name.to_string()];
            for attack in ["sat", "appsat", "scansat"] {
                let outcome = attack_outcome(ctx, cfg, attack, name, spec_token, locked)?;
                let report = outcome
                    .report
                    .ok_or_else(|| format!("{name}/{attack}: cell has no report"))?;
                if !defense_held(&report.result, report.functionally_correct) {
                    broken += 1;
                }
                row.push(render(&report));
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
}
