//! Section IV-B ablation — "the LUT used in RIL-block can be increased to
//! increase the SAT-hardness of the resulting RIL-Block": SAT-attack cost
//! versus LUT input count for plain LUT locking (the custom-LUT scheme of
//! refs \[8\]/\[12\]), and versus RIL-Block width for the full primitive.

use ril_attacks::{run_attack, AttackConfig, AttackKind};
use ril_core::baselines::lutm_lock;
use ril_core::{Obfuscator, RilBlockSpec};
use ril_netlist::generators;

use crate::cache::CacheKey;
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::experiments::cached_outcome;
use crate::{print_table, CellOutcome, RunConfig};

/// The LUT-size / block-width scaling ablation.
pub struct LutScaling;

// A scaling cell needs three table columns (key bits / SAT time / DIP
// iterations), so the cached cell string carries them tab-separated.
fn render_cols(cell: &str) -> Vec<String> {
    let mut cols: Vec<String> = cell.split('\t').map(str::to_string).collect();
    cols.resize(3, String::new());
    cols
}

impl Experiment for LutScaling {
    fn name(&self) -> &'static str {
        "lut_scaling"
    }

    fn describe(&self) -> &'static str {
        "§IV-B — SAT cost vs LUT input count and vs RIL-Block width"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let host = generators::benchmark("c7552").ok_or("unknown benchmark c7552")?;
        ctx.note(&format!(
            "LUT-size / block-width scaling — host `{}`, timeout {:?}",
            host.name(),
            cfg.timeout
        ));
        let attack_cfg = AttackConfig {
            timeout: Some(cfg.timeout),
            ..AttackConfig::default()
        };

        // Plain LUT locking, growing the LUT input count.
        let lut_sizes: std::ops::RangeInclusive<usize> = if cfg.smoke { 2..=3 } else { 2..=6 };
        let mut rows = Vec::new();
        for m in lut_sizes.clone() {
            let key = CacheKey::new("attack")
                .field("kind", "sat_lutm")
                .field("bench", "c7552")
                .field("luts", 4)
                .field("m", m)
                .field("seed", 77)
                .field("timeout_s", cfg.timeout.as_secs());
            let outcome = cached_outcome(ctx, &key, &format!("4 × LUT-{m}"), || {
                let locked = lutm_lock(&host, 4, m, 77)?;
                let report = run_attack(AttackKind::Sat, &locked, &attack_cfg)?.report;
                Ok(CellOutcome {
                    cell: format!(
                        "{}\t{}\t{}",
                        locked.key_width(),
                        report.table_cell(),
                        report.iterations
                    ),
                    report: Some(report),
                })
            })?;
            let mut row = vec![format!("4 × LUT-{m}")];
            row.extend(render_cols(&outcome.cell));
            rows.push(row);
            ctx.note(&format!("LUT-{m} done"));
        }
        print_table(
            "Plain LUT locking: SAT seconds vs LUT size",
            &["Config", "Key bits", "SAT time", "DIP iterations"],
            &rows,
        );

        // RIL-Block width scaling at a fixed absorbed-gate budget.
        let spec_names: &[&str] = if cfg.smoke {
            &["2x2", "4x4"]
        } else {
            &["2x2", "4x4", "8x8", "4x4x4", "8x8x8"]
        };
        let mut rows = Vec::new();
        for &spec_str in spec_names {
            let spec =
                RilBlockSpec::parse(spec_str).ok_or_else(|| format!("invalid spec {spec_str}"))?;
            // Keep the absorbed-gate count comparable (~4 gates).
            let blocks = (4 / spec.luts()).max(1);
            let key = CacheKey::new("attack")
                .field("kind", "sat_ril_width")
                .field("bench", "c7552")
                .field("spec", spec.cache_token())
                .field("blocks", blocks)
                .field("seed", 55)
                .field("timeout_s", cfg.timeout.as_secs());
            let outcome = cached_outcome(ctx, &key, spec_str, || {
                match Obfuscator::new(spec)
                    .blocks(blocks)
                    .seed(55)
                    .obfuscate(&host)
                {
                    Err(e) => Ok(CellOutcome::bare(format!("error: {e}"))),
                    Ok(locked) => {
                        let report = run_attack(AttackKind::Sat, &locked, &attack_cfg)?.report;
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
                }
            })?;
            let mut row = vec![format!("{blocks} × {spec}")];
            row.extend(render_cols(&outcome.cell));
            rows.push(row);
            ctx.note(&format!("{spec_str} done"));
        }
        print_table(
            "RIL-Blocks: SAT seconds vs block width (≈4 gates absorbed)",
            &["Config", "Key bits", "SAT time", "DIP iterations"],
            &rows,
        );
        ctx.note(
            "expected shape: both scalings grow the key search space per absorbed \
             gate; the routing+LUT composition (RIL) grows hardness faster than key \
             count alone (paper Section III-A)",
        );
        Ok(ExperimentOutput::summary(format!(
            "{} LUT sizes + {} block widths attacked",
            lut_sizes.count(),
            spec_names.len()
        )))
    }
}
