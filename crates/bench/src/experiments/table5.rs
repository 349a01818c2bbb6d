//! Table V — attack-resiliency matrix: every attack of the suite against
//! every locking scheme, measured by actually running the attacks. ✓ means
//! the defense held (timeout / failure / functionally-wrong key), ✗ means
//! the attack recovered a working key or a near-equivalent circuit.

use ril_attacks::{run_attack, AttackConfig, AttackKind};
use ril_core::baselines::{antisat_lock, sfll_lock, xor_lock};
use ril_core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::generators;
use ril_sca::{key_recovery_rate, LutTechnology};

use crate::cache::CacheKey;
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::experiments::cached_outcome;
use crate::{defense_held, lock_with_armed_se, print_table, CellOutcome, RunConfig};

/// The Table V resiliency matrix.
pub struct Table5;

fn mark(held: bool) -> String {
    if held {
        "✓".into()
    } else {
        "✗".into()
    }
}

/// One attack cell of the matrix, cached under (attack kind, scheme
/// token, timeout). The cell string is the rendered ✓/✗ mark.
fn matrix_cell(
    ctx: &RunContext,
    cfg: &RunConfig,
    attack: &'static str,
    token: &str,
    locked: &LockedCircuit,
) -> Result<String, ExperimentError> {
    let key = CacheKey::new("attack")
        .field("kind", attack)
        .field("scheme", token)
        .field("timeout_s", cfg.timeout.as_secs());
    let outcome = cached_outcome(ctx, &key, &format!("{token} / {attack}"), || {
        let kind =
            AttackKind::parse(attack).ok_or_else(|| format!("unknown attack kind {attack}"))?;
        let a_cfg = AttackConfig {
            timeout: Some(cfg.timeout),
            // AppSAT's relaxed acceptance for the matrix (ignored by the
            // other attacks).
            error_threshold: 0.02,
            ..AttackConfig::default()
        };
        let out = run_attack(kind, locked, &a_cfg)?;
        match out.removal {
            // Removal keeps Table V's sampled-error criterion: the defense
            // held only when the salvage is measurably wrong.
            Some(r) => Ok(CellOutcome::bare(mark(!r.succeeded(0.01)))),
            None => {
                let held = defense_held(&out.report.result, out.report.functionally_correct);
                Ok(CellOutcome {
                    cell: mark(held),
                    report: Some(out.report),
                })
            }
        }
    })?;
    Ok(outcome.cell)
}

impl Experiment for Table5 {
    fn name(&self) -> &'static str {
        "table5"
    }

    fn describe(&self) -> &'static str {
        "Table V — attack-resiliency matrix, attacks actually executed"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        ctx.note(&format!(
            "Table V reproduction — attacks actually executed, timeout {:?} per cell",
            cfg.timeout
        ));
        let host = generators::adder(12);

        // Scheme tokens are the cache identity of each locked design:
        // scheme, host, parameters, seed.
        let mut schemes: Vec<(&str, &str, LockedCircuit)> = vec![
            // Wide point-function keys ⇒ exponentially many DIPs (the SFLL /
            // Anti-SAT SAT-resistance the paper credits them with).
            ("SFLL", "sfll_adder12_n14_s1", sfll_lock(&host, 14, 1)?),
            (
                "Anti-SAT (CAS-class)",
                "antisat_adder12_n12_s2",
                antisat_lock(&host, 12, 2)?,
            ),
            (
                "XOR (EPIC)",
                "xor_adder8_k12_s3",
                xor_lock(&generators::adder(8), 12, 3)?,
            ),
        ];
        if !cfg.smoke {
            // The Table-I-hard configuration: ten 8x8x8 blocks on the
            // c7552-class host. Skipped under --smoke (the lock itself is
            // the expensive part, and the 3 s budget says nothing there).
            schemes.push((
                "RIL (static)",
                "ril_c7552_10x8x8x8_s4",
                Obfuscator::new(RilBlockSpec::size_8x8x8())
                    .blocks(10)
                    .seed(4)
                    .obfuscate(&generators::benchmark("c7552").ok_or("unknown benchmark c7552")?)?,
            ));
        }
        schemes.push((
            "RIL + SE",
            "ril_se_mult6_3x2x2_s40",
            lock_with_armed_se(&generators::multiplier(6), RilBlockSpec::size_2x2(), 3, 40)
                .ok_or("no seed in range yields an armed SE lock")?,
        ));

        let mut rows = Vec::new();
        for (name, token, locked) in &schemes {
            ctx.note(&format!("scheme {name}"));
            let sat = matrix_cell(ctx, cfg, "sat", token, locked)?;
            let app = matrix_cell(ctx, cfg, "appsat", token, locked)?;
            let rem = matrix_cell(ctx, cfg, "removal", token, locked)?;
            let scan = matrix_cell(ctx, cfg, "scansat", token, locked)?;
            // P-SCA: the LUT technology decides; RIL uses MRAM, baselines are
            // plain CMOS keys modeled as SRAM-class storage.
            let psca_rate = if name.starts_with("RIL") {
                key_recovery_rate(LutTechnology::Mram, 14, 400, 0.5, 9)
            } else {
                key_recovery_rate(LutTechnology::Sram, 14, 400, 0.5, 9)
            };
            rows.push(vec![
                name.to_string(),
                sat,
                app,
                rem,
                scan,
                mark(psca_rate < 0.3),
            ]);
        }
        print_table(
            "Table V — does the DEFENSE hold? (✓ = attack defeated)",
            &["Scheme", "SAT", "AppSAT", "Removal", "ScanSAT", "P-SCA"],
            &rows,
        );
        ctx.note(
            "paper's qualitative claim: only the proposed RIL-Blocks (with SE and MRAM) \
             resist the whole suite; point-function locks fall to removal/AppSAT-class \
             attacks and none of the baselines addresses P-SCA",
        );
        Ok(ExperimentOutput::summary(format!(
            "{} schemes × 5 attacks",
            schemes.len()
        )))
    }
}
