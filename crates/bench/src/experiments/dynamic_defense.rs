//! The quantitative version of Table V's "dynamic morphing" row: the
//! same SAT attack, the same c7552 host, but the oracle is a chip hosted
//! by a live `ril-serve` instance whose morph scheduler re-keys it every
//! K queries. As the morph period shrinks, iterations-to-key must grow —
//! and past a point the attack stops converging at all, because each
//! morph re-rolls the Scan-Enable keys and the accumulated DIP responses
//! stop describing the chip being queried.
//!
//! Every cell is fully deterministic: the obfuscator, the server's morph
//! RNG, and the solver are all seeded, so the sweep reproduces bit-for-bit
//! and the monotonicity check below is a hard assertion, not a tendency.

use std::time::Duration;

use ril_attacks::json::escape;
use ril_attacks::satattack::{sat_attack, SatAttackConfig};
use ril_attacks::{attacker_view, check_key, AttackReport};
use ril_serve::{DesignSpec, RemoteOracle, ServeClient, ServeConfig, Server};

use crate::cell::MorphCell;
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, CellOutcome, CellSpec, RunConfig};

/// Morph-period sweep over a served, scheduler-driven chip.
pub struct DynamicDefense;

/// Morph periods, slowest first (`None` = scheduler off). The validation
/// below walks this order, so it must stay sorted by shrinking period.
const PERIODS: &[Option<u64>] = &[None, Some(4), Some(2), Some(1)];

fn design() -> DesignSpec {
    DesignSpec {
        benchmark: "c7552".to_string(),
        spec: "2x2".to_string(),
        blocks: 2,
        seed: 1001,
        scan: true,
        // Provisioned transparent: every MTJ_SE bit starts 0, so the
        // static baseline is breakable and only the *morphs* arm the
        // scan corruption — isolating the dynamic defense's effect.
        zero_se: true,
    }
}

/// The table's name for a morph period.
pub(crate) fn period_label(period: Option<u64>) -> String {
    match period {
        None => "off".to_string(),
        Some(k) => format!("K={k}"),
    }
}

/// Iterations-to-key: the DIP count for a *truly correct* recovered key,
/// `None` (the tables' `∞`) for timeouts, failures, and keys that only
/// match the corrupted responses.
fn iterations_to_key(report: &AttackReport) -> Option<usize> {
    (report.result.succeeded() && report.functionally_correct == Some(true))
        .then_some(report.iterations)
}

/// One cell: the SAT attack, over loopback, on the cell's design served
/// by a `ril-serve` instance that morphs the chip on the cell's period.
/// The server joins the calling thread's trace, if it has one.
pub(crate) fn morph_cell(c: &MorphCell) -> Result<CellOutcome, ExperimentError> {
    let serve_cfg = ServeConfig {
        morph_queries: c.morph_queries,
        ..ServeConfig::default()
    };
    let handle = match ril_trace::current() {
        Some((tracer, parent)) => Server::start_traced(serve_cfg, &tracer, parent),
        None => Server::start(serve_cfg),
    }
    .map_err(|e| format!("serve bind failed: {e}"))?;
    let locked = c.design.build().map_err(ExperimentError::Other)?;
    let view = attacker_view(&locked);
    let client = ServeClient::builder(handle.addr().to_string())
        .build()
        .map_err(|e| format!("client configuration: {e}"))?;
    let mut oracle = RemoteOracle::activate_with(client, &c.design)
        .map_err(|e| format!("activation failed: {e}"))?;
    let a_cfg = SatAttackConfig {
        timeout: Some(Duration::from_secs(c.timeout_s)),
        // Sequential DIPs: batching would let up to 64 DIPs share one
        // pre-morph generation, shifting the sweep's iteration counts —
        // and the monotonicity assertion in `run` is calibrated to the
        // classic one-query-per-morph-period interaction.
        dip_batch: 1,
        ..SatAttackConfig::default()
    };
    let mut report = sat_attack(&view, &mut oracle, &a_cfg);
    check_key(&locked, &mut report).map_err(ExperimentError::Netlist)?;
    let rekeys = oracle.generation_changes();
    handle.shutdown();
    let cell = match iterations_to_key(&report) {
        Some(iters) => format!("{iters} iters ({} re-keys seen)", rekeys),
        None => format!("∞ defended ({} re-keys seen)", rekeys),
    };
    Ok(CellOutcome {
        cell,
        report: Some(report),
    })
}

impl Experiment for DynamicDefense {
    fn name(&self) -> &'static str {
        "dynamic_defense"
    }

    fn describe(&self) -> &'static str {
        "Table V dynamic row — morph period vs SAT-attack progress over ril-serve"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let design = design();
        ctx.note(&format!(
            "dynamic defense sweep — {} × {} blocks on {}, served over TCP, \
             morph periods {:?}, timeout {:?}",
            design.blocks,
            design.spec,
            design.benchmark,
            PERIODS.iter().map(|p| period_label(*p)).collect::<Vec<_>>(),
            cfg.timeout,
        ));

        let outcomes = ctx.outcomes(&self.cells(cfg), 1);
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        let mut iters: Vec<Option<usize>> = Vec::new();
        for (&period, outcome) in PERIODS.iter().zip(&outcomes) {
            let report = outcome.report.as_ref().ok_or_else(|| {
                format!(
                    "morph {}: cell has no report ({})",
                    period_label(period),
                    outcome.cell
                )
            })?;
            let to_key = iterations_to_key(report);
            json_rows.push(format!(
                r#"{{"morph_queries":{},"iterations_to_key":{},"iterations":{},"queries":{},"result":"{}","wall_s":{:.3}}}"#,
                period.map_or(0, |k| k),
                to_key.map_or("null".to_string(), |n| n.to_string()),
                report.iterations,
                report.oracle_queries,
                report.result.kind(),
                report.wall.as_secs_f64(),
            ));
            iters.push(to_key);
            rows.push(vec![period_label(period), outcome.cell.clone()]);
        }

        // The acceptance check: as the morph period shrinks,
        // iterations-to-key strictly increases or the attack stops
        // converging (`∞`). A faster *or equal* break under a faster
        // morph schedule means the defense did nothing — fail the run.
        for (pair, window) in PERIODS.windows(2).zip(iters.windows(2)) {
            let (pa, pb) = (pair[0], pair[1]);
            let ok = match (window[0], window[1]) {
                (_, None) => true,
                (Some(a), Some(b)) => b > a,
                (None, Some(_)) => false,
            };
            if !ok {
                return Err(ExperimentError::Other(format!(
                    "defense regression: morph {} yields iterations-to-key {:?}, \
                     not above morph {}'s {:?}",
                    period_label(pb),
                    window[1],
                    period_label(pa),
                    window[0],
                )));
            }
        }

        print_table(
            "SAT attack vs a live morph scheduler (c7552, 2 × 2x2 + SE)",
            &["Morph period (queries)", "Iterations to key"],
            &rows,
        );
        let artifact = ctx.write_output(
            "DYNAMIC_DEFENSE.json",
            &format!(
                r#"{{"design":{{"benchmark":"{}","spec":"{}","blocks":{},"seed":{},"scan":{},"zero_se":{}}},"rows":[{}]}}"#,
                escape(&design.benchmark),
                escape(&design.spec),
                design.blocks,
                design.seed,
                design.scan,
                design.zero_se,
                json_rows.join(",")
            ),
        )?;
        let defended = iters.iter().filter(|i| i.is_none()).count();
        Ok(ExperimentOutput {
            summary: format!(
                "{} morph periods; baseline {} iterations; {} defended",
                PERIODS.len(),
                iters[0].map_or("∞".to_string(), |n| n.to_string()),
                defended,
            ),
            files: vec![artifact],
        })
    }

    /// One cell per morph period, slowest first.
    fn cells(&self, cfg: &RunConfig) -> Vec<CellSpec> {
        PERIODS
            .iter()
            .map(|&morph_queries| {
                CellSpec::Morph(MorphCell {
                    design: design(),
                    morph_queries,
                    timeout_s: cfg.timeout.as_secs(),
                })
            })
            .collect()
    }
}
