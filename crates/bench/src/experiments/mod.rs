//! The experiments: one module per table/figure, each implementing
//! [`crate::Experiment`]. These are the former `src/bin/*` drivers,
//! reworked to take the typed [`crate::RunConfig`], propagate errors
//! instead of `unwrap`ping, and run their sweep cells through the
//! content-addressed cache in [`crate::RunContext`].

pub mod corruptibility;
pub mod dynamic_defense;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod incremental_verify;
pub mod key_redundancy;
pub mod lut_scaling;
pub mod oracle_throughput;
pub mod overhead;
pub mod scan_defense;
pub mod serve_load;
pub mod solver_ablation;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;

use std::time::Duration;

use ril_core::RilBlockSpec;
use ril_netlist::Netlist;

use crate::cache::CacheKey;
use crate::experiment::{cell_payload, parse_cell_payload, ExperimentError, RunContext};
use crate::{CellOutcome, RunConfig};

/// Runs one attack cell through the cache: on a hit the stored
/// [`CellOutcome`] (cell string + full report) comes back without
/// touching a solver; on a miss `compute` runs and the outcome is
/// persisted before this returns.
///
/// # Errors
///
/// Propagates `compute`'s error or a corrupt cached payload.
pub fn cached_outcome<F>(
    ctx: &RunContext,
    key: &CacheKey,
    label: &str,
    compute: F,
) -> Result<CellOutcome, ExperimentError>
where
    F: FnOnce() -> Result<CellOutcome, ExperimentError>,
{
    let payload = ctx.cached_cell(key, label, || compute().map(|o| cell_payload(&o)))?;
    parse_cell_payload(&payload).map_err(ExperimentError::Other)
}

/// The cache key for a plain SAT-attack cell. Deliberately **not**
/// scoped to one experiment: the identity of a cell is its full attack
/// configuration, so Table V's "RIL (static)" cell and a Table I cell
/// with the same (bench, spec, blocks, seed, timeout) are the same cell.
/// The trailing `solver_threads=1` segment is a fixed part of the format:
/// it keeps the addresses of cells cached before the solver went
/// single-engine.
#[must_use]
pub fn sat_cell_key(
    bench: &str,
    spec: RilBlockSpec,
    blocks: usize,
    seed: u64,
    timeout: Duration,
) -> CacheKey {
    CacheKey::new("attack")
        .field("kind", "sat")
        .field("bench", bench)
        .field("spec", spec.cache_token())
        .field("blocks", blocks)
        .field("seed", seed)
        .field("timeout_s", timeout.as_secs())
        .field("solver_threads", 1)
}

/// A cached lock-then-SAT-attack cell (the Table I / Table III work
/// unit).
///
/// # Errors
///
/// Propagates cache failures; attack-level failures stay inside the
/// outcome (`n/a`, `err:…` cells), exactly as the old binaries rendered
/// them.
pub fn cached_sat_cell(
    ctx: &RunContext,
    host: &Netlist,
    bench: &str,
    spec: RilBlockSpec,
    blocks: usize,
    seed: u64,
    cfg: &RunConfig,
) -> Result<CellOutcome, ExperimentError> {
    let key = sat_cell_key(bench, spec, blocks, seed, cfg.timeout);
    let label = format!("{bench} {blocks}×{}", spec.cache_token());
    cached_outcome(ctx, &key, &label, || {
        Ok(crate::attack_cell_report_with(
            host,
            spec,
            blocks,
            seed,
            cfg.timeout,
        ))
    })
}
