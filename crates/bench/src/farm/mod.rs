//! The distributed experiment farm: a coordinator/worker subsystem that
//! spreads a sweep's cells across processes (and machines) over the
//! serve crate's framed wire protocol.
//!
//! The design composes three pieces that already exist (DESIGN.md §17):
//!
//! * **The content-addressed cell cache** is the shared artifact store.
//!   A cell's canonical cache-key string is its complete work
//!   description, so a lease is just `(lease id, key)`; the worker
//!   re-derives the attack from the key ([`SatCellSpec`]) and the
//!   coordinator persists the result with the cache's atomic
//!   temp+rename — first write wins, which makes double completion
//!   idempotent by construction.
//! * **The serve wire layer** carries the farm vocabulary
//!   ([`ril_serve::farm`]) on a disjoint opcode range, in the same
//!   binary frames as the oracle traffic.
//! * **The experiment framework** enumerates the cells
//!   ([`crate::Experiment::farm_cells`]) and, after the farm phase has
//!   filled the cache, the normal in-process run assembles the tables
//!   entirely from cache hits — so a farmed run and a single-process
//!   run produce the same artifacts by construction, and any cell the
//!   farm failed to settle simply gets computed locally.
//!
//! Crash recovery: leases carry a deadline and workers heartbeat at a
//! third of it. A SIGKILL'd worker stops heartbeating, its leases
//! expire, and the [`lease::LeaseTable`] re-issues the cells to peers.
//! A completion that arrives *after* its lease expired still wins the
//! cell if no peer beat it to it (counted as `farm.cells.stolen`);
//! losing the race is counted as `farm.cells.duplicate` and the stale
//! payload is dropped.

pub mod coordinator;
pub mod driver;
pub mod lease;
pub mod worker;

pub use coordinator::{Coordinator, FarmConfig, FarmHandle};
pub use driver::{run_farm_phase, FarmPhase, FarmSpec};
pub use lease::{FarmCounts, LeaseTable, Settle};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

use std::time::Duration;

use ril_core::RilBlockSpec;
use ril_netlist::{generators, Netlist};

use crate::cache::CacheKey;
use crate::experiment::cell_payload;
use crate::experiments::sat_cell_key;

/// A SAT-attack cell reconstructed from its canonical cache-key string —
/// the farm's executable work unit.
///
/// [`crate::experiments::sat_cell_key`] defines the canonical form:
///
/// ```text
/// v1|exp=attack|kind=sat|bench=c7552|spec=8x8|blocks=2|seed=1002|timeout_s=60|solver_threads=1
/// ```
///
/// Parsing is the exact inverse, so `SatCellSpec::parse(k).key() == k`
/// for every key the experiments emit, and a worker process needs no
/// side channel beyond the lease itself to reproduce the cell — the
/// obfuscator is seed-deterministic, so every worker that executes the
/// same key produces the same verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatCellSpec {
    /// Host benchmark name (`c7552`, `b15`, `adder:8`, …).
    pub bench: String,
    /// The RIL block shape.
    pub spec: RilBlockSpec,
    /// Number of blocks inserted.
    pub blocks: usize,
    /// Obfuscator seed.
    pub seed: u64,
    /// Per-cell attack budget in whole seconds.
    pub timeout_s: u64,
    /// Always 1: the key format keeps the `solver_threads=1` segment so
    /// cached cells keep their addresses, and [`SatCellSpec::parse`]
    /// rejects any other value.
    pub solver_threads: usize,
}

impl SatCellSpec {
    /// Parses a canonical cache-key string back into an executable cell.
    ///
    /// # Errors
    ///
    /// Returns a message for any key this farm version cannot execute:
    /// wrong cache version, non-`sat` cell kind, missing or malformed
    /// fields. The worker reports such cells as failed rather than
    /// guessing.
    pub fn parse(canonical: &str) -> Result<SatCellSpec, String> {
        let key = CacheKey::parse(canonical)?;
        let exp = key.experiment();
        let mut parts = key.fields();
        let mut field = |name: &str| -> Result<String, String> {
            match parts.next() {
                Some((k, v)) if k == name => Ok(v),
                other => Err(format!("expected field {name:?}, got {other:?}")),
            }
        };
        let kind = field("kind")?;
        if exp != "attack" || kind != "sat" {
            return Err(format!("unsupported cell kind {exp}/{kind}"));
        }
        let bench = field("bench")?;
        let spec_token = field("spec")?;
        let (token, scan) = match spec_token.strip_suffix("+se") {
            Some(t) => (t, true),
            None => (spec_token.as_str(), false),
        };
        let spec = RilBlockSpec::parse(token)
            .ok_or_else(|| format!("bad spec token {spec_token:?}"))?
            .with_scan(scan);
        let parsed = SatCellSpec {
            bench,
            spec,
            blocks: field("blocks")?
                .parse()
                .map_err(|_| "bad blocks".to_string())?,
            seed: field("seed")?.parse().map_err(|_| "bad seed".to_string())?,
            timeout_s: field("timeout_s")?
                .parse()
                .map_err(|_| "bad timeout_s".to_string())?,
            solver_threads: field("solver_threads")?
                .parse()
                .map_err(|_| "bad solver_threads".to_string())?,
        };
        if parsed.solver_threads != 1 {
            return Err(format!(
                "solver_threads={} (cells solve on one thread; only 1 is accepted)",
                parsed.solver_threads
            ));
        }
        if parts.next().is_some() {
            return Err("trailing fields after solver_threads".to_string());
        }
        // Round-trip guard: a key we cannot reproduce bit-identically
        // would cache the result under a different address.
        let rebuilt = parsed.key();
        if rebuilt.canonical() != canonical {
            return Err(format!(
                "key does not round-trip: {canonical:?} != {:?}",
                rebuilt.canonical()
            ));
        }
        Ok(parsed)
    }

    /// The cell's canonical cache key (the inverse of [`SatCellSpec::parse`]).
    #[must_use]
    pub fn key(&self) -> CacheKey {
        sat_cell_key(
            &self.bench,
            self.spec,
            self.blocks,
            self.seed,
            Duration::from_secs(self.timeout_s),
        )
    }

    /// Builds the host netlist, mirroring
    /// [`ril_serve::DesignSpec::host`]'s naming (`adder:N`,
    /// `multiplier:N`, benchmark names).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown benchmark names.
    pub fn host(&self) -> Result<Netlist, String> {
        if let Some(n) = self.bench.strip_prefix("adder:") {
            let bits: usize = n.parse().map_err(|_| format!("bad adder width `{n}`"))?;
            return Ok(generators::adder(bits));
        }
        if let Some(n) = self.bench.strip_prefix("multiplier:") {
            let bits: usize = n
                .parse()
                .map_err(|_| format!("bad multiplier width `{n}`"))?;
            return Ok(generators::multiplier(bits));
        }
        generators::benchmark(&self.bench)
            .ok_or_else(|| format!("unknown benchmark `{}`", self.bench))
    }

    /// Executes the cell — lock, attack, render — and returns the cache
    /// payload, exactly what an in-process [`crate::RunContext::cached_cell`]
    /// would have persisted.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown benchmarks; attack-level failures
    /// stay inside the payload (`n/a`, `err:…` cells), as everywhere
    /// else.
    pub fn execute(&self) -> Result<String, String> {
        let host = self.host()?;
        let outcome = crate::attack_cell_report_with(
            &host,
            self.spec,
            self.blocks,
            self.seed,
            Duration::from_secs(self.timeout_s),
        );
        Ok(cell_payload(&outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_spec_round_trips_every_experiment_key() {
        for (bench, spec, blocks, seed) in [
            ("c7552", RilBlockSpec::size_2x2(), 1, 1001),
            ("b15", RilBlockSpec::size_8x8(), 3, 10),
            ("adder:8", RilBlockSpec::size_8x8x8(), 2, 9),
            ("sha256", RilBlockSpec::size_2x2().with_scan(true), 1, 100),
        ] {
            let key = sat_cell_key(bench, spec, blocks, seed, Duration::from_secs(60));
            let parsed = SatCellSpec::parse(key.canonical()).unwrap();
            assert_eq!(parsed.key().canonical(), key.canonical());
            assert_eq!(parsed.bench, bench);
            assert_eq!(parsed.blocks, blocks);
            assert_eq!(parsed.seed, seed);
            assert_eq!(parsed.solver_threads, 1);
        }
    }

    #[test]
    fn cell_spec_rejects_foreign_keys() {
        // Wrong version tag.
        assert!(SatCellSpec::parse("v0|exp=attack|kind=sat").is_err());
        // Non-SAT cell kinds are not farm-executable.
        let appsat = "v1|exp=attack|kind=appsat_se|bench=b15|spec=8x8x8+se|blocks=1|seed=100|timeout_s=3|solver_threads=1";
        assert!(SatCellSpec::parse(appsat).is_err());
        // Truncated and trailing-garbage keys.
        assert!(SatCellSpec::parse("v1|exp=attack|kind=sat|bench=c7552").is_err());
        let good = sat_cell_key(
            "c7552",
            RilBlockSpec::size_2x2(),
            1,
            1,
            Duration::from_secs(1),
        );
        assert!(SatCellSpec::parse(&format!("{}|extra=1", good.canonical())).is_err());
        // Cells solve on one thread; a key asking for more is refused.
        let threaded = good
            .canonical()
            .replace("solver_threads=1", "solver_threads=4");
        let err = SatCellSpec::parse(&threaded).unwrap_err();
        assert!(err.contains("solver_threads=4"), "{err}");
    }

    #[test]
    fn executes_a_tiny_cell_to_the_same_payload_shape() {
        let key = sat_cell_key(
            "adder:4",
            RilBlockSpec::size_2x2(),
            1,
            3,
            Duration::from_secs(10),
        );
        let spec = SatCellSpec::parse(key.canonical()).unwrap();
        let payload = spec.execute().unwrap();
        let outcome = crate::experiment::parse_cell_payload(&payload).unwrap();
        assert!(
            outcome.report.is_some(),
            "tiny cell should produce a report"
        );
        outcome.cell.parse::<f64>().expect("numeric cell");
    }
}
