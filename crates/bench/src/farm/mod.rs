//! The distributed experiment farm: a coordinator/worker subsystem that
//! spreads a sweep's cells across processes (and machines) over the
//! serve crate's framed wire protocol.
//!
//! The design composes three pieces that already exist (DESIGN.md §17):
//!
//! * **The content-addressed cell cache** is the shared artifact store.
//!   A cell's canonical cache-key string is its complete work
//!   description, so a lease is just `(lease id, key)`; the worker
//!   parses the key back into its [`crate::CellSpec`] and runs it, and
//!   the coordinator persists the result with the cache's atomic
//!   temp+rename. The lease table settles each cell once — first write
//!   wins, later completions are dropped as duplicates — which makes
//!   double completion idempotent. Any experiment's cells can be farmed.
//! * **The serve wire layer** carries the farm vocabulary
//!   ([`ril_serve::farm`]) on a disjoint opcode range, in the same
//!   binary frames as the oracle traffic.
//! * **The experiment framework** enumerates the cells — the same plan
//!   `run` reads ([`crate::Experiment::cells`]) — and, after the farm
//!   phase has filled the cache, the normal in-process run assembles
//!   the tables entirely from cache hits — so a farmed run and a
//!   single-process run produce the same artifacts by construction, and
//!   any cell the farm failed to settle simply gets computed locally.
//!
//! Each worker runs two threads: the main thread leases and computes one
//! cell at a time, and a courier thread delivers each result and
//! heartbeats the held leases, so the coordinator's cache write of one
//! cell overlaps the compute of the next ([`worker`]).
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

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::time::Duration;

    use ril_attacks::AttackKind;
    use ril_core::RilBlockSpec;

    use crate::cell::AttackCell;
    use crate::experiment::{cell_payload, parse_cell_payload, registry};
    use crate::{CellSpec, RunConfig, SatCellSpec, SEARCH};

    fn sat(bench: &str, blocks: usize, seed: u64) -> SatCellSpec {
        SatCellSpec {
            bench: bench.to_string(),
            spec: RilBlockSpec::size_2x2(),
            blocks,
            seed,
            timeout_s: 10,
            solver_threads: 1,
        }
    }

    #[test]
    fn cell_spec_round_trips_every_experiment_key() {
        let smoke = RunConfig {
            smoke: true,
            timeout: Duration::from_secs(3),
            ..RunConfig::default()
        };
        let full = RunConfig {
            table1_full: true,
            ..RunConfig::default()
        };
        let mut seen: Vec<(String, CellSpec)> = Vec::new();
        for cfg in [smoke, RunConfig::default(), full] {
            for exp in registry() {
                for spec in exp.cells(&cfg) {
                    let key = spec.key();
                    assert_eq!(
                        CellSpec::parse(key.canonical()).as_ref(),
                        Ok(&spec),
                        "{} does not round-trip",
                        key.canonical()
                    );
                    match seen.iter().find(|(k, _)| k == key.canonical()) {
                        Some((_, other)) => assert_eq!(other, &spec, "two specs share a key"),
                        None => seen.push((key.canonical().to_string(), spec)),
                    }
                }
            }
        }
        let kinds: HashSet<_> = seen
            .iter()
            .map(|(_, s)| std::mem::discriminant(s))
            .collect();
        assert_eq!(kinds.len(), 8, "every cell kind is planned");
    }

    #[test]
    fn cell_spec_rejects_foreign_keys() {
        let good = sat("c7552", 1, 1).key();
        let good = good.canonical();
        // The SAT format is fixed: it is also the benchmark's farm lease.
        assert_eq!(
            good,
            format!(
                "v1|exp=attack|kind=sat|bench=c7552|spec=2x2|blocks=1|seed=1\
                 |timeout_s=10|solver_threads=1|search={SEARCH}"
            )
        );
        assert!(CellSpec::parse(good).is_ok());
        // Wrong version tag.
        assert!(CellSpec::parse(&good.replacen("v1|", "v0|", 1)).is_err());
        // Unknown kind.
        let err = CellSpec::parse(&good.replace("kind=sat", "kind=bogus")).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        // Missing and trailing fields, and a truncated key.
        assert!(CellSpec::parse(&good.replace("|blocks=1", "")).is_err());
        assert!(CellSpec::parse(&format!("{good}|extra=1")).is_err());
        assert!(CellSpec::parse("v1|exp=attack|kind=sat|bench=c7552").is_err());
        // A cell cached by another search generation.
        let other = good.replace(
            &format!("search={SEARCH}"),
            &format!("search={}", SEARCH + 1),
        );
        let err = CellSpec::parse(&other).unwrap_err();
        assert!(err.contains("search="), "{err}");
        // Cells solve on one thread; a key asking for more is refused.
        let err =
            CellSpec::parse(&good.replace("solver_threads=1", "solver_threads=4")).unwrap_err();
        assert!(err.contains("solver_threads=4"), "{err}");
        // Keys that parse field by field but do not round-trip: `2X2`
        // reads as 2x2 but is written back as `2x2`, and a kind's fixed
        // fields are part of its format.
        let err = CellSpec::parse(&good.replace("spec=2x2", "spec=2X2")).unwrap_err();
        assert!(err.contains("round-trip"), "{err}");
        let scan = CellSpec::ScanDefense(AttackCell {
            attack: AttackKind::AppSat,
            design: true,
            timeout_s: 3,
        })
        .key();
        let err = CellSpec::parse(&scan.canonical().replace("seed=21", "seed=22")).unwrap_err();
        assert!(err.contains("round-trip"), "{err}");
    }

    #[test]
    fn executes_a_tiny_cell_to_the_same_payload_shape() {
        let key = sat("adder:4", 1, 3).key();
        let outcome = CellSpec::parse(key.canonical()).unwrap().run().unwrap();
        let parsed = parse_cell_payload(&cell_payload(&outcome)).unwrap();
        assert!(parsed.report.is_some(), "tiny cell should produce a report");
        parsed.cell.parse::<f64>().expect("numeric cell");
    }
}
