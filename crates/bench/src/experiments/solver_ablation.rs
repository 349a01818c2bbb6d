//! Solver ablation: the full CDCL configuration against three weakened
//! ones — the repo's stand-in for the paper's setup note that CaDiCaL
//! runs ≈ 1.8× faster than lingeling (Section IV).
//!
//! The instances are search-bound, so the heuristics matter: random 3-SAT
//! at the satisfiability phase transition (n = 120, r = 4.26) and above
//! it (n = 100, r = 5.0). Trivially propagating miters cannot separate
//! the configurations, and pigeonhole formulas mislead: static-order DPLL
//! refutes them by an accident of symmetry. One instance says little
//! about a heuristic, so each family runs over 16 instance seeds (4 under
//! `--smoke`) and reports its SAT/UNSAT split and the median conflict and
//! time ratios against the full configuration.
//!
//! Two assertions gate the run: every configuration returns the full
//! configuration's outcome (and every SAT model satisfies its formula),
//! and the full configuration needs strictly fewer conflicts than the
//! weakened one on every instance. Conflict counts are deterministic;
//! times are reported, never asserted. Cells are timed live and never
//! cached.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_sat::{Cnf, Lit, Outcome, Solver, SolverConfig};
use std::time::Instant;

use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, RunConfig};

/// Full vs weakened CDCL configurations on random 3-SAT.
pub struct SolverAblation;

/// The instance families: (variables, clause/variable ratio).
const FAMILIES: [(usize, f64); 2] = [(120, 4.26), (100, 5.0)];

/// Instance seeds per family.
const SEEDS: u64 = 16;

/// Instance seeds per family under `--smoke`.
const SMOKE_SEEDS: u64 = 4;

/// The first instance seed; a family's instances are seeds
/// `FIRST_SEED..FIRST_SEED + SEEDS`.
const FIRST_SEED: u64 = 1000;

/// The configurations, full first: every ratio is taken against it.
fn configs() -> [(&'static str, SolverConfig); 4] {
    [
        ("full", SolverConfig::default()),
        ("weakened", SolverConfig::weakened()),
        (
            "no_restarts",
            SolverConfig {
                restarts: false,
                ..SolverConfig::default()
            },
        ),
        (
            "no_minimization",
            SolverConfig {
                clause_minimization: false,
                ..SolverConfig::default()
            },
        ),
    ]
}

/// Index of [`SolverConfig::weakened`] in [`configs`].
const WEAKENED: usize = 1;

/// Random 3-SAT over `n` variables with `⌊n · ratio⌋` clauses of three
/// distinct variables each.
fn random_3sat(n: usize, ratio: f64, seed: u64) -> Cnf {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = (n as f64 * ratio) as usize;
    let mut cnf = Cnf::new();
    cnf.new_vars(n);
    for _ in 0..m {
        let mut lits: Vec<Lit> = Vec::with_capacity(3);
        while lits.len() < 3 {
            let l = Lit::new(rng.gen_range(0..n), rng.gen());
            if !lits.iter().any(|&x| x.var() == l.var()) {
                lits.push(l);
            }
        }
        cnf.add_clause(lits);
    }
    cnf
}

/// One configuration's solve of one instance.
struct Run {
    outcome: Outcome,
    conflicts: u64,
    seconds: f64,
}

/// Solves `cnf` under every configuration of [`configs`], in order.
///
/// # Errors
///
/// Fails if a configuration's outcome differs from the full
/// configuration's, or a SAT model does not satisfy `cnf`.
fn solve_all(cnf: &Cnf) -> Result<Vec<Run>, String> {
    let mut runs: Vec<Run> = Vec::new();
    for (name, config) in configs() {
        let mut solver = Solver::from_cnf_with_config(cnf, config);
        let started = Instant::now();
        let outcome = solver.solve();
        let seconds = started.elapsed().as_secs_f64();
        if outcome == Outcome::Sat && !cnf.is_satisfied_by(solver.model()) {
            return Err(format!("{name}: model does not satisfy the formula"));
        }
        if let Some(full) = runs.first() {
            if outcome != full.outcome {
                return Err(format!(
                    "{name} returned {outcome:?}, full returned {:?}",
                    full.outcome
                ));
            }
        }
        runs.push(Run {
            outcome,
            conflicts: solver.stats().conflicts,
            seconds,
        });
    }
    Ok(runs)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

impl Experiment for SolverAblation {
    fn name(&self) -> &'static str {
        "solver_ablation"
    }

    fn describe(&self) -> &'static str {
        "full vs weakened CDCL configurations on random 3-SAT (solver-generation gap)"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let seeds = if cfg.smoke { SMOKE_SEEDS } else { SEEDS };
        let names = configs().map(|(name, _)| name);
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut families_json: Vec<String> = Vec::new();
        let mut splits: Vec<String> = Vec::new();
        for (n, ratio) in FAMILIES {
            let family = format!("n={n} r={ratio:.2}");
            ctx.note(&format!(
                "solver_ablation — random 3-SAT {family}, seeds {FIRST_SEED}..{}",
                FIRST_SEED + seeds
            ));
            // runs[instance][config]
            let runs = (FIRST_SEED..FIRST_SEED + seeds)
                .map(|seed| {
                    solve_all(&random_3sat(n, ratio, seed))
                        .map_err(|e| format!("{family} seed {seed}: {e}"))
                })
                .collect::<Result<Vec<Vec<Run>>, String>>()?;
            let sat = runs.iter().filter(|r| r[0].outcome == Outcome::Sat).count();
            let split = format!("{sat}/{}", runs.len() - sat);
            let mut configs_json: Vec<String> = Vec::new();
            for (c, name) in names.iter().enumerate() {
                let med = |f: &dyn Fn(&[Run]) -> f64| median(runs.iter().map(|r| f(r)).collect());
                let conflicts = med(&|r| r[c].conflicts as f64);
                let conflict_ratio = med(&|r| r[c].conflicts as f64 / r[0].conflicts.max(1) as f64);
                let ms = med(&|r| r[c].seconds * 1e3);
                let time_ratio = med(&|r| r[c].seconds / r[0].seconds.max(1e-9));
                rows.push(vec![
                    family.clone(),
                    split.clone(),
                    (*name).to_string(),
                    format!("{conflicts:.0}"),
                    format!("{conflict_ratio:.2}"),
                    format!("{ms:.2}"),
                    format!("{time_ratio:.2}"),
                ]);
                let per_instance: Vec<String> =
                    runs.iter().map(|r| r[c].conflicts.to_string()).collect();
                configs_json.push(format!(
                    r#"{{"config":"{name}","median_conflicts":{conflicts},"median_conflict_ratio":{conflict_ratio:.4},"median_ms":{ms:.4},"median_time_ratio":{time_ratio:.4},"conflicts":[{}]}}"#,
                    per_instance.join(",")
                ));
            }
            families_json.push(format!(
                r#"{{"n":{n},"ratio":{ratio},"first_seed":{FIRST_SEED},"seeds":{seeds},"sat":{sat},"unsat":{},"configs":[{}]}}"#,
                runs.len() - sat,
                configs_json.join(",")
            ));
            // Conflict counts are deterministic, so this holds on any
            // machine; the times above are only reported.
            if let Some(i) = runs
                .iter()
                .position(|r| r[0].conflicts >= r[WEAKENED].conflicts)
            {
                return Err(format!(
                    "{family} seed {}: full used no fewer conflicts than weakened",
                    FIRST_SEED + i as u64
                )
                .into());
            }
            splits.push(format!("{family}: {split} SAT/UNSAT"));
        }
        print_table(
            "Solver ablation (random 3-SAT; ratios are per-instance medians against full)",
            &[
                "Family",
                "SAT/UNSAT",
                "Config",
                "Conflicts",
                "× full conflicts",
                "Solve (ms)",
                "× full time",
            ],
            &rows,
        );
        let artifact = ctx.write_output(
            "BENCH_solver_ablation.json",
            &format!(r#"{{"families":[{}]}}"#, families_json.join(",")),
        )?;
        Ok(ExperimentOutput {
            summary: format!(
                "{}; every configuration agrees with full, and full uses fewer \
                 conflicts than weakened on every instance",
                splits.join("; ")
            ),
            files: vec![artifact],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_agrees_with_full_on_both_families() {
        // `solve_all` checks each outcome against full's and each SAT
        // model against the formula.
        for (n, ratio) in FAMILIES {
            for seed in FIRST_SEED..FIRST_SEED + 2 {
                let runs = solve_all(&random_3sat(n, ratio, seed))
                    .unwrap_or_else(|e| panic!("n={n} r={ratio} seed {seed}: {e}"));
                assert_eq!(runs.len(), configs().len());
            }
        }
    }
}
