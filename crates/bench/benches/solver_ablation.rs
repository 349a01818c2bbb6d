//! Criterion bench behind the Section IV solver claim: the CaDiCaL-class
//! configuration (VMTF order + phase saving + minimization + restarts) vs a
//! weakened DPLL-era configuration — the paper reports ~1.8× between
//! solver generations. Measured on search-bound instances where heuristics
//! matter: random 3-SAT at and above the satisfiability phase transition
//! (trivially-propagating miters cannot separate the configs; pigeonhole
//! formulas mislead — static-order DPLL refutes them by accident of
//! symmetry).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_sat::{Cnf, Lit, Solver, SolverConfig};
use std::hint::black_box;

/// Random 3-SAT at clause/variable ratio `ratio`.
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

fn bench_solver_ablation(c: &mut Criterion) {
    // At the transition (likely SAT) and safely above it (likely UNSAT);
    // the reference outcome is computed once with the full configuration.
    let at_transition = random_3sat(120, 4.26, 42);
    let above_transition = random_3sat(100, 5.0, 7);
    let expected = |cnf: &Cnf| Solver::from_cnf(cnf).solve();
    let exp_at = expected(&at_transition);
    let exp_above = expected(&above_transition);
    let mut group = c.benchmark_group("solver_ablation");
    group.sample_size(10);
    let configs: [(&str, SolverConfig); 4] = [
        ("full_cadical_class", SolverConfig::default()),
        ("weakened_dpll_class", SolverConfig::weakened()),
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
    ];
    for (instance_name, cnf, expect) in [
        ("rand3sat_n120_r4.26", &at_transition, exp_at),
        ("rand3sat_n100_r5.0", &above_transition, exp_above),
    ] {
        for (name, config) in &configs {
            group.bench_with_input(BenchmarkId::new(name, instance_name), cnf, |b, cnf| {
                b.iter(|| {
                    let mut solver = Solver::from_cnf_with_config(cnf, config.clone());
                    let outcome = solver.solve();
                    assert_eq!(outcome, expect);
                    black_box(solver.stats())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solver_ablation);
criterion_main!(benches);
