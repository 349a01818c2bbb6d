//! Root-level clause collection against a fresh solver: random CNFs are
//! split into groups, each guarded by its own activation literal
//! (`clause ∨ ¬g`), and random groups are retired between solves by a
//! unit `¬g`. The long-lived solver collects every retired group at its
//! next solve and demotes the variables only they named. Each of its
//! verdicts must match a fresh [`Solver`] loaded with just the still-live
//! clauses, and each model must satisfy every live clause.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_sat::{Lit, Outcome, Solver};

/// One guarded constraint group.
struct Group {
    guard: Lit,
    clauses: Vec<Vec<Lit>>,
    live: bool,
}

fn random_clauses(rng: &mut StdRng, vars: usize, count: usize) -> Vec<Vec<Lit>> {
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1..4usize);
            (0..len)
                .map(|_| Lit::new(rng.gen_range(0..vars), rng.gen()))
                .collect()
        })
        .collect()
}

fn satisfies(clause: &[Lit], model: &[bool]) -> bool {
    clause.iter().any(|l| model[l.var().index()] == l.target())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn retiring_guarded_groups_matches_a_fresh_solver(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vars = rng.gen_range(6..16usize);
        // Unguarded base clauses, kept throughout (sparse, so most rounds
        // stay satisfiable and the models get checked).
        let base_count = rng.gen_range(0..vars);
        let base = random_clauses(&mut rng, vars, base_count);
        let mut solver = Solver::new();
        solver.reserve_vars(vars);
        for c in &base {
            solver.add_clause(c.iter().copied());
        }
        let mut next_var = vars;
        let mut groups: Vec<Group> = Vec::new();
        for round in 0..12 {
            // Open up to two new groups, each over the shared variables
            // plus a few private ones only it names.
            for _ in 0..rng.gen_range(0..3usize) {
                let guard = Lit::new(next_var, false);
                let private = rng.gen_range(0..4usize);
                let span = next_var + 1 + private;
                let count = rng.gen_range(1..vars);
                let mut clauses = random_clauses(&mut rng, vars, count);
                for c in random_clauses(&mut rng, private.max(1), private * 2) {
                    clauses.push(
                        c.iter()
                            .map(|l| Lit::new(next_var + 1 + l.var().index(), !l.target()))
                            .chain([Lit::new(rng.gen_range(0..vars), rng.gen())])
                            .collect(),
                    );
                }
                next_var = span;
                solver.reserve_vars(next_var);
                for c in &clauses {
                    solver.add_clause(c.iter().copied().chain([!guard]));
                }
                groups.push(Group { guard, clauses, live: true });
            }
            // Retire a random subset of the live groups.
            for g in groups.iter_mut().filter(|g| g.live) {
                if rng.gen_range(0..3u32) == 0 {
                    g.live = false;
                    solver.add_clause([!g.guard]);
                }
            }
            let live: Vec<&Vec<Lit>> = base
                .iter()
                .chain(groups.iter().filter(|g| g.live).flat_map(|g| &g.clauses))
                .collect();
            let assumptions: Vec<Lit> =
                groups.iter().filter(|g| g.live).map(|g| g.guard).collect();
            let got = solver.solve_with_assumptions(&assumptions);

            let mut fresh = Solver::new();
            fresh.reserve_vars(next_var);
            for c in &live {
                fresh.add_clause(c.iter().copied());
            }
            let expect = fresh.solve();
            prop_assert_eq!(got, expect, "round {} verdict", round);
            if got == Outcome::Sat {
                let model = solver.model();
                for c in &live {
                    prop_assert!(satisfies(c, model), "round {round}: live clause {c:?} violated");
                }
            }
            if !solver.root_consistent() {
                // A base-only contradiction is permanent; nothing to retire.
                break;
            }
        }
    }
}
