//! Miter-shaped instances, the kind every attack and equivalence check
//! hands the solver: the self-miter of a random circuit must be UNSAT,
//! and any model of the miter of two random circuits must satisfy it.

use proptest::prelude::*;
use ril_netlist::generators;
use ril_sat::{encode_netlist_into, Budget, Cnf, Outcome, Solver, Var};
use std::collections::HashMap;
use std::time::Duration;

fn satisfies(cnf: &Cnf, model: &[bool]) -> bool {
    cnf.clauses()
        .iter()
        .all(|clause| clause.iter().any(|l| model[l.var().index()] == l.target()))
}

/// The miter `a ≢ b` over shared inputs: SAT iff the circuits differ.
fn miter_cnf(a: &ril_netlist::Netlist, b: &ril_netlist::Netlist) -> Cnf {
    let mut cnf = Cnf::new();
    let va = encode_netlist_into(a, &mut cnf, &HashMap::new()).expect("combinational");
    let pinned: HashMap<_, Var> = b
        .inputs()
        .iter()
        .zip(a.inputs())
        .map(|(&bi, &ai)| (bi, va.var(ai)))
        .collect();
    let vb = encode_netlist_into(b, &mut cnf, &pinned).expect("combinational");
    let mut diff = Vec::new();
    for (&oa, &ob) in a.outputs().iter().zip(b.outputs()) {
        let x = cnf.new_var().positive();
        let (la, lb) = (va.lit(oa), vb.lit(ob));
        cnf.add_clause([!x, la, lb]);
        cnf.add_clause([!x, !la, !lb]);
        cnf.add_clause([x, !la, lb]);
        cnf.add_clause([x, la, !lb]);
        diff.push(x);
    }
    cnf.add_clause(diff);
    cnf
}

fn solve(cnf: &Cnf) -> (Outcome, Option<Vec<bool>>) {
    let mut solver = Solver::from_cnf(cnf);
    solver.set_budget(Budget::from_timeout(Some(Duration::from_secs(30))));
    let outcome = solver.solve();
    let model = (outcome == Outcome::Sat).then(|| solver.model().to_vec());
    (outcome, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn self_miter_is_unsat_and_cross_miter_models_satisfy(seed in 0u64..2000) {
        let a = generators::random_circuit(seed, 6, 40, 4);
        let (outcome, _) = solve(&miter_cnf(&a, &a));
        prop_assert_eq!(outcome, Outcome::Unsat, "a circuit differs from itself");

        let b = generators::random_circuit(seed.wrapping_add(1), 6, 40, 4);
        let cross = miter_cnf(&a, &b);
        let (outcome, model) = solve(&cross);
        prop_assert_ne!(outcome, Outcome::Unknown, "cross-miter seed {} timed out", seed);
        if let Some(m) = model {
            prop_assert!(satisfies(&cross, &m));
        }
    }
}
