//! Property-based cross-crate tests (proptest).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_blocks::core::banyan::BanyanNetwork;
use ril_blocks::core::lut::{complement_lut, swap_lut_inputs};
use ril_blocks::core::{Obfuscator, RilBlockSpec};
use ril_blocks::netlist::{generators, parse_bench, write_bench, CompiledSim, GateKind, Netlist};
use ril_blocks::sat::{
    check_equivalence, encode_netlist, Cnf, EquivOptions, EquivResult, Lit, Outcome, Solver,
};

/// A copy of `nl` with the kind of its `pick`-th gate (mod the gate count)
/// changed to another kind of the same arity.
fn with_one_gate_kind_changed(nl: &Netlist, pick: u64) -> Netlist {
    let mut copy = nl.clone();
    let gates: Vec<_> = copy.gates().map(|(id, g)| (id, g.kind())).collect();
    let (id, kind) = gates[(pick % gates.len() as u64) as usize];
    let next = match kind {
        GateKind::And => GateKind::Or,
        GateKind::Or => GateKind::Nand,
        GateKind::Nand => GateKind::Nor,
        GateKind::Nor => GateKind::Xor,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::And,
        GateKind::Not => GateKind::Buf,
        GateKind::Buf => GateKind::Not,
        other => panic!("random_circuit never emits {other:?}"),
    };
    copy.set_gate_kind(id, next).expect("same arity");
    copy
}

/// For every input pattern (bit `i` of the pattern index drives input
/// `i`), which outputs of `left` and `right` differ.
fn exhaustive_output_diffs(left: &Netlist, right: &Netlist) -> Vec<Vec<bool>> {
    let n = left.inputs().len();
    let mut sim_l = CompiledSim::new(left).expect("sim");
    let mut sim_r = CompiledSim::new(right).expect("sim");
    (0u64..1 << n)
        .map(|p| {
            let bits: Vec<bool> = (0..n).map(|i| (p >> i) & 1 == 1).collect();
            let l = sim_l.eval_bits(&bits);
            let r = sim_r.eval_bits(&bits);
            l.iter().zip(&r).map(|(a, b)| a != b).collect()
        })
        .collect()
}

/// The outputs of `nl` on one input pattern.
fn outputs_at(nl: &Netlist, bits: &[bool]) -> Vec<bool> {
    CompiledSim::new(nl).expect("sim").eval_bits(bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CNF encoding of a random circuit agrees with bit-parallel
    /// simulation on random patterns.
    #[test]
    fn cnf_encoding_matches_simulation(seed in 0u64..5000, pattern in 0u64..u64::MAX) {
        let nl = generators::random_circuit(seed, 6, 30, 4);
        let (cnf, vars) = encode_netlist(&nl).expect("combinational");
        let mut sim = CompiledSim::new(&nl).expect("sim");
        let bits: Vec<bool> = (0..6).map(|i| (pattern >> i) & 1 == 1).collect();
        let expect = sim.eval_bits(&bits);
        let mut solver = Solver::from_cnf(&cnf);
        let assumptions: Vec<Lit> = nl.inputs().iter().zip(&bits)
            .map(|(&n, &b)| vars.var(n).lit(!b)).collect();
        prop_assert_eq!(solver.solve_with_assumptions(&assumptions), Outcome::Sat);
        for (&o, &e) in nl.outputs().iter().zip(&expect) {
            prop_assert_eq!(solver.model()[vars.var(o).index()], e);
        }
    }

    /// `.bench` serialization round-trips functionally.
    #[test]
    fn bench_round_trip_preserves_function(seed in 0u64..5000, pattern in 0u64..u64::MAX) {
        let nl = generators::random_circuit(seed, 5, 25, 3);
        let back = parse_bench("rt", &write_bench(&nl)).expect("parse");
        let mut sim1 = CompiledSim::new(&nl).expect("sim");
        let mut sim2 = CompiledSim::new(&back).expect("sim");
        let bits: Vec<bool> = (0..5).map(|i| (pattern >> i) & 1 == 1).collect();
        // Output order may differ only if names differ — compare by name.
        let o1 = sim1.eval_bits(&bits);
        let o2 = sim2.eval_bits(&bits);
        prop_assert_eq!(o1, o2);
    }

    /// Banyan routing always yields permutations, and found keys reproduce
    /// the requested permutation.
    #[test]
    fn banyan_route_find_roundtrip(width_pow in 1u32..4, keyseed in 0u64..10_000) {
        let n = 1usize << width_pow;
        let net = BanyanNetwork::new(n);
        let mut rng = StdRng::seed_from_u64(keyseed);
        let keys: Vec<bool> = (0..net.num_keys()).map(|_| rng.gen()).collect();
        let perm = net.route(&keys);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let found = net.find_keys(&perm, &mut rng, 0).expect("own permutation routable");
        prop_assert_eq!(net.route(&found), perm);
    }

    /// LUT truth-table transforms are involutions and commute as expected.
    #[test]
    fn lut_transforms(tt in 0u8..16) {
        prop_assert_eq!(swap_lut_inputs(swap_lut_inputs(tt)), tt);
        prop_assert_eq!(complement_lut(complement_lut(tt)), tt);
        prop_assert_eq!(
            complement_lut(swap_lut_inputs(tt)),
            swap_lut_inputs(complement_lut(tt))
        );
    }

    /// Obfuscation preserves functionality for random hosts, shapes, seeds.
    #[test]
    fn obfuscation_preserves_function(seed in 0u64..2000, shape in 0usize..3, scan in any::<bool>()) {
        let host = generators::random_circuit(seed, 8, 60, 6);
        let spec = [
            RilBlockSpec::size_2x2(),
            RilBlockSpec::parse("4x4").expect("valid"),
            RilBlockSpec::parse("4x4x4").expect("valid"),
        ][shape];
        // Random hosts may occasionally lack enough independent gates —
        // that is a legitimate (checked) error, not a failure.
        if let Ok(locked) = Obfuscator::new(spec)
            .scan_obfuscation(scan)
            .seed(seed)
            .obfuscate(&host)
        {
            prop_assert!(locked.netlist.validate().is_ok());
            prop_assert!(locked.verify(8).expect("sim ok"));
        }
    }

    /// An incremental [`Solver`] fed random clause batches agrees with a
    /// from-scratch [`Solver`] on the accumulated formula after every
    /// batch — with and without random assumptions — and its SAT models
    /// satisfy everything added so far.
    #[test]
    fn incremental_session_matches_from_scratch(seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..10usize);
        let batches = rng.gen_range(1..6usize);
        let mut accumulated = Cnf::new();
        accumulated.new_vars(n);
        let mut session = Solver::new();
        session.reserve_vars(n);
        for _ in 0..batches {
            // A random batch of clauses lands in both the live session and
            // the accumulated reference formula.
            let m = rng.gen_range(1..10usize);
            for _ in 0..m {
                let len = rng.gen_range(1..4usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| Lit::new(rng.gen_range(0..n), rng.gen()))
                    .collect();
                accumulated.add_clause(lits.clone());
                session.add_clause(lits);
            }
            let mut scratch = Solver::from_cnf(&accumulated);
            if rng.gen_bool(0.5) {
                // Plain solve.
                let outcome = session.solve();
                prop_assert_eq!(outcome, scratch.solve());
                if outcome == Outcome::Sat {
                    prop_assert!(accumulated.is_satisfied_by(session.model()));
                }
            } else {
                // Solve under random assumptions; the session must neither
                // poison itself nor disagree with the scratch solver.
                let k = rng.gen_range(0..=n.min(3));
                let assumptions: Vec<Lit> = (0..k)
                    .map(|_| Lit::new(rng.gen_range(0..n), rng.gen()))
                    .collect();
                let outcome = session.solve_with_assumptions(&assumptions);
                prop_assert_eq!(outcome, scratch.solve_with_assumptions(&assumptions));
                if outcome == Outcome::Sat {
                    prop_assert!(accumulated.is_satisfied_by(session.model()));
                    for a in &assumptions {
                        prop_assert_eq!(session.model()[a.var().index()], a.target());
                    }
                }
            }
        }
    }

    /// Solver models always satisfy the formula (soundness of SAT answers).
    #[test]
    fn solver_models_satisfy(seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..12usize);
        let m = rng.gen_range(3..40usize);
        let mut cnf = Cnf::new();
        cnf.new_vars(n);
        for _ in 0..m {
            let len = rng.gen_range(1..4usize);
            let lits: Vec<Lit> = (0..len).map(|_| Lit::new(rng.gen_range(0..n), rng.gen())).collect();
            cnf.add_clause(lits);
        }
        let mut solver = Solver::from_cnf(&cnf);
        if solver.solve() == Outcome::Sat {
            prop_assert!(cnf.is_satisfied_by(solver.model()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The SAT equivalence engine against an independent reference,
    /// exhaustive simulation. A random circuit is paired with itself and
    /// with a copy that has one gate kind changed; outputs are matched by
    /// name and then by position. `check_equivalence` must say
    /// `Equivalent` exactly when no input pattern separates the pair, and
    /// its counterexamples must separate it. With a random subset of the
    /// inputs fixed to random values (folded as constants), it must say
    /// `Equivalent` exactly when no pattern that agrees with the pins
    /// separates the pair, and its counterexamples must separate the pair
    /// and carry the pinned values.
    #[test]
    fn equivalence_engine_matches_exhaustive_simulation(
        seed in 0u64..5000,
        n_inputs in 1usize..=8,
        n_gates in 8usize..40,
        n_outputs in 1usize..=4,
        pick in any::<u64>(),
    ) {
        let nl = generators::random_circuit(seed, n_inputs, n_gates, n_outputs);
        let mutant = with_one_gate_kind_changed(&nl, pick);
        // Input `i` is pinned when bit 32 + i of `pick` is set, to bit
        // 48 + i.
        let pins: Vec<(usize, bool)> = (0..n_inputs)
            .filter(|i| (pick >> (32 + i)) & 1 == 1)
            .map(|i| (i, (pick >> (48 + i)) & 1 == 1))
            .collect();
        let fixed_inputs: Vec<(String, bool)> = pins
            .iter()
            .map(|&(i, v)| (nl.net(nl.inputs()[i]).name().to_string(), v))
            .collect();
        let agrees = |p: usize| pins.iter().all(|&(i, v)| ((p >> i) & 1 == 1) == v);
        for right in [&nl, &mutant] {
            let diffs = exhaustive_output_diffs(&nl, right);
            for by_position in [false, true] {
                for pinned in [false, true] {
                    let opts = EquivOptions {
                        match_outputs_by_position: by_position,
                        fixed_inputs: if pinned { fixed_inputs.clone() } else { Vec::new() },
                        ..EquivOptions::default()
                    };
                    let separated = diffs
                        .iter()
                        .enumerate()
                        .any(|(p, d)| (!pinned || agrees(p)) && d.contains(&true));
                    match check_equivalence(&nl, right, &opts).expect("ports align") {
                        EquivResult::Equivalent => prop_assert!(!separated),
                        EquivResult::Inequivalent { counterexample } => {
                            prop_assert!(separated);
                            prop_assert_ne!(outputs_at(&nl, &counterexample), outputs_at(right, &counterexample));
                            if pinned {
                                for &(i, v) in &pins {
                                    prop_assert_eq!(counterexample[i], v, "pin {} dropped", i);
                                }
                            }
                        }
                        EquivResult::Unknown => prop_assert!(false, "no budget was set"),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dynamic morphing preserves functionality on random hosts.
    #[test]
    fn morphing_preserves_function(seed in 0u64..500) {
        let host = generators::multiplier(5);
        if let Ok(mut locked) = Obfuscator::new(RilBlockSpec::parse("4x4x4").expect("valid"))
            .seed(seed)
            .obfuscate(&host)
        {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
            ril_blocks::core::morph_all(&mut locked, &mut rng);
            prop_assert!(locked.verify(8).expect("sim ok"));
        }
    }
}
