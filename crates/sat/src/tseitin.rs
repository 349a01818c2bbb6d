//! Tseitin encoding of gate-level netlists into CNF.
//!
//! This is the bridge the SAT attack uses: every net gets a CNF variable and
//! every gate a small clause group asserting output ↔ function(inputs).
//! [`encode_netlist_into`] supports *pinning* chosen nets to existing
//! variables, which is how the attack builds two-copy miters that share data
//! inputs while keeping distinct key variables.

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use ril_netlist::{GateKind, NetId, Netlist};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors from circuit encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TseitinError {
    /// The netlist contains a DFF; convert with
    /// [`Netlist::to_combinational`] first.
    Sequential,
    /// A non-input net has no driver.
    Undriven(String),
}

impl fmt::Display for TseitinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TseitinError::Sequential => {
                write!(f, "netlist is sequential; convert to combinational first")
            }
            TseitinError::Undriven(n) => write!(f, "net `{n}` is undriven"),
        }
    }
}

impl Error for TseitinError {}

/// Result of encoding a netlist: the per-net variable map.
#[derive(Debug, Clone)]
pub struct CircuitVars {
    vars: Vec<Var>,
}

impl CircuitVars {
    /// The CNF variable carrying the value of `net`.
    pub fn var(&self, net: NetId) -> Var {
        self.vars[net.index()]
    }

    /// The positive literal of `net`'s variable.
    pub fn lit(&self, net: NetId) -> Lit {
        self.var(net).positive()
    }
}

/// Checks that `nl` can be encoded: it contains no DFF and every net a
/// gate reads is driven or a primary input. Encoders that must not write
/// a clause before they know they will succeed run this first.
///
/// # Errors
///
/// Returns [`TseitinError::Sequential`] if the netlist contains DFFs and
/// [`TseitinError::Undriven`] if a used net has no driver and is not a
/// primary input.
pub(crate) fn check_encodable(nl: &Netlist) -> Result<(), TseitinError> {
    if nl.gates().any(|(_, gate)| gate.kind() == GateKind::Dff) {
        return Err(TseitinError::Sequential);
    }
    for (_, gate) in nl.gates() {
        for &inp in gate.inputs() {
            if nl.net(inp).driver().is_none() && !nl.is_input(inp) {
                return Err(TseitinError::Undriven(nl.net(inp).name().to_string()));
            }
        }
    }
    Ok(())
}

/// Encodes `nl` into `sink` (a [`Cnf`] or a live [`crate::Solver`]).
/// Nets listed in `pinned` reuse the given variables; all other nets get
/// fresh ones. Returns the complete net→var map.
///
/// # Errors
///
/// Returns [`TseitinError::Sequential`] if the netlist contains DFFs and
/// [`TseitinError::Undriven`] if a used net has no driver and is not a
/// primary input. Both are found before anything is written to `sink`.
pub fn encode_netlist_into(
    nl: &Netlist,
    sink: &mut impl ClauseSink,
    pinned: &HashMap<NetId, Var>,
) -> Result<CircuitVars, TseitinError> {
    check_encodable(nl)?;
    let mut vars = Vec::with_capacity(nl.net_count());
    for (id, _) in nl.nets() {
        match pinned.get(&id) {
            Some(&v) => vars.push(v),
            None => vars.push(sink.new_var()),
        }
    }
    for (_, gate) in nl.gates() {
        let out = vars[gate.output().index()].positive();
        let ins: Vec<Lit> = gate
            .inputs()
            .iter()
            .map(|n| vars[n.index()].positive())
            .collect();
        encode_gate(sink, gate.kind(), out, &ins)?;
    }
    Ok(CircuitVars { vars })
}

/// Encodes only the gates accepted by `include` into `sink`, allocating
/// variables lazily: a net gets a variable only if it is pinned or touched
/// by an included gate. Returns the sparse net→var map.
///
/// This is the workhorse of structure-sharing encodings: the attack's
/// second circuit copy pins every key-independent net to the first copy's
/// variables and encodes only the key-dependent cones, and the
/// equivalence miter encodes output cones on demand.
///
/// # Errors
///
/// Returns [`TseitinError::Sequential`] if an included gate is a DFF.
pub fn encode_selected(
    nl: &Netlist,
    sink: &mut impl ClauseSink,
    pinned: &HashMap<NetId, Var>,
    mut include: impl FnMut(ril_netlist::GateId) -> bool,
) -> Result<HashMap<NetId, Var>, TseitinError> {
    let mut map: HashMap<NetId, Var> = pinned.clone();
    for (gid, gate) in nl.gates() {
        if !include(gid) {
            continue;
        }
        let mut var_of = |net: NetId| *map.entry(net).or_insert_with(|| sink.new_var());
        let out = var_of(gate.output()).positive();
        let ins: Vec<Lit> = gate
            .inputs()
            .iter()
            .map(|&n| var_of(n).positive())
            .collect();
        encode_gate(sink, gate.kind(), out, &ins)?;
    }
    Ok(map)
}

/// Encodes a whole netlist into a fresh CNF. Returns the formula and the
/// net→var map.
///
/// # Errors
///
/// See [`encode_netlist_into`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = ril_netlist::bench::c17();
/// let (cnf, vars) = ril_sat::encode_netlist(&nl)?;
/// assert!(cnf.num_clauses() > 0);
/// let g22 = nl.net_id("G22").expect("net exists");
/// let _out_var = vars.var(g22);
/// # Ok(())
/// # }
/// ```
pub fn encode_netlist(nl: &Netlist) -> Result<(Cnf, CircuitVars), TseitinError> {
    let mut cnf = Cnf::new();
    let vars = encode_netlist_into(nl, &mut cnf, &HashMap::new())?;
    Ok((cnf, vars))
}

/// Where an encoder writes its variables and clauses: a [`Cnf`] being
/// built up, or a live [`crate::Solver`] that takes them straight into
/// its solver.
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;
    /// Adds a clause.
    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>);
}

impl ClauseSink for Cnf {
    fn new_var(&mut self) -> Var {
        Cnf::new_var(self)
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        Cnf::add_clause(self, lits);
    }
}

/// Emits the clause group for one gate, `out ↔ kind(ins)`, into `sink`
/// (XOR chains allocate their auxiliary variables there too).
///
/// # Errors
///
/// Returns [`TseitinError::Sequential`] for a DFF.
pub fn encode_gate(
    sink: &mut impl ClauseSink,
    kind: GateKind,
    out: Lit,
    ins: &[Lit],
) -> Result<(), TseitinError> {
    match kind {
        GateKind::Buf => {
            sink.add_clause([!out, ins[0]]);
            sink.add_clause([out, !ins[0]]);
        }
        GateKind::Not => {
            sink.add_clause([!out, !ins[0]]);
            sink.add_clause([out, ins[0]]);
        }
        GateKind::And | GateKind::Nand => {
            let o = if kind == GateKind::And { out } else { !out };
            for &i in ins {
                sink.add_clause([!o, i]);
            }
            sink.add_clause(ins.iter().map(|&i| !i).chain([o]));
        }
        GateKind::Or | GateKind::Nor => {
            let o = if kind == GateKind::Or { out } else { !out };
            for &i in ins {
                sink.add_clause([o, !i]);
            }
            sink.add_clause(ins.iter().copied().chain([!o]));
        }
        GateKind::Xor | GateKind::Xnor => {
            // Chain pairwise; the last link ends on the output literal, so
            // a k-input gate needs k−2 auxiliary variables, a 2-input gate
            // none, and a 1-input gate is a buffer or inverter.
            let o = if kind == GateKind::Xor { out } else { !out };
            if let [a] = ins {
                sink.add_clause([!o, *a]);
                sink.add_clause([o, !*a]);
                return Ok(());
            }
            let mut acc = ins[0];
            for (n, &i) in ins[1..].iter().enumerate() {
                let t = if n + 2 == ins.len() {
                    o
                } else {
                    sink.new_var().positive()
                };
                sink.add_clause([!t, acc, i]);
                sink.add_clause([!t, !acc, !i]);
                sink.add_clause([t, !acc, i]);
                sink.add_clause([t, acc, !i]);
                acc = t;
            }
        }
        GateKind::Mux => {
            let (s, a, b) = (ins[0], ins[1], ins[2]);
            sink.add_clause([s, !a, out]);
            sink.add_clause([s, a, !out]);
            sink.add_clause([!s, !b, out]);
            sink.add_clause([!s, b, !out]);
            // Redundant but propagation-strengthening clauses.
            sink.add_clause([!a, !b, out]);
            sink.add_clause([a, b, !out]);
        }
        GateKind::Const0 => sink.add_clause([!out]),
        GateKind::Const1 => sink.add_clause([out]),
        GateKind::Lut2(tt) => {
            let (a, b) = (ins[0], ins[1]);
            for idx in 0..4u8 {
                let av = idx & 1 == 1;
                let bv = idx & 2 == 2;
                let o = if (tt >> idx) & 1 == 1 { out } else { !out };
                // (a = av ∧ b = bv) → o
                let la = if av { !a } else { a };
                let lb = if bv { !b } else { b };
                sink.add_clause([la, lb, o]);
            }
        }
        GateKind::Dff => return Err(TseitinError::Sequential),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Outcome, Solver};
    use ril_netlist::{generators, CompiledSim, Netlist};

    /// Checks CNF/model equivalence: for every input pattern, constrain
    /// inputs in the CNF and verify the implied outputs match simulation.
    fn check_equiv_exhaustive(nl: &Netlist) {
        let (cnf, vars) = encode_netlist(nl).unwrap();
        let mut sim = CompiledSim::new(nl).unwrap();
        let n = nl.inputs().len();
        assert!(n <= 12, "too many inputs for exhaustive check");
        for pattern in 0u64..(1 << n) {
            let bits: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            let expect = sim.eval_bits(&bits);
            let mut solver = Solver::from_cnf(&cnf);
            let assumptions: Vec<Lit> = nl
                .inputs()
                .iter()
                .zip(&bits)
                .map(|(&net, &b)| vars.var(net).lit(!b))
                .collect();
            assert_eq!(solver.solve_with_assumptions(&assumptions), Outcome::Sat);
            let model = solver.model();
            for (&out_net, &e) in nl.outputs().iter().zip(&expect) {
                assert_eq!(
                    model[vars.var(out_net).index()],
                    e,
                    "pattern {pattern:b}, output {}",
                    nl.net(out_net).name()
                );
            }
        }
    }

    #[test]
    fn c17_cnf_matches_simulation() {
        check_equiv_exhaustive(&ril_netlist::bench::c17());
    }

    #[test]
    fn every_gate_kind_encodes_correctly() {
        use ril_netlist::GateKind::*;
        // One gate per netlist, exhaustively checked.
        for (kind, arity) in [
            (Buf, 1usize),
            (Not, 1),
            (And, 3),
            (Or, 3),
            (Nand, 2),
            (Nor, 2),
            (Xor, 3),
            (Xnor, 2),
            (Mux, 3),
        ] {
            let mut nl = Netlist::new("g");
            let ins: Vec<_> = (0..arity)
                .map(|i| nl.add_input(format!("i{i}")).unwrap())
                .collect();
            let y = nl.add_net("y").unwrap();
            nl.add_gate(kind, &ins, y).unwrap();
            nl.mark_output(y);
            check_equiv_exhaustive(&nl);
        }
        for tt in 0u8..16 {
            let mut nl = Netlist::new("lut");
            let a = nl.add_input("a").unwrap();
            let b = nl.add_input("b").unwrap();
            let y = nl.add_net("y").unwrap();
            nl.add_gate(Lut2(tt), &[a, b], y).unwrap();
            nl.mark_output(y);
            check_equiv_exhaustive(&nl);
        }
    }

    #[test]
    fn xor_xnor_admit_exactly_the_simulated_output() {
        for kind in [GateKind::Xor, GateKind::Xnor] {
            for k in 1..=4usize {
                let mut cnf = Cnf::new();
                let ins = cnf.new_vars(k);
                let out = cnf.new_var();
                let in_lits: Vec<Lit> = ins.iter().map(|v| v.positive()).collect();
                encode_gate(&mut cnf, kind, out.positive(), &in_lits).unwrap();
                for m in 0u32..1 << k {
                    let bits: Vec<bool> = (0..k).map(|i| (m >> i) & 1 == 1).collect();
                    let expect = kind.eval_bits(&bits);
                    for value in [false, true] {
                        let mut assumptions: Vec<Lit> =
                            ins.iter().zip(&bits).map(|(v, &b)| v.lit(!b)).collect();
                        assumptions.push(out.lit(!value));
                        let outcome = Solver::from_cnf(&cnf).solve_with_assumptions(&assumptions);
                        let want = if value == expect {
                            Outcome::Sat
                        } else {
                            Outcome::Unsat
                        };
                        assert_eq!(outcome, want, "{kind:?} {bits:?} out={value}");
                    }
                }
            }
        }
    }

    #[test]
    fn xor_xnor_chain_ends_on_the_output() {
        for kind in [GateKind::Xor, GateKind::Xnor] {
            for k in 1..=6usize {
                let mut cnf = Cnf::new();
                let ins: Vec<Lit> = cnf.new_vars(k).iter().map(|v| v.positive()).collect();
                let out = cnf.new_var().positive();
                let (vars, clauses) = (cnf.num_vars(), cnf.num_clauses());
                encode_gate(&mut cnf, kind, out, &ins).unwrap();
                let want_clauses = if k == 1 { 2 } else { 4 * (k - 1) };
                assert_eq!(cnf.num_vars() - vars, k.saturating_sub(2), "{kind:?}/{k}");
                assert_eq!(cnf.num_clauses() - clauses, want_clauses, "{kind:?}/{k}");
            }
        }
    }

    #[test]
    fn adder_encodes_one_variable_per_net() {
        let nl = generators::adder(16);
        let (cnf, _) = encode_netlist(&nl).unwrap();
        assert_eq!(cnf.num_vars(), nl.net_count());
        assert_eq!(cnf.num_vars(), 113);
    }

    #[test]
    fn constants_encode_correctly() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a").unwrap();
        let z = nl.add_net("z").unwrap();
        let o = nl.add_net("o").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::Const0, &[], z).unwrap();
        nl.add_gate(GateKind::Const1, &[], o).unwrap();
        nl.add_gate(GateKind::Mux, &[a, z, o], y).unwrap();
        nl.mark_output(y);
        check_equiv_exhaustive(&nl); // y == a
    }

    #[test]
    fn pinning_shares_variables() {
        let nl = ril_netlist::bench::c17();
        let mut cnf = Cnf::new();
        let shared: HashMap<NetId, Var> = nl.inputs().iter().map(|&n| (n, cnf.new_var())).collect();
        let v1 = encode_netlist_into(&nl, &mut cnf, &shared).unwrap();
        let v2 = encode_netlist_into(&nl, &mut cnf, &shared).unwrap();
        for &inp in nl.inputs() {
            assert_eq!(v1.var(inp), v2.var(inp));
        }
        // Internal nets are distinct.
        let g10 = nl.net_id("G10").unwrap();
        assert_ne!(v1.var(g10), v2.var(g10));
        // Two copies of the same circuit with shared inputs: outputs must
        // agree — the miter XOR must be UNSAT.
        let out = nl.outputs()[0];
        let miter = cnf.new_var().positive();
        encode_gate(&mut cnf, GateKind::Xor, miter, &[v1.lit(out), v2.lit(out)]).unwrap();
        cnf.add_clause([miter]);
        let mut solver = Solver::from_cnf(&cnf);
        assert_eq!(solver.solve(), Outcome::Unsat);
    }

    #[test]
    fn sequential_rejected() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a").unwrap();
        let q = nl.add_net("q").unwrap();
        nl.add_gate(GateKind::Dff, &[a], q).unwrap();
        nl.mark_output(q);
        assert_eq!(encode_netlist(&nl).unwrap_err(), TseitinError::Sequential);
    }

    #[test]
    fn larger_circuit_spot_check() {
        // 4-bit adder: constrain inputs via assumptions, check sums.
        let nl = generators::adder(4);
        let (cnf, vars) = encode_netlist(&nl).unwrap();
        let mut sim = CompiledSim::new(&nl).unwrap();
        for (a, b) in [(3u64, 9u64), (15, 15), (0, 0), (7, 8)] {
            let bits: Vec<bool> = (0..8)
                .map(|i| {
                    if i < 4 {
                        (a >> i) & 1 == 1
                    } else {
                        (b >> (i - 4)) & 1 == 1
                    }
                })
                .collect();
            let expect = sim.eval_bits(&bits);
            let mut solver = Solver::from_cnf(&cnf);
            let assumptions: Vec<Lit> = nl
                .inputs()
                .iter()
                .zip(&bits)
                .map(|(&net, &bit)| vars.var(net).lit(!bit))
                .collect();
            assert_eq!(solver.solve_with_assumptions(&assumptions), Outcome::Sat);
            for (&o, &e) in nl.outputs().iter().zip(&expect) {
                assert_eq!(solver.model()[vars.var(o).index()], e);
            }
        }
    }
}
