//! SAT-based combinational equivalence checking.
//!
//! Builds the classic miter between two netlists matched by port *names*
//! and asks the CDCL solver whether any input makes the outputs differ —
//! the formal upgrade of random-pattern verification, used by the locking
//! flow to certify `locked(correct key) ≡ original` and by attack
//! evaluation to certify recovered keys.

use crate::lit::{Lit, Var};
use crate::solver::{Budget, Outcome, Solver, SolverStats};
use crate::tseitin::{check_encodable, encode_selected, TseitinError};
use ril_netlist::{GateId, NetId, Netlist};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits agree on every input (UNSAT miter).
    Equivalent,
    /// A distinguishing input was found (values in the *shared* input
    /// order of [`check_equivalence`]'s report).
    Inequivalent {
        /// Counterexample input assignment, shared-input order.
        counterexample: Vec<bool>,
    },
    /// The solve budget expired first.
    Unknown,
}

/// Errors from equivalence checking.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivError {
    /// Port sets do not line up (message names the offender).
    PortMismatch(String),
    /// Encoding failed (sequential netlist, etc.).
    Encode(TseitinError),
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::PortMismatch(m) => write!(f, "port mismatch: {m}"),
            EquivError::Encode(e) => write!(f, "encoding error: {e}"),
        }
    }
}

impl Error for EquivError {}

impl From<TseitinError> for EquivError {
    fn from(e: TseitinError) -> Self {
        EquivError::Encode(e)
    }
}

/// Options for [`check_equivalence`].
#[derive(Debug, Clone, Default)]
pub struct EquivOptions {
    /// Wall-clock budget for each solve call, applied through
    /// [`Budget::from_timeout`].
    pub timeout: Option<Duration>,
    /// Inputs of either circuit that are allowed to be missing from the
    /// other; they are treated as free (universally quantified) on their
    /// own side. Useful for ignoring scan/test pins.
    pub ignore_inputs: Vec<String>,
    /// Per-input fixed values (by name), e.g. `SE = 0` for functional-mode
    /// checks of scan-obfuscated designs.
    pub fixed_inputs: Vec<(String, bool)>,
    /// Pair outputs by position instead of by name. Netlist surgery
    /// (removal/bypass, resynthesis) often re-drives an output from a net
    /// with a different name while preserving output order; positional
    /// matching lets such circuits still be checked. Output *counts* must
    /// agree.
    pub match_outputs_by_position: bool,
}

/// Result of matching two netlists' ports into a shared variable pool.
struct MiterPorts {
    out_pairs: Vec<(NetId, NetId)>,
    shared_vars: Vec<Var>,
    input_vars: HashMap<String, Var>,
    pins_left: HashMap<NetId, Var>,
    pins_right: HashMap<NetId, Var>,
    base_assumptions: Vec<Lit>,
}

/// Matches outputs (by name, or by position on request) and inputs (by
/// name) of `left` vs `right`, allocating one input variable per port
/// name in `solver`. Inputs present on only one side must be ignored or
/// fixed by `options`.
fn match_ports(
    solver: &mut Solver,
    left: &Netlist,
    right: &Netlist,
    options: &EquivOptions,
) -> Result<MiterPorts, EquivError> {
    // --- Match outputs (by name, or by position on request) --------------
    let out_pairs: Vec<(NetId, NetId)> = if options.match_outputs_by_position {
        if left.outputs().len() != right.outputs().len() {
            return Err(EquivError::PortMismatch(format!(
                "output counts differ: {} vs {}",
                left.outputs().len(),
                right.outputs().len()
            )));
        }
        left.outputs()
            .iter()
            .copied()
            .zip(right.outputs().iter().copied())
            .collect()
    } else {
        let mut right_outputs: HashMap<&str, NetId> = right
            .outputs()
            .iter()
            .map(|&o| (right.net(o).name(), o))
            .collect();
        let mut pairs: Vec<(NetId, NetId)> = Vec::new();
        for &o in left.outputs() {
            let name = left.net(o).name();
            match right_outputs.remove(name) {
                Some(ro) => pairs.push((o, ro)),
                None => {
                    return Err(EquivError::PortMismatch(format!(
                        "output `{name}` missing on the right"
                    )))
                }
            }
        }
        if let Some((name, _)) = right_outputs.into_iter().next() {
            return Err(EquivError::PortMismatch(format!(
                "output `{name}` missing on the left"
            )));
        }
        pairs
    };

    // --- Match inputs by name --------------------------------------------
    let fixed: HashMap<&str, bool> = options
        .fixed_inputs
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    let ignored: Vec<&str> = options.ignore_inputs.iter().map(String::as_str).collect();
    let mut shared_vars: Vec<Var> = Vec::new();
    let mut input_vars: HashMap<String, Var> = HashMap::new();
    let mut pins_left: HashMap<NetId, Var> = HashMap::new();
    let mut pins_right: HashMap<NetId, Var> = HashMap::new();
    let right_inputs: HashMap<&str, NetId> = right
        .inputs()
        .iter()
        .map(|&i| (right.net(i).name(), i))
        .collect();

    let mut base_assumptions: Vec<Lit> = Vec::new();
    for &li in left.inputs() {
        let name = left.net(li).name().to_string();
        let var = solver.new_var();
        pins_left.insert(li, var);
        if let Some(&ri) = right_inputs.get(name.as_str()) {
            pins_right.insert(ri, var);
            shared_vars.push(var);
        } else if !ignored.contains(&name.as_str()) && !fixed.contains_key(name.as_str()) {
            return Err(EquivError::PortMismatch(format!(
                "input `{name}` missing on the right (ignore or fix it)"
            )));
        }
        if let Some(&v) = fixed.get(name.as_str()) {
            base_assumptions.push(var.lit(!v));
        }
        input_vars.insert(name, var);
    }
    for &ri in right.inputs() {
        let name = right.net(ri).name();
        if pins_right.contains_key(&ri) {
            continue;
        }
        let var = solver.new_var();
        pins_right.insert(ri, var);
        if let Some(&v) = fixed.get(name) {
            base_assumptions.push(var.lit(!v));
        } else if !ignored.contains(&name) {
            return Err(EquivError::PortMismatch(format!(
                "input `{name}` missing on the left (ignore or fix it)"
            )));
        }
        input_vars.insert(name.to_string(), var);
    }

    Ok(MiterPorts {
        out_pairs,
        shared_vars,
        input_vars,
        pins_left,
        pins_right,
        base_assumptions,
    })
}

/// One side of the miter: a netlist, the variables of its nets so far,
/// and the gates already in the solver. The encoded set is closed under
/// fan-in, because only whole cones are ever encoded.
#[derive(Debug)]
struct Side {
    nl: Netlist,
    vars: HashMap<NetId, Var>,
    encoded: HashSet<GateId>,
}

impl Side {
    /// Encodes the union of the fan-in cones of `nets`, minus the gates
    /// already in the solver, straight into `solver`.
    fn encode_cones(&mut self, solver: &mut Solver, nets: impl IntoIterator<Item = NetId>) {
        let mut fresh: HashSet<GateId> = HashSet::new();
        let mut stack: Vec<NetId> = nets.into_iter().collect();
        while let Some(net) = stack.pop() {
            if let Some(g) = self.nl.net(net).driver() {
                if !self.encoded.contains(&g) && fresh.insert(g) {
                    stack.extend(self.nl.gate(g).inputs().iter().copied());
                }
            }
        }
        self.vars = encode_selected(&self.nl, solver, &self.vars, |g| fresh.contains(&g))
            .expect("checked combinational by EquivSession::new");
        self.encoded.extend(fresh);
    }

    /// The variable of output net `net`. An output that is a primary input
    /// already has its pin; an undriven one gets a free variable.
    fn output_lit(&mut self, solver: &mut Solver, net: NetId) -> Lit {
        self.vars
            .entry(net)
            .or_insert_with(|| solver.new_var())
            .positive()
    }
}

/// A persistent equivalence miter between two netlists, for *repeated*
/// checks of the same circuit pair under varying pinned inputs — key
/// verification after an attack, morph validation, `SE`-mode checks.
///
/// Ports are matched once, by name (outputs optionally by position), at
/// construction. Gates are encoded lazily: a check encodes the fan-in
/// cones of the outputs it asks about that are not yet in the solver,
/// then gives each output pair a difference literal `xᵢ ↔ (lᵢ ⊕ rᵢ)`.
/// Each distinct output subset gets one guarded disjunction clause
/// (`∨ xᵢ ∨ ¬g`), memoized so a recurring subset re-uses its guard, and a
/// query only assumes that guard plus the pinned inputs. Learned clauses
/// carry over between checks: they are implied by the miter formula
/// alone, so they stay sound for every later query.
///
/// After a morph reports which key bits changed, a verifier asks only
/// about the *dirty* outputs — the cones that read a changed bit — and the
/// clean outputs keep their earlier verdict (their difference depends on
/// inputs whose pinned values did not change). A full check encodes every
/// missing cone in one pass: the left cones, then the right cones, then
/// the difference literals.
///
/// A failed call leaves the session untouched: the netlists are checked
/// to be encodable at construction, and a check validates its output
/// indices and pinned names before it writes a clause. The session owns
/// clones of both netlists and is keyed to them *as constructed*.
///
/// # Examples
///
/// ```
/// use ril_netlist::generators;
/// use ril_sat::{EquivOptions, EquivResult, EquivSession};
///
/// let nl = generators::adder(4);
/// let mut sess = EquivSession::new(&nl, &nl.clone(), &EquivOptions::default()).unwrap();
/// // Check a single output's cone — only that cone gets encoded.
/// assert_eq!(sess.check_outputs(&[0], &[]).unwrap(), EquivResult::Equivalent);
/// assert!(sess.encoded_outputs() < sess.outputs());
/// // The full check encodes the rest on demand; repeats are warm solves.
/// for _ in 0..3 {
///     assert_eq!(sess.check(), EquivResult::Equivalent);
/// }
/// assert_eq!(sess.encoded_outputs(), sess.outputs());
/// ```
#[derive(Debug)]
pub struct EquivSession {
    solver: Solver,
    /// Checks that reached the solver so far.
    checks: usize,
    left: Side,
    right: Side,
    out_pairs: Vec<(NetId, NetId)>,
    /// Per-output difference literal, allocated when the cone is encoded.
    diff: Vec<Option<Lit>>,
    input_vars: HashMap<String, Var>,
    shared_vars: Vec<Var>,
    base_assumptions: Vec<Lit>,
    /// Guard literal per (sorted, deduped) output subset already queried.
    guards: HashMap<Vec<usize>, Lit>,
}

impl EquivSession {
    /// Matches ports of `left` vs `right` and allocates input variables,
    /// but encodes **no** gates yet. `options.fixed_inputs` become *base*
    /// assumptions applied to every check; `options.timeout` bounds each
    /// solve call.
    ///
    /// # Errors
    ///
    /// Returns [`EquivError::PortMismatch`] on name mismatches and
    /// [`EquivError::Encode`] if either netlist has a DFF or an undriven
    /// used net.
    pub fn new(
        left: &Netlist,
        right: &Netlist,
        options: &EquivOptions,
    ) -> Result<EquivSession, EquivError> {
        let mut solver = Solver::new();
        solver.set_budget(Budget::from_timeout(options.timeout));
        let MiterPorts {
            out_pairs,
            shared_vars,
            input_vars,
            pins_left,
            pins_right,
            base_assumptions,
        } = match_ports(&mut solver, left, right, options)?;
        check_encodable(left)?;
        check_encodable(right)?;
        let side = |nl: &Netlist, vars| Side {
            nl: nl.clone(),
            vars,
            encoded: HashSet::new(),
        };
        Ok(EquivSession {
            solver,
            checks: 0,
            left: side(left, pins_left),
            right: side(right, pins_right),
            diff: vec![None; out_pairs.len()],
            out_pairs,
            input_vars,
            shared_vars,
            base_assumptions,
            guards: HashMap::new(),
        })
    }

    /// Number of matched output pairs.
    pub fn outputs(&self) -> usize {
        self.out_pairs.len()
    }

    /// Number of output pairs whose cones have been pushed into the solver.
    pub fn encoded_outputs(&self) -> usize {
        self.diff.iter().filter(|d| d.is_some()).count()
    }

    /// Encodes the cones and difference literals of every output in
    /// `subset` that is not yet in the solver: the union of the left
    /// cones, then the union of the right cones, then the differences.
    fn encode_outputs(&mut self, subset: &[usize]) {
        let missing: Vec<usize> = subset
            .iter()
            .copied()
            .filter(|&o| self.diff[o].is_none())
            .collect();
        let pairs: Vec<(NetId, NetId)> = missing.iter().map(|&o| self.out_pairs[o]).collect();
        self.left
            .encode_cones(&mut self.solver, pairs.iter().map(|&(l, _)| l));
        self.right
            .encode_cones(&mut self.solver, pairs.iter().map(|&(_, r)| r));
        for (&o, &(lo, ro)) in missing.iter().zip(&pairs) {
            let a = self.left.output_lit(&mut self.solver, lo);
            let b = self.right.output_lit(&mut self.solver, ro);
            let x = self.solver.new_var().positive();
            self.solver.add_clause([!x, a, b]);
            self.solver.add_clause([!x, !a, !b]);
            self.solver.add_clause([x, !a, b]);
            self.solver.add_clause([x, a, !b]);
            self.diff[o] = Some(x);
        }
    }

    /// The input literals to assume for one query: every base assumption
    /// not overridden by `fixed`, then the per-call pins.
    fn pinned_inputs(&self, fixed: &[(String, bool)]) -> Result<Vec<Lit>, EquivError> {
        let mut assumptions: Vec<Lit> = Vec::new();
        for l in &self.base_assumptions {
            let keep = !fixed
                .iter()
                .any(|(n, _)| self.input_vars.get(n) == Some(&l.var()));
            if keep {
                assumptions.push(*l);
            }
        }
        for (name, value) in fixed {
            let var = self.input_vars.get(name).ok_or_else(|| {
                EquivError::PortMismatch(format!("input `{name}` not present in the miter"))
            })?;
            assumptions.push(var.lit(!*value));
        }
        Ok(assumptions)
    }

    /// One equivalence query restricted to the given output indices
    /// (positions in the matched output-pair order, which follows the left
    /// netlist's [`Netlist::outputs`] order), with per-call pinned inputs
    /// layered over — and overriding — the base fixed inputs.
    ///
    /// An empty `outputs` slice is vacuously [`EquivResult::Equivalent`].
    /// Cones are encoded on demand; the subset's guarded difference clause
    /// is created once and reused on repeat queries.
    ///
    /// # Errors
    ///
    /// Returns [`EquivError::PortMismatch`] for out-of-range output indices
    /// or unknown input names, before anything is encoded.
    pub fn check_outputs(
        &mut self,
        outputs: &[usize],
        fixed: &[(String, bool)],
    ) -> Result<EquivResult, EquivError> {
        let mut subset: Vec<usize> = outputs.to_vec();
        subset.sort_unstable();
        subset.dedup();
        if let Some(&bad) = subset.last().filter(|&&o| o >= self.out_pairs.len()) {
            return Err(EquivError::PortMismatch(format!(
                "output index {bad} out of range ({} outputs)",
                self.out_pairs.len()
            )));
        }
        let pins = self.pinned_inputs(fixed)?;
        if subset.is_empty() {
            return Ok(EquivResult::Equivalent);
        }
        self.encode_outputs(&subset);
        let guard = match self.guards.get(&subset) {
            Some(&g) => g,
            None => {
                let g = self.solver.new_var().positive();
                let mut clause: Vec<Lit> = subset
                    .iter()
                    .map(|&o| self.diff[o].expect("cone encoded above"))
                    .collect();
                clause.push(!g);
                self.solver.add_clause(clause);
                self.guards.insert(subset, g);
                g
            }
        };
        let mut assumptions = Vec::with_capacity(pins.len() + 1);
        assumptions.push(guard);
        assumptions.extend(pins);
        self.checks += 1;
        Ok(match self.solver.solve_with_assumptions(&assumptions) {
            Outcome::Unsat => EquivResult::Equivalent,
            Outcome::Unknown => EquivResult::Unknown,
            Outcome::Sat => {
                let model = self.solver.model();
                EquivResult::Inequivalent {
                    counterexample: self.shared_vars.iter().map(|v| model[v.index()]).collect(),
                }
            }
        })
    }

    /// One full equivalence query (all outputs) under the base fixed
    /// inputs.
    pub fn check(&mut self) -> EquivResult {
        self.check_with(&[]).expect("no overrides: names known")
    }

    /// One full equivalence query with per-call pinned inputs (by name),
    /// layered over the base fixed inputs. This is the repeated-key
    /// verification fast path: the miter is warm, only the assumptions
    /// change.
    ///
    /// # Errors
    ///
    /// Returns [`EquivError::PortMismatch`] if a name matches no input.
    pub fn check_with(&mut self, fixed: &[(String, bool)]) -> Result<EquivResult, EquivError> {
        let all: Vec<usize> = (0..self.out_pairs.len()).collect();
        self.check_outputs(&all, fixed)
    }

    /// Cumulative solver statistics across all checks.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Number of checks answered so far (vacuous empty-subset checks
    /// excluded — they never reach the solver).
    pub fn checks(&self) -> usize {
        self.checks
    }
}

/// Checks combinational equivalence of `left` and `right`, matching inputs
/// and outputs by name.
///
/// Inputs present in only one circuit must be listed in
/// [`EquivOptions::ignore_inputs`] or pinned in
/// [`EquivOptions::fixed_inputs`]; outputs must match exactly by name.
/// One-shot convenience over [`EquivSession`]; callers issuing repeated
/// checks of the same pair should hold an `EquivSession` instead.
///
/// # Errors
///
/// See [`EquivSession::new`].
pub fn check_equivalence(
    left: &Netlist,
    right: &Netlist,
    options: &EquivOptions,
) -> Result<EquivResult, EquivError> {
    Ok(EquivSession::new(left, right, options)?.check())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_netlist::{generators, parse_bench, GateKind, Netlist};

    fn and_circuit(name: &str, kind: GateKind) -> Netlist {
        let mut nl = Netlist::new(name);
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(kind, &[a, b], y).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn identical_circuits_are_equivalent() {
        let l = and_circuit("l", GateKind::And);
        let r = and_circuit("r", GateKind::And);
        assert_eq!(
            check_equivalence(&l, &r, &EquivOptions::default()).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn different_gates_yield_counterexample() {
        let l = and_circuit("l", GateKind::And);
        let r = and_circuit("r", GateKind::Or);
        match check_equivalence(&l, &r, &EquivOptions::default()).unwrap() {
            EquivResult::Inequivalent { counterexample } => {
                // AND ≠ OR exactly when inputs differ from each other.
                assert_eq!(counterexample.len(), 2);
                assert_ne!(counterexample[0], counterexample[1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn structurally_different_but_equal_adders() {
        // DeMorgan: NAND(a,b) ≡ OR(!a,!b).
        let l = and_circuit("l", GateKind::Nand);
        let mut r = Netlist::new("r");
        let a = r.add_input("a").unwrap();
        let b = r.add_input("b").unwrap();
        let na = r.add_gate_fresh(GateKind::Not, &[a], "n").unwrap();
        let nb = r.add_gate_fresh(GateKind::Not, &[b], "n").unwrap();
        let y = r.add_net("y").unwrap();
        r.add_gate(GateKind::Or, &[na, nb], y).unwrap();
        r.mark_output(y);
        assert_eq!(
            check_equivalence(&l, &r, &EquivOptions::default()).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn port_mismatches_are_reported() {
        let l = and_circuit("l", GateKind::And);
        let mut r = and_circuit("r", GateKind::And);
        r.add_input("extra").unwrap();
        let err = check_equivalence(&l, &r, &EquivOptions::default()).unwrap_err();
        assert!(matches!(err, EquivError::PortMismatch(_)));
        // Ignoring the extra pin makes it pass (the pin is unused).
        let opts = EquivOptions {
            ignore_inputs: vec!["extra".into()],
            ..EquivOptions::default()
        };
        assert_eq!(
            check_equivalence(&l, &r, &opts).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn fixed_inputs_model_functional_mode() {
        // right = left XOR se: equivalent only when se is pinned to 0.
        let l = and_circuit("l", GateKind::And);
        let text = "INPUT(a)\nINPUT(b)\nINPUT(se)\nOUTPUT(y)\nt = AND(a, b)\ny = XOR(t, se)\n";
        let r = parse_bench("r", text).unwrap();
        let err = check_equivalence(&l, &r, &EquivOptions::default()).unwrap_err();
        assert!(matches!(err, EquivError::PortMismatch(_)));
        let opts = EquivOptions {
            fixed_inputs: vec![("se".into(), false)],
            ..EquivOptions::default()
        };
        assert_eq!(
            check_equivalence(&l, &r, &opts).unwrap(),
            EquivResult::Equivalent
        );
        let opts = EquivOptions {
            fixed_inputs: vec![("se".into(), true)],
            ..EquivOptions::default()
        };
        assert!(matches!(
            check_equivalence(&l, &r, &opts).unwrap(),
            EquivResult::Inequivalent { .. }
        ));
    }

    #[test]
    fn equiv_session_answers_repeated_queries() {
        // right = left XOR se: the verdict flips with the pinned value of
        // `se`, all on one warm miter.
        let l = and_circuit("l", GateKind::And);
        let text = "INPUT(a)\nINPUT(b)\nINPUT(se)\nOUTPUT(y)\nt = AND(a, b)\ny = XOR(t, se)\n";
        let r = parse_bench("r", text).unwrap();
        let opts = EquivOptions {
            fixed_inputs: vec![("se".into(), false)],
            ..EquivOptions::default()
        };
        let mut sess = EquivSession::new(&l, &r, &opts).unwrap();
        assert_eq!(sess.check(), EquivResult::Equivalent);
        // Per-call override flips the verdict without re-encoding.
        assert!(matches!(
            sess.check_with(&[("se".into(), true)]).unwrap(),
            EquivResult::Inequivalent { .. }
        ));
        // Base assumptions are restored on the next plain check.
        assert_eq!(sess.check(), EquivResult::Equivalent);
        assert_eq!(sess.checks(), 3);
        let err = sess.check_with(&[("nope".into(), true)]).unwrap_err();
        assert!(matches!(err, EquivError::PortMismatch(_)));
    }

    #[test]
    fn incremental_session_lazy_cones_and_subsets() {
        // Two independent outputs: y0 = AND(a,b) on both sides, y1 = XOR
        // vs XNOR (inequivalent).
        let build = |name: &str, second: GateKind| {
            let mut nl = Netlist::new(name.to_string());
            let a = nl.add_input("a").unwrap();
            let b = nl.add_input("b").unwrap();
            let y0 = nl.add_net("y0").unwrap();
            let y1 = nl.add_net("y1").unwrap();
            nl.add_gate(GateKind::And, &[a, b], y0).unwrap();
            nl.add_gate(second, &[a, b], y1).unwrap();
            nl.mark_output(y0);
            nl.mark_output(y1);
            nl
        };
        let l = build("l", GateKind::Xor);
        let r = build("r", GateKind::Xnor);
        let mut inc = EquivSession::new(&l, &r, &EquivOptions::default()).unwrap();
        assert_eq!(inc.outputs(), 2);
        assert_eq!(inc.encoded_outputs(), 0);
        // Output 0 alone: equivalent, and only its cone was encoded.
        assert_eq!(
            inc.check_outputs(&[0], &[]).unwrap(),
            EquivResult::Equivalent
        );
        assert_eq!(inc.encoded_outputs(), 1);
        // Output 1 alone: inequivalent.
        assert!(matches!(
            inc.check_outputs(&[1], &[]).unwrap(),
            EquivResult::Inequivalent { .. }
        ));
        assert_eq!(inc.encoded_outputs(), 2);
        // Full check still inequivalent; subset guard for {0} is memoized
        // (repeat query adds no clause, just re-assumes the guard).
        assert!(matches!(inc.check(), EquivResult::Inequivalent { .. }));
        let before = inc.checks();
        assert_eq!(
            inc.check_outputs(&[0], &[]).unwrap(),
            EquivResult::Equivalent
        );
        assert_eq!(inc.checks(), before + 1);
        // Empty subset is vacuously equivalent without a solve.
        assert_eq!(
            inc.check_outputs(&[], &[]).unwrap(),
            EquivResult::Equivalent
        );
        assert_eq!(inc.checks(), before + 1);
        // Out-of-range index is a port error.
        assert!(matches!(
            inc.check_outputs(&[7], &[]),
            Err(EquivError::PortMismatch(_))
        ));
    }

    #[test]
    fn incremental_session_layers_fixed_inputs() {
        // right = left XOR se, key-style: pin `se` per call.
        let l = and_circuit("l", GateKind::And);
        let text = "INPUT(a)\nINPUT(b)\nINPUT(se)\nOUTPUT(y)\nt = AND(a, b)\ny = XOR(t, se)\n";
        let r = parse_bench("r", text).unwrap();
        let opts = EquivOptions {
            fixed_inputs: vec![("se".into(), false)],
            ..EquivOptions::default()
        };
        let mut inc = EquivSession::new(&l, &r, &opts).unwrap();
        assert_eq!(inc.check(), EquivResult::Equivalent);
        assert!(matches!(
            inc.check_with(&[("se".into(), true)]).unwrap(),
            EquivResult::Inequivalent { .. }
        ));
        assert_eq!(inc.check(), EquivResult::Equivalent);
        assert!(matches!(
            inc.check_outputs(&[0], &[("nope".into(), true)]),
            Err(EquivError::PortMismatch(_))
        ));
    }

    #[test]
    fn sequential_netlist_is_rejected_at_construction() {
        let l = and_circuit("l", GateKind::And);
        let mut r = Netlist::new("r");
        let a = r.add_input("a").unwrap();
        r.add_input("b").unwrap();
        let y = r.add_net("y").unwrap();
        r.add_gate(GateKind::Dff, &[a], y).unwrap();
        r.mark_output(y);
        let err = EquivSession::new(&l, &r, &EquivOptions::default()).unwrap_err();
        assert_eq!(err, EquivError::Encode(TseitinError::Sequential));
    }

    #[test]
    fn undriven_gate_input_is_rejected_at_construction() {
        let l = and_circuit("l", GateKind::And);
        let mut r = Netlist::new("r");
        let a = r.add_input("a").unwrap();
        r.add_input("b").unwrap();
        let floating = r.add_net("floating").unwrap();
        let y = r.add_net("y").unwrap();
        r.add_gate(GateKind::And, &[a, floating], y).unwrap();
        r.mark_output(y);
        let err = EquivSession::new(&l, &r, &EquivOptions::default()).unwrap_err();
        assert_eq!(
            err,
            EquivError::Encode(TseitinError::Undriven("floating".into()))
        );
    }

    #[test]
    fn unknown_pin_leaves_session_untouched() {
        let l = and_circuit("l", GateKind::And);
        let r = and_circuit("r", GateKind::Or);
        let mut sess = EquivSession::new(&l, &r, &EquivOptions::default()).unwrap();
        let err = sess.check_outputs(&[0], &[("nope".into(), true)]);
        assert!(matches!(err, Err(EquivError::PortMismatch(_))));
        assert_eq!(sess.encoded_outputs(), 0, "a failed check encodes nothing");
        assert_eq!(sess.checks(), 0, "a failed check never solves");
        assert!(matches!(
            sess.check_outputs(&[0], &[("a".into(), true)]).unwrap(),
            EquivResult::Inequivalent { .. }
        ));
        assert_eq!(sess.encoded_outputs(), 1);
        assert_eq!(sess.checks(), 1);
    }

    #[test]
    fn real_benchmark_is_self_equivalent() {
        let nl = generators::adder(8);
        assert_eq!(
            check_equivalence(&nl, &nl.clone(), &EquivOptions::default()).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn tiny_timeout_reports_unknown_or_answers() {
        let nl = generators::multiplier(6);
        let opts = EquivOptions {
            timeout: Some(Duration::from_nanos(1)),
            ..EquivOptions::default()
        };
        // With a 1 ns budget the solver may still finish trivially (both
        // copies identical), but must never crash or mis-answer.
        match check_equivalence(&nl, &nl.clone(), &opts).unwrap() {
            EquivResult::Equivalent | EquivResult::Unknown => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
