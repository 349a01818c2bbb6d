//! SAT-based combinational equivalence checking.
//!
//! Builds the classic miter between two netlists matched by port *names*
//! and asks the CDCL solver whether any input makes the outputs differ —
//! the formal upgrade of random-pattern verification, used by the locking
//! flow to certify `locked(correct key) ≡ original` and by the removal
//! attack to certify its salvage.
//!
//! Both sides go through one [`HashedEncoder`] over shared input literals,
//! and every fixed input is a constant, so the encoder folds it away. Logic
//! the two sides share structurally merges into one literal, and its
//! output pair's difference folds to constant false: a host checked
//! against itself, or a lock under its correct key checked against its
//! host, leaves the solver nothing to search.

use crate::lit::Lit;
use crate::solver::{Budget, Outcome, Solver};
use crate::tseitin::{HashedEncoder, TseitinError};
use ril_netlist::{GateKind, Netlist};
use std::collections::HashMap;
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
    /// Wall-clock budget for the solve, applied through
    /// [`Budget::from_timeout`].
    pub timeout: Option<Duration>,
    /// Inputs of either circuit that are allowed to be missing from the
    /// other; they are treated as free (universally quantified) on their
    /// own side. Useful for ignoring scan/test pins.
    pub ignore_inputs: Vec<String>,
    /// Per-input fixed values (by name), e.g. `SE = 0` for functional-mode
    /// checks of scan-obfuscated designs, or a lock's key bits. A fixed
    /// input may be missing from one side; each name must match an input
    /// of at least one.
    pub fixed_inputs: Vec<(String, bool)>,
    /// Pair outputs by position instead of by name. Netlist surgery
    /// (removal/bypass, resynthesis) often re-drives an output from a net
    /// with a different name while preserving output order; positional
    /// matching lets such circuits still be checked. Output *counts* must
    /// agree.
    pub match_outputs_by_position: bool,
}

/// The miter's ports: output pairs as positions in each side's
/// [`Netlist::outputs`], each side's input literals in
/// [`Netlist::inputs`] order, and the inputs matched by name, which a
/// counterexample reports in the left side's order.
struct MiterPorts {
    out_pairs: Vec<(usize, usize)>,
    left_inputs: Vec<Lit>,
    right_inputs: Vec<Lit>,
    shared: Vec<Lit>,
}

/// Matches outputs (by name, or by position on request) and inputs (by
/// name) of `left` vs `right`. A matched input gets one variable in
/// `solver` shared by both sides, a fixed input the encoder's constant,
/// and an ignored one a free variable on its own side. Inputs present on
/// only one side must be ignored or fixed by `options`.
fn match_ports(
    solver: &mut Solver,
    encoder: &HashedEncoder,
    left: &Netlist,
    right: &Netlist,
    options: &EquivOptions,
) -> Result<MiterPorts, EquivError> {
    let positions = |nl: &Netlist, nets: &[ril_netlist::NetId]| -> HashMap<String, usize> {
        nets.iter()
            .enumerate()
            .map(|(i, &n)| (nl.net(n).name().to_string(), i))
            .collect()
    };

    // --- Match outputs (by name, or by position on request) --------------
    let out_pairs: Vec<(usize, usize)> = if options.match_outputs_by_position {
        if left.outputs().len() != right.outputs().len() {
            return Err(EquivError::PortMismatch(format!(
                "output counts differ: {} vs {}",
                left.outputs().len(),
                right.outputs().len()
            )));
        }
        (0..left.outputs().len()).map(|i| (i, i)).collect()
    } else {
        let mut right_outputs = positions(right, right.outputs());
        let mut pairs = Vec::with_capacity(left.outputs().len());
        for (i, &o) in left.outputs().iter().enumerate() {
            let name = left.net(o).name();
            match right_outputs.remove(name) {
                Some(j) => pairs.push((i, j)),
                None => {
                    return Err(EquivError::PortMismatch(format!(
                        "output `{name}` missing on the right"
                    )))
                }
            }
        }
        if let Some(name) = right_outputs.keys().min() {
            return Err(EquivError::PortMismatch(format!(
                "output `{name}` missing on the left"
            )));
        }
        pairs
    };

    // --- Match inputs by name --------------------------------------------
    let left_pos = positions(left, left.inputs());
    let right_pos = positions(right, right.inputs());
    let mut fixed: HashMap<&str, Lit> = HashMap::new();
    for (name, value) in &options.fixed_inputs {
        if !left_pos.contains_key(name) && !right_pos.contains_key(name) {
            return Err(EquivError::PortMismatch(format!(
                "fixed input `{name}` is an input of neither circuit"
            )));
        }
        fixed.insert(name, encoder.constant(*value));
    }
    let ignored = |name: &str| options.ignore_inputs.iter().any(|n| n == name);
    let mut shared = Vec::new();
    let mut left_inputs = Vec::with_capacity(left.inputs().len());
    let mut right_inputs: Vec<Option<Lit>> = vec![None; right.inputs().len()];
    for &li in left.inputs() {
        let name = left.net(li).name();
        let lit = match fixed.get(name) {
            Some(&c) => c,
            None => solver.new_var().positive(),
        };
        match right_pos.get(name) {
            Some(&r) => {
                right_inputs[r] = Some(lit);
                shared.push(lit);
            }
            None if ignored(name) || fixed.contains_key(name) => {}
            None => {
                return Err(EquivError::PortMismatch(format!(
                    "input `{name}` missing on the right (ignore or fix it)"
                )))
            }
        }
        left_inputs.push(lit);
    }
    let mut right_lits = Vec::with_capacity(right_inputs.len());
    for (&ri, lit) in right.inputs().iter().zip(right_inputs) {
        let name = right.net(ri).name();
        right_lits.push(match (lit, fixed.get(name)) {
            (Some(lit), _) => lit,
            (None, Some(&c)) => c,
            (None, None) if ignored(name) => solver.new_var().positive(),
            (None, None) => {
                return Err(EquivError::PortMismatch(format!(
                    "input `{name}` missing on the left (ignore or fix it)"
                )))
            }
        });
    }

    Ok(MiterPorts {
        out_pairs,
        left_inputs,
        right_inputs: right_lits,
        shared,
    })
}

/// Checks combinational equivalence of `left` and `right`, matching inputs
/// and outputs by name.
///
/// Inputs present in only one circuit must be listed in
/// [`EquivOptions::ignore_inputs`] or pinned in
/// [`EquivOptions::fixed_inputs`]; outputs must match exactly by name
/// (or, on request, by position). Both sides are encoded through one
/// [`HashedEncoder`] into one fresh [`Solver`], with the fixed inputs as
/// constants. Each output pair's XOR goes through the encoder too, and one
/// clause asks for any of them; one solve, bounded by
/// [`EquivOptions::timeout`], answers it.
///
/// # Errors
///
/// Returns [`EquivError::PortMismatch`] on name mismatches or a fixed
/// input that names no input, and [`EquivError::Encode`] if either
/// netlist has a DFF, an undriven used net or a combinational cycle.
///
/// # Examples
///
/// ```
/// use ril_netlist::generators;
/// use ril_sat::{check_equivalence, EquivOptions, EquivResult};
///
/// let nl = generators::adder(4);
/// let verdict = check_equivalence(&nl, &nl.clone(), &EquivOptions::default()).unwrap();
/// assert_eq!(verdict, EquivResult::Equivalent);
/// ```
pub fn check_equivalence(
    left: &Netlist,
    right: &Netlist,
    options: &EquivOptions,
) -> Result<EquivResult, EquivError> {
    let mut solver = Solver::new();
    let mut encoder = HashedEncoder::new(&mut solver);
    let ports = match_ports(&mut solver, &encoder, left, right, options)?;
    let left_outputs = encoder.encode(&mut solver, left, &ports.left_inputs)?;
    let right_outputs = encoder.encode(&mut solver, right, &ports.right_inputs)?;
    let differ: Vec<Lit> = ports
        .out_pairs
        .iter()
        .map(|&(l, r)| {
            encoder.gate(
                &mut solver,
                GateKind::Xor,
                &[left_outputs[l], right_outputs[r]],
            )
        })
        .collect();
    solver.add_clause(differ);
    solver.set_budget(Budget::from_timeout(options.timeout));
    Ok(match solver.solve() {
        Outcome::Unsat => EquivResult::Equivalent,
        Outcome::Unknown => EquivResult::Unknown,
        Outcome::Sat => {
            let model = solver.model();
            EquivResult::Inequivalent {
                counterexample: ports
                    .shared
                    .iter()
                    .map(|l| model[l.var().index()] == l.target())
                    .collect(),
            }
        }
    })
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
    fn sequential_netlist_is_rejected_at_construction() {
        let l = and_circuit("l", GateKind::And);
        let mut r = Netlist::new("r");
        let a = r.add_input("a").unwrap();
        r.add_input("b").unwrap();
        let y = r.add_net("y").unwrap();
        r.add_gate(GateKind::Dff, &[a], y).unwrap();
        r.mark_output(y);
        let err = check_equivalence(&l, &r, &EquivOptions::default()).unwrap_err();
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
        let err = check_equivalence(&l, &r, &EquivOptions::default()).unwrap_err();
        assert_eq!(
            err,
            EquivError::Encode(TseitinError::Undriven("floating".into()))
        );
    }

    #[test]
    fn unknown_fixed_input_is_a_port_mismatch() {
        let l = and_circuit("l", GateKind::And);
        let r = and_circuit("r", GateKind::Or);
        let opts = EquivOptions {
            fixed_inputs: vec![("nope".into(), true)],
            ..EquivOptions::default()
        };
        assert!(matches!(
            check_equivalence(&l, &r, &opts),
            Err(EquivError::PortMismatch(_))
        ));
        // A known name pins that input on both sides: AND(1, b) ≠ OR(1, b)
        // exactly when b = 0, and the counterexample carries the pin.
        let opts = EquivOptions {
            fixed_inputs: vec![("a".into(), true)],
            ..EquivOptions::default()
        };
        assert_eq!(
            check_equivalence(&l, &r, &opts).unwrap(),
            EquivResult::Inequivalent {
                counterexample: vec![true, false]
            }
        );
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
