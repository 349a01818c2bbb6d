//! Tseitin encoding of gate-level netlists into CNF.
//!
//! Two encoders share [`encode_gate`], the clause group asserting
//! output ↔ function(inputs) for one gate:
//!
//! - [`encode_netlist_into`] and [`encode_selected`] give every net a CNF
//!   variable. They support *pinning* chosen nets to existing variables,
//!   which is how the attack builds its two key-cone copies over shared
//!   data inputs.
//! - [`HashedEncoder`] folds constants, normalises each gate and shares
//!   structurally equal gates through one hash table. The attack encodes
//!   its DIP constraints through it, and [`crate::check_equivalence`]
//!   encodes both sides of its miter through one.

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
    /// The gates form a combinational cycle through the named net.
    Cycle(String),
}

impl fmt::Display for TseitinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TseitinError::Sequential => {
                write!(f, "netlist is sequential; convert to combinational first")
            }
            TseitinError::Undriven(n) => write!(f, "net `{n}` is undriven"),
            TseitinError::Cycle(n) => write!(f, "combinational cycle through net `{n}`"),
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

/// The hashed circuit encoder: gate normalisation, constant folding and
/// one structural hash table over the literals of one sink.
///
/// Each gate is first simplified over literals: constants vanish,
/// duplicate inputs collapse, a complementary pair decides the gate, XOR
/// inputs are normalised to parity, and MUX and LUT2 gates reduce through
/// their truth table over their distinct inputs. What remains is a literal
/// or an AND, XOR or MUX over normalised literals, and it is looked up in
/// the table; only a miss allocates a variable and writes its Tseitin
/// definition.
///
/// A definition only names a fresh variable as a function of earlier
/// literals, so it constrains nothing else, and any later gate with the
/// same normal form may share it — whichever circuit it belongs to, as
/// long as it goes into the same sink. Two circuits encoded from the same
/// input literals therefore merge wherever they agree structurally after
/// folding: a host encoded twice maps each output pair to one literal,
/// and a lock whose key inputs are the constants of its correct key folds
/// its key logic back onto the host's gates (Kuehlmann et al., "Robust
/// Boolean Reasoning for Equivalence Checking and Functional Property
/// Verification", IEEE TCAD 2002).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ril_sat::{Cnf, HashedEncoder};
///
/// let nl = ril_netlist::bench::c17();
/// let mut cnf = Cnf::new();
/// let mut enc = HashedEncoder::new(&mut cnf);
/// let inputs: Vec<_> = nl.inputs().iter().map(|_| cnf.new_var().positive()).collect();
/// let first = enc.encode(&mut cnf, &nl, &inputs)?;
/// let clauses = cnf.num_clauses();
/// // The second copy finds every gate in the table: no new clause.
/// assert_eq!(enc.encode(&mut cnf, &nl, &inputs)?, first);
/// assert_eq!(cnf.num_clauses(), clauses);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HashedEncoder {
    /// A literal fixed true at the root; its complement is constant false.
    truth: Lit,
    /// Every gate encoded so far, by its simplified form: the positive
    /// literal of the variable its definition names.
    table: HashMap<GateKey, Lit>,
    /// Gates written to the sink, and gates found in `table`.
    encoded: u64,
    shared: u64,
    /// Reused buffer: the simplified form of the gate being looked up.
    key: GateKey,
}

impl HashedEncoder {
    /// An encoder writing into `sink`: allocates the `truth` literal and
    /// fixes it true with a unit clause.
    pub fn new(sink: &mut impl ClauseSink) -> HashedEncoder {
        let truth = sink.new_var().positive();
        sink.add_clause([truth]);
        HashedEncoder {
            truth,
            table: HashMap::new(),
            encoded: 0,
            shared: 0,
            key: GateKey {
                kind: GateKind::And,
                ins: Vec::new(),
            },
        }
    }

    /// The literal fixed true.
    pub fn truth(&self) -> Lit {
        self.truth
    }

    /// The literal of the constant `value`: `truth` or its complement.
    pub fn constant(&self, value: bool) -> Lit {
        negate_if(self.truth, !value)
    }

    /// The literal carrying `kind(ins)`, after simplification and a
    /// structural-table lookup; a miss writes the gate's definition into
    /// `sink`. A DFF is taken as a wire: callers encode combinational
    /// logic only.
    pub fn gate(&mut self, sink: &mut impl ClauseSink, kind: GateKind, ins: &[Lit]) -> Lit {
        match simplify(kind, ins, self.truth, &mut self.key) {
            Simple::Lit(l) => l,
            Simple::Gate { negate } => {
                let out = match self.table.get(&self.key) {
                    Some(&out) => {
                        self.shared += 1;
                        out
                    }
                    None => {
                        let out = sink.new_var().positive();
                        encode_gate(sink, self.key.kind, out, &self.key.ins)
                            .expect("a table gate is an AND, XOR or MUX");
                        self.table.insert(self.key.clone(), out);
                        self.encoded += 1;
                        out
                    }
                };
                negate_if(out, negate)
            }
        }
    }

    /// Encodes `nl` gate by gate in topological order, its primary inputs
    /// carrying `inputs` (in [`Netlist::inputs`] order). Returns the
    /// literal of each output, in [`Netlist::outputs`] order; an output
    /// that nothing drives and that is no input gets a fresh variable.
    ///
    /// # Errors
    ///
    /// Returns [`TseitinError::Sequential`] if the netlist contains DFFs,
    /// [`TseitinError::Undriven`] if a used net has no driver and is not a
    /// primary input, and [`TseitinError::Cycle`] on a combinational
    /// cycle. All are found before anything is written to `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and [`Netlist::inputs`] differ in length.
    pub fn encode(
        &mut self,
        sink: &mut impl ClauseSink,
        nl: &Netlist,
        inputs: &[Lit],
    ) -> Result<Vec<Lit>, TseitinError> {
        assert_eq!(inputs.len(), nl.inputs().len(), "one literal per input");
        check_encodable(nl)?;
        let order = nl.topo_order().map_err(|e| match e {
            ril_netlist::NetlistError::CombinationalCycle(net) => TseitinError::Cycle(net),
            other => unreachable!("topological order fails only on a cycle: {other}"),
        })?;
        let mut lits: Vec<Option<Lit>> = vec![None; nl.net_count()];
        for (&net, &lit) in nl.inputs().iter().zip(inputs) {
            lits[net.index()] = Some(lit);
        }
        let mut ins = Vec::new();
        for &gid in order.iter() {
            let gate = nl.gate(gid);
            ins.clear();
            ins.extend(
                gate.inputs()
                    .iter()
                    .map(|n| lits[n.index()].expect("checked: every read net is driven")),
            );
            lits[gate.output().index()] = Some(self.gate(sink, gate.kind(), &ins));
        }
        Ok(nl
            .outputs()
            .iter()
            .map(|o| lits[o.index()].unwrap_or_else(|| sink.new_var().positive()))
            .collect())
    }

    /// Gates written to the sink so far.
    pub fn gates_encoded(&self) -> u64 {
        self.encoded
    }

    /// Gates found in the structural table so far.
    pub fn gates_shared(&self) -> u64 {
        self.shared
    }
}

/// A simplified gate: `kind` is `And`, `Xor` or `Mux`, and `ins` are its
/// normalised input literals (sorted for AND and XOR, all positive for
/// XOR, select and first data input positive for MUX). It is the key of
/// the structural hash table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GateKey {
    kind: GateKind,
    ins: Vec<Lit>,
}

/// What a gate simplifies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Simple {
    /// A literal already in the formula (`truth` or `¬truth` for a
    /// constant).
    Lit(Lit),
    /// The gate in the [`GateKey`] buffer, complemented when `negate` is
    /// set.
    Gate { negate: bool },
}

/// Simplifies `kind(ins)` over literals, `truth` being the literal fixed
/// true. Returns the equivalent literal, or leaves the normalised gate in
/// `key` (see [`GateKey`]).
fn simplify(kind: GateKind, ins: &[Lit], truth: Lit, key: &mut GateKey) -> Simple {
    let constant = |v: bool| Simple::Lit(if v { truth } else { !truth });
    match kind {
        GateKind::Buf | GateKind::Dff => Simple::Lit(ins[0]),
        GateKind::Not => Simple::Lit(!ins[0]),
        GateKind::Const0 => constant(false),
        GateKind::Const1 => constant(true),
        // De Morgan: OR(x) = ¬AND(¬x).
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let or = matches!(kind, GateKind::Or | GateKind::Nor);
            let negate = matches!(kind, GateKind::Nand | GateKind::Or);
            simplify_and(ins.iter().map(|&l| negate_if(l, or)), truth, key).negated(negate)
        }
        GateKind::Xor | GateKind::Xnor => {
            simplify_xor(ins.iter().copied(), truth, key).negated(kind == GateKind::Xnor)
        }
        GateKind::Mux | GateKind::Lut2(_) => simplify_small(kind, ins, truth, key),
    }
}

/// AND over literals: true inputs drop, a false input or a complementary
/// pair decides it, duplicates collapse.
fn simplify_and(ins: impl Iterator<Item = Lit>, truth: Lit, key: &mut GateKey) -> Simple {
    key.kind = GateKind::And;
    key.ins.clear();
    for l in ins {
        if l == !truth {
            return Simple::Lit(!truth);
        }
        if l != truth {
            key.ins.push(l);
        }
    }
    key.ins.sort_unstable();
    key.ins.dedup();
    // Sorted, `x` and `¬x` are neighbours.
    if key.ins.windows(2).any(|w| w[0].var() == w[1].var()) {
        return Simple::Lit(!truth);
    }
    match key.ins[..] {
        [] => Simple::Lit(truth),
        [l] => Simple::Lit(l),
        _ => Simple::Gate { negate: false },
    }
}

/// XOR over literals, normalised to parity: constants and complemented
/// inputs flip the output, and equal inputs cancel in pairs.
fn simplify_xor(ins: impl Iterator<Item = Lit>, truth: Lit, key: &mut GateKey) -> Simple {
    key.kind = GateKind::Xor;
    key.ins.clear();
    let mut parity = false;
    for l in ins {
        if l.var() == truth.var() {
            parity ^= l == truth;
        } else {
            parity ^= l.is_negated();
            key.ins.push(l.var().positive());
        }
    }
    key.ins.sort_unstable();
    let mut kept = 0;
    let mut i = 0;
    while i < key.ins.len() {
        if key.ins.get(i + 1) == Some(&key.ins[i]) {
            i += 2;
        } else {
            key.ins[kept] = key.ins[i];
            kept += 1;
            i += 1;
        }
    }
    key.ins.truncate(kept);
    match key.ins[..] {
        [] => Simple::Lit(negate_if(truth, !parity)),
        [l] => Simple::Lit(negate_if(l, parity)),
        _ => Simple::Gate { negate: parity },
    }
}

/// MUX and LUT2 (at most three inputs), through their truth table over
/// the distinct non-constant input variables. Three distinct variables
/// only occur in a MUX, which stays a MUX; anything smaller becomes a
/// constant, a literal, an AND or an XOR.
fn simplify_small(kind: GateKind, ins: &[Lit], truth: Lit, key: &mut GateKey) -> Simple {
    let mut vars = [truth.var(); 3];
    let mut n = 0;
    for &l in ins {
        if l.var() != truth.var() && !vars[..n].contains(&l.var()) {
            vars[n] = l.var();
            n += 1;
        }
    }
    if let [s, a, b] = *ins {
        if n == 3 {
            // `s ? b : a`, with the select and then `a` made positive.
            let (s, a, b) = if s.is_negated() {
                (!s, b, a)
            } else {
                (s, a, b)
            };
            let negate = a.is_negated();
            key.kind = GateKind::Mux;
            key.ins.clear();
            key.ins
                .extend([s, negate_if(a, negate), negate_if(b, negate)]);
            return Simple::Gate { negate };
        }
    }
    // Bit `m` of `tt`: the gate when variable `i` takes bit `i` of `m`.
    let mut tt = 0u8;
    let mut bits = [false; 3];
    for m in 0..1u8 << n {
        for (bit, &l) in bits.iter_mut().zip(ins) {
            *bit = match vars[..n].iter().position(|&v| v == l.var()) {
                Some(i) => ((m >> i) & 1 == 1) != l.is_negated(),
                None => l == truth,
            };
        }
        if kind.eval_bits(&bits[..ins.len()]) {
            tt |= 1 << m;
        }
    }
    from_table(tt, &vars[..n], truth, key)
}

/// The function with truth table `tt` over at most two variables (see
/// [`simplify_small`]).
fn from_table(tt: u8, vars: &[Var], truth: Lit, key: &mut GateKey) -> Simple {
    match *vars {
        [] => Simple::Lit(negate_if(truth, tt & 1 == 0)),
        [x] => match tt & 0b11 {
            0b00 => Simple::Lit(!truth),
            0b11 => Simple::Lit(truth),
            0b10 => Simple::Lit(x.positive()),
            _ => Simple::Lit(x.negative()),
        },
        [x, y] => {
            // A variable the table ignores is projected out.
            if (tt ^ (tt >> 2)) & 0b0011 == 0 {
                return from_table(tt & 0b11, &[x], truth, key);
            }
            if (tt ^ (tt >> 1)) & 0b0101 == 0 {
                return from_table((tt & 1) | ((tt >> 1) & 0b10), &[y], truth, key);
            }
            // The literals true in row `m`.
            let row = |m: u32| [x.lit(m & 1 == 0), y.lit(m & 2 == 0)].into_iter();
            match tt.count_ones() {
                1 => simplify_and(row(tt.trailing_zeros()), truth, key),
                3 => simplify_and(row((!tt & 0b1111).trailing_zeros()), truth, key).negated(true),
                // Two rows, and both variables matter: XOR or XNOR.
                _ => simplify_xor([x.positive(), y.positive()].into_iter(), truth, key)
                    .negated(tt & 1 == 1),
            }
        }
        _ => unreachable!("more than two variables reach the table only in a MUX"),
    }
}

impl Simple {
    fn negated(self, negate: bool) -> Simple {
        match self {
            Simple::Lit(l) => Simple::Lit(negate_if(l, negate)),
            Simple::Gate { negate: n } => Simple::Gate {
                negate: n != negate,
            },
        }
    }
}

/// `¬l` when `negate` is set, else `l`.
fn negate_if(l: Lit, negate: bool) -> Lit {
    if negate {
        !l
    } else {
        l
    }
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

    #[test]
    fn every_benchmark_host_encodes_onto_itself() {
        // Two copies of each host (full-scan view) from shared input
        // literals through one encoder: the second copy finds every gate
        // in the table, so each output pair is one literal and the
        // self-miter needs no search.
        for name in [
            "c17", "c7552", "b15", "s35932", "s38584", "b20", "aes", "sha256", "md5", "gps",
        ] {
            let mut nl = generators::benchmark(name).unwrap();
            nl.to_combinational();
            let mut cnf = Cnf::new();
            let mut encoder = HashedEncoder::new(&mut cnf);
            let inputs: Vec<Lit> = nl
                .inputs()
                .iter()
                .map(|_| cnf.new_var().positive())
                .collect();
            let first = encoder.encode(&mut cnf, &nl, &inputs).unwrap();
            let (vars, encoded) = (cnf.num_vars(), encoder.gates_encoded());
            let second = encoder.encode(&mut cnf, &nl, &inputs).unwrap();
            assert_eq!(first, second, "{name}");
            assert_eq!(cnf.num_vars(), vars, "{name}: the second copy allocated");
            assert_eq!(encoder.gates_encoded(), encoded, "{name}");
        }
    }

    #[test]
    fn hashed_encoding_matches_simulation() {
        // c17 and a 4-bit adder, one pattern at a time: the encoded
        // outputs under the pattern's input assumptions are exactly the
        // simulated ones.
        for nl in [ril_netlist::bench::c17(), generators::adder(4)] {
            let mut cnf = Cnf::new();
            let mut encoder = HashedEncoder::new(&mut cnf);
            let inputs: Vec<Lit> = nl
                .inputs()
                .iter()
                .map(|_| cnf.new_var().positive())
                .collect();
            let outputs = encoder.encode(&mut cnf, &nl, &inputs).unwrap();
            let mut sim = CompiledSim::new(&nl).unwrap();
            let n = nl.inputs().len();
            for pattern in 0u64..(1 << n) {
                let bits: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
                let assumptions: Vec<Lit> = inputs
                    .iter()
                    .zip(&bits)
                    .map(|(&l, &b)| if b { l } else { !l })
                    .collect();
                let mut solver = Solver::from_cnf(&cnf);
                assert_eq!(solver.solve_with_assumptions(&assumptions), Outcome::Sat);
                let got: Vec<bool> = outputs
                    .iter()
                    .map(|l| solver.model()[l.var().index()] == l.target())
                    .collect();
                assert_eq!(got, sim.eval_bits(&bits), "pattern {pattern:b}");
            }
        }
    }

    #[test]
    fn a_combinational_cycle_is_an_encode_error() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a").unwrap();
        let x = nl.add_net("x").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::And, &[a, y], x).unwrap();
        nl.add_gate(GateKind::Not, &[x], y).unwrap();
        nl.mark_output(y);
        let mut cnf = Cnf::new();
        let mut encoder = HashedEncoder::new(&mut cnf);
        let a_lit = cnf.new_var().positive();
        let clauses = cnf.num_clauses();
        assert!(matches!(
            encoder.encode(&mut cnf, &nl, &[a_lit]),
            Err(TseitinError::Cycle(_))
        ));
        assert_eq!(cnf.num_clauses(), clauses, "nothing written");
    }

    #[test]
    fn simplify_is_exact_for_every_gate_kind() {
        // Every kind at every arity up to 3, each input drawn from the two
        // constants and both polarities of three variables (so literals,
        // complements, repeats and complementary pairs all occur): the
        // simplified form must agree with `eval_bits` on every assignment
        // and be in normal form.
        let truth = Var::new(0).positive();
        let choices: Vec<Lit> = [truth, !truth]
            .into_iter()
            .chain((1..=3).flat_map(|v| [Var::new(v).positive(), Var::new(v).negative()]))
            .collect();
        let kinds = GateKind::BASIC
            .into_iter()
            .chain((0u8..16).map(GateKind::Lut2));
        let mut key = GateKey {
            kind: GateKind::And,
            ins: Vec::new(),
        };
        let mut checked = 0;
        for kind in kinds {
            for arity in (0..=3).filter(|&n| kind.accepts_arity(n)) {
                for m in 0..choices.len().pow(arity as u32) {
                    let ins: Vec<Lit> = (0..arity)
                        .map(|i| choices[m / choices.len().pow(i as u32) % choices.len()])
                        .collect();
                    let simple = simplify(kind, &ins, truth, &mut key);
                    if let Simple::Gate { .. } = simple {
                        assert_normal_form(&key, truth);
                    }
                    for assignment in 0u8..8 {
                        let value = |l: Lit| {
                            let v = l.var().index();
                            (v == 0 || (assignment >> (v - 1)) & 1 == 1) != l.is_negated()
                        };
                        let bits: Vec<bool> = ins.iter().map(|&l| value(l)).collect();
                        let got = match simple {
                            Simple::Lit(l) => value(l),
                            Simple::Gate { negate } => {
                                let v: Vec<bool> = key.ins.iter().map(|&l| value(l)).collect();
                                negate != key.kind.eval_bits(&v)
                            }
                        };
                        assert_eq!(
                            got,
                            kind.eval_bits(&bits),
                            "{kind:?}{ins:?} simplified to {simple:?} {key:?}"
                        );
                    }
                    checked += 1;
                }
            }
        }
        // n-ary kinds at arity 1-3, Buf/Not/Dff, Mux, constants, 16 LUTs.
        assert_eq!(checked, 6 * (8 + 64 + 512) + 3 * 8 + 512 + 2 + 16 * 64);
    }

    /// The invariants the structural table relies on: no constant input,
    /// AND inputs sorted without repeats or complementary pairs, XOR inputs
    /// positive and sorted without repeats, MUX over three distinct
    /// variables with a positive select and first data input.
    fn assert_normal_form(key: &GateKey, truth: Lit) {
        assert!(key.ins.iter().all(|l| l.var() != truth.var()), "{key:?}");
        let strictly_sorted_vars = key.ins.windows(2).all(|w| w[0].var() < w[1].var());
        match key.kind {
            GateKind::And => assert!(key.ins.len() >= 2 && strictly_sorted_vars, "{key:?}"),
            GateKind::Xor => assert!(
                key.ins.len() >= 2
                    && strictly_sorted_vars
                    && key.ins.iter().all(|l| !l.is_negated()),
                "{key:?}"
            ),
            GateKind::Mux => {
                let [s, a, b] = key.ins[..] else {
                    panic!("{key:?}")
                };
                assert!(s.var() != a.var() && s.var() != b.var() && a.var() != b.var());
                assert!(!s.is_negated() && !a.is_negated(), "{key:?}");
            }
            other => panic!("{other:?} is not a table kind"),
        }
    }
}
