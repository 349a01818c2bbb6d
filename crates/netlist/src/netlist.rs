//! Arena-based gate-level netlist with structural editing.
//!
//! A [`Netlist`] owns a set of named nets and a set of gates. Each net has at
//! most one driver (a gate or a primary input); gates reference nets by
//! [`NetId`]. Key inputs (the obfuscation key bits of a locked circuit) are
//! ordinary primary inputs carrying an extra flag, kept in a stable order so
//! attack code can index key bits deterministically.

#![deny(clippy::iter_over_hash_type)]

use crate::analysis::{AnalysisCache, FanoutTable, KeyAnalysis, LevelMap};
use crate::gate::GateKind;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifier of a net within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// The raw index of this net in the netlist arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The raw index of this gate in the netlist arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A named wire.
#[derive(Debug, Clone)]
pub struct Net {
    name: String,
    driver: Option<GateId>,
}

impl Net {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate driving this net, if any. Primary inputs and dangling nets
    /// have no driver.
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }
}

/// A logic gate instance.
#[derive(Debug, Clone)]
pub struct Gate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Gate {
    /// The gate's kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gate's input nets, in positional order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net driven by this gate.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// Errors produced by netlist construction and editing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net with this name already exists.
    DuplicateNet(String),
    /// No net with this name exists.
    UnknownNet(String),
    /// The gate kind does not accept the given number of inputs.
    BadArity {
        /// Offending gate kind.
        kind: GateKind,
        /// Number of inputs supplied.
        got: usize,
    },
    /// The target net already has a driver.
    MultipleDrivers(String),
    /// The netlist contains a combinational cycle through the named net.
    CombinationalCycle(String),
    /// A non-input net has no driver.
    UndrivenNet(String),
    /// A referenced id is out of range or removed.
    InvalidId(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateNet(n) => write!(f, "duplicate net name `{n}`"),
            NetlistError::UnknownNet(n) => write!(f, "unknown net `{n}`"),
            NetlistError::BadArity { kind, got } => {
                write!(f, "gate {kind} does not accept {got} inputs")
            }
            NetlistError::MultipleDrivers(n) => write!(f, "net `{n}` already has a driver"),
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net `{n}`")
            }
            NetlistError::UndrivenNet(n) => {
                write!(f, "net `{n}` has no driver and is not an input")
            }
            NetlistError::InvalidId(s) => write!(f, "invalid id: {s}"),
        }
    }
}

impl Error for NetlistError {}

/// Summary statistics of a netlist (see [`Netlist::stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Live gate count.
    pub gates: usize,
    /// Net count (including dangling nets).
    pub nets: usize,
    /// Primary input count (including key inputs).
    pub inputs: usize,
    /// Key input count.
    pub key_inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Number of DFF gates.
    pub dffs: usize,
    /// Longest combinational path in gate levels (0 for an empty netlist).
    pub depth: usize,
    /// Gate count per mnemonic.
    pub by_kind: Vec<(String, usize)>,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates, {} nets, {} PI ({} key), {} PO, {} DFF, depth {}",
            self.gates,
            self.nets,
            self.inputs,
            self.key_inputs,
            self.outputs,
            self.dffs,
            self.depth
        )
    }
}

/// A gate-level netlist.
///
/// # Examples
///
/// Build a tiny circuit `y = (a AND b) XOR c` and evaluate it:
///
/// ```
/// use ril_netlist::{Netlist, GateKind};
///
/// # fn main() -> Result<(), ril_netlist::NetlistError> {
/// let mut nl = Netlist::new("tiny");
/// let a = nl.add_input("a")?;
/// let b = nl.add_input("b")?;
/// let c = nl.add_input("c")?;
/// let t = nl.add_net("t")?;
/// let y = nl.add_net("y")?;
/// nl.add_gate(GateKind::And, &[a, b], t)?;
/// nl.add_gate(GateKind::Xor, &[t, c], y)?;
/// nl.mark_output(y);
/// assert_eq!(nl.stats().gates, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Option<Gate>>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    key_inputs: Vec<NetId>,
    names: HashMap<String, NetId>,
    fresh_counter: u64,
    generation: u64,
    cache: AnalysisCache,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            key_inputs: Vec::new(),
            names: HashMap::new(),
            fresh_counter: 0,
            generation: 0,
            cache: AnalysisCache::default(),
        }
    }

    /// The structural generation counter: bumped by every mutating edit, so
    /// holders of derived artifacts (SAT encodings, compiled simulators,
    /// attack miters) can detect staleness with one integer compare.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The embedded analysis cache (diagnostic / test hook).
    pub fn analysis(&self) -> &AnalysisCache {
        &self.cache
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a new dangling net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if the name is taken.
    pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let name = name.into();
        if self.names.contains_key(&name) {
            return Err(NetlistError::DuplicateNet(name));
        }
        let id = NetId(self.nets.len() as u32);
        self.names.insert(name.clone(), id);
        self.nets.push(Net { name, driver: None });
        self.generation += 1;
        self.cache.note_net_added();
        Ok(id)
    }

    /// Adds a new net with a guaranteed-unique generated name starting with
    /// `prefix`.
    pub fn fresh_net(&mut self, prefix: &str) -> NetId {
        loop {
            let name = format!("{prefix}_{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.names.contains_key(&name) {
                return self.add_net(name).expect("fresh name is unique");
            }
        }
    }

    /// Adds a primary input net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let id = self.add_net(name)?;
        self.inputs.push(id);
        self.generation += 1;
        self.cache.note_input_added();
        Ok(id)
    }

    /// Adds a key input net (a primary input flagged as an obfuscation key
    /// bit). Key bit indices follow insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if the name is taken.
    pub fn add_key_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let id = self.add_input(name)?;
        self.key_inputs.push(id);
        self.generation += 1;
        self.cache.note_key_input_added();
        Ok(id)
    }

    /// Marks a net as a primary output. A net may be marked more than once;
    /// duplicates are ignored.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
            self.generation += 1;
            self.cache.note_output_marked();
        }
    }

    /// Adds a gate driving the (previously dangling) net `output`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the input count is illegal for
    /// `kind`, or [`NetlistError::MultipleDrivers`] if `output` is already
    /// driven or is a primary input.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateId, NetlistError> {
        if !kind.accepts_arity(inputs.len()) {
            return Err(NetlistError::BadArity {
                kind,
                got: inputs.len(),
            });
        }
        if self.nets[output.index()].driver.is_some() || self.inputs.contains(&output) {
            return Err(NetlistError::MultipleDrivers(
                self.nets[output.index()].name.clone(),
            ));
        }
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Some(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        }));
        self.nets[output.index()].driver = Some(id);
        self.generation += 1;
        self.cache.note_gate_added(id, inputs);
        Ok(id)
    }

    /// Convenience: creates a fresh net and a gate driving it, returning the
    /// output net id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the input count is illegal.
    pub fn add_gate_fresh(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        prefix: &str,
    ) -> Result<NetId, NetlistError> {
        let out = self.fresh_net(prefix);
        self.add_gate(kind, inputs, out)?;
        Ok(out)
    }

    /// Accesses a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a net by name.
    pub fn net_id(&self, name: &str) -> Option<NetId> {
        self.names.get(name).copied()
    }

    /// Accesses a live gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the gate was removed.
    pub fn gate(&self, id: GateId) -> &Gate {
        self.gates[id.index()].as_ref().expect("gate was removed")
    }

    /// Iterates over live gates.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (GateId(i as u32), g)))
    }

    /// Iterates over all nets.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> + '_ {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Primary inputs in declaration order (key inputs included).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Key inputs in declaration order (key bit index order).
    pub fn key_inputs(&self) -> &[NetId] {
        &self.key_inputs
    }

    /// Primary inputs that are not key inputs, in declaration order.
    pub fn data_inputs(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .copied()
            .filter(|n| !self.key_inputs.contains(n))
            .collect()
    }

    /// Returns `true` if `net` is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        self.inputs.contains(&net)
    }

    /// Returns `true` if `net` is a key input.
    pub fn is_key_input(&self, net: NetId) -> bool {
        self.key_inputs.contains(&net)
    }

    /// Number of live gates.
    pub fn gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_some()).count()
    }

    /// Number of nets (including dangling ones).
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Removes a gate, leaving its output net undriven. Returns the removed
    /// gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate is already removed or out of range.
    pub fn remove_gate(&mut self, id: GateId) -> Gate {
        let gate = self.gates[id.index()].take().expect("gate already removed");
        self.nets[gate.output.index()].driver = None;
        self.generation += 1;
        self.cache.note_gate_removed(id, &gate.inputs);
        gate
    }

    /// Redirects every consumer of `old` (gate fan-ins and the primary output
    /// list) to `new`. The driver of `old` is untouched. Returns the number
    /// of redirected references.
    pub fn redirect_consumers(&mut self, old: NetId, new: NetId) -> usize {
        let mut changed = 0;
        for (i, gate) in self.gates.iter_mut().enumerate() {
            let Some(gate) = gate else { continue };
            let mut moved = 0;
            for inp in &mut gate.inputs {
                if *inp == old {
                    *inp = new;
                    moved += 1;
                }
            }
            if moved > 0 {
                self.cache
                    .note_fanin_moved(GateId(i as u32), old, new, moved);
                changed += moved;
            }
        }
        let mut outputs_moved = false;
        for out in &mut self.outputs {
            if *out == old {
                *out = new;
                changed += 1;
                outputs_moved = true;
            }
        }
        if outputs_moved {
            self.cache.note_output_marked();
        }
        if changed > 0 {
            self.generation += 1;
        }
        changed
    }

    /// Changes the kind of a live gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the existing fan-in count is
    /// illegal for the new kind, or [`NetlistError::InvalidId`] if the gate
    /// is removed/out of range.
    pub fn set_gate_kind(&mut self, id: GateId, kind: GateKind) -> Result<(), NetlistError> {
        let gate = self
            .gates
            .get_mut(id.index())
            .and_then(|g| g.as_mut())
            .ok_or_else(|| NetlistError::InvalidId(format!("{id}")))?;
        if !kind.accepts_arity(gate.inputs.len()) {
            return Err(NetlistError::BadArity {
                kind,
                got: gate.inputs.len(),
            });
        }
        gate.kind = kind;
        self.generation += 1;
        self.cache.note_kind_changed();
        Ok(())
    }

    /// The cached net → consuming-gates table, built on first use and
    /// maintained incrementally across edits (cheap `Arc` clone afterwards).
    pub fn fanout(&self) -> Arc<FanoutTable> {
        self.cache.fanout(self)
    }

    /// Computes a topological order of the live gates (inputs before
    /// consumers). DFF gates are treated as combinational nodes, so a
    /// sequential loop reports a cycle; convert with
    /// [`Netlist::to_combinational`] first for sequential designs.
    ///
    /// The order is cached between edits; every call shares it.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] naming a net on a cycle.
    pub fn topo_order(&self) -> Result<Arc<Vec<GateId>>, NetlistError> {
        self.cache.topo(self)
    }

    /// The cached per-net combinational levels (and overall depth).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is cyclic.
    pub fn levels(&self) -> Result<Arc<LevelMap>, NetlistError> {
        self.cache.levels(self)
    }

    /// A name-based structural hash, invariant under gate/arena reordering
    /// but sensitive to connectivity, gate functions, and port order. Cached
    /// between edits. The design name is excluded.
    pub fn structural_hash(&self) -> u64 {
        self.cache.structural_hash(self)
    }

    /// The cached key-bit structural analysis: per-bit fan-out cones.
    pub fn key_analysis(&self) -> Arc<KeyAnalysis> {
        self.cache.keys(self)
    }

    /// Length of the gate arena including removed slots (for dense
    /// id-indexed scratch tables).
    pub(crate) fn gate_arena_len(&self) -> usize {
        self.gates.len()
    }

    /// Validates structural invariants: legal arities, single drivers, every
    /// net reachable from an output is driven or a primary input, and no
    /// combinational cycles.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (_, gate) in self.gates() {
            if !gate.kind().accepts_arity(gate.inputs().len()) {
                return Err(NetlistError::BadArity {
                    kind: gate.kind(),
                    got: gate.inputs().len(),
                });
            }
            for &inp in gate.inputs() {
                if self.nets[inp.index()].driver.is_none() && !self.inputs.contains(&inp) {
                    return Err(NetlistError::UndrivenNet(
                        self.nets[inp.index()].name.clone(),
                    ));
                }
            }
        }
        for &out in &self.outputs {
            if self.nets[out.index()].driver.is_none() && !self.inputs.contains(&out) {
                return Err(NetlistError::UndrivenNet(
                    self.nets[out.index()].name.clone(),
                ));
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Converts a sequential netlist to its combinational view under the
    /// full-scan threat model: each DFF is removed, its output net becomes a
    /// pseudo primary input and its data input becomes a pseudo primary
    /// output. Returns the number of converted flip-flops.
    ///
    /// This mirrors how oracle-guided attacks (and the paper's SAT
    /// experiments) treat scan-accessible state.
    pub fn to_combinational(&mut self) -> usize {
        let dffs: Vec<GateId> = self
            .gates()
            .filter(|(_, g)| g.kind() == GateKind::Dff)
            .map(|(id, _)| id)
            .collect();
        for id in &dffs {
            let gate = self.remove_gate(*id);
            let q = gate.output();
            let d = gate.inputs()[0];
            if !self.inputs.contains(&q) {
                self.inputs.push(q);
                self.generation += 1;
                self.cache.note_input_added();
            }
            self.mark_output(d);
        }
        dffs.len()
    }

    /// Longest combinational path length in gate levels.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is cyclic.
    pub fn depth(&self) -> Result<usize, NetlistError> {
        Ok(self.levels()?.depth())
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        let mut dffs = 0;
        for (_, gate) in self.gates() {
            *by_kind
                .entry(gate.kind().mnemonic().to_string())
                .or_insert(0) += 1;
            if gate.kind() == GateKind::Dff {
                dffs += 1;
            }
        }
        let by_kind: Vec<(String, usize)> = by_kind.into_iter().collect();
        NetlistStats {
            gates: self.gate_count(),
            nets: self.net_count(),
            inputs: self.inputs.len(),
            key_inputs: self.key_inputs.len(),
            outputs: self.outputs.len(),
            dffs,
            depth: self.depth().unwrap_or(0),
            by_kind,
        }
    }

    /// Total transistor-count estimate of the design (overhead model,
    /// paper Section IV-E).
    pub fn transistor_estimate(&self) -> usize {
        self.gates()
            .map(|(_, g)| g.kind().transistor_count(g.inputs().len()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let t = nl.add_net("t").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::And, &[a, b], t).unwrap();
        nl.add_gate(GateKind::Xor, &[t, c], y).unwrap();
        nl.mark_output(y);
        nl
    }

    #[test]
    fn build_and_validate() {
        let nl = tiny();
        nl.validate().unwrap();
        let stats = nl.stats();
        assert_eq!(stats.gates, 2);
        assert_eq!(stats.inputs, 3);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.depth, 2);
    }

    #[test]
    fn duplicate_net_rejected() {
        let mut nl = Netlist::new("x");
        nl.add_net("a").unwrap();
        assert_eq!(nl.add_net("a"), Err(NetlistError::DuplicateNet("a".into())));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::Buf, &[a], y).unwrap();
        assert!(matches!(
            nl.add_gate(GateKind::Not, &[a], y),
            Err(NetlistError::MultipleDrivers(_))
        ));
        // Driving a primary input is also rejected.
        assert!(matches!(
            nl.add_gate(GateKind::Not, &[y], a),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a").unwrap();
        let y = nl.add_net("y").unwrap();
        assert_eq!(
            nl.add_gate(GateKind::Mux, &[a, a], y),
            Err(NetlistError::BadArity {
                kind: GateKind::Mux,
                got: 2
            })
        );
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = tiny();
        let order = nl.topo_order().unwrap();
        assert_eq!(order.len(), 2);
        // The AND gate (driving t) must precede the XOR gate.
        let and_pos = order
            .iter()
            .position(|&g| nl.gate(g).kind() == GateKind::And)
            .unwrap();
        let xor_pos = order
            .iter()
            .position(|&g| nl.gate(g).kind() == GateKind::Xor)
            .unwrap();
        assert!(and_pos < xor_pos);
    }

    #[test]
    fn cycle_detected() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a").unwrap();
        let x = nl.add_net("x").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::And, &[a, y], x).unwrap();
        nl.add_gate(GateKind::Buf, &[x], y).unwrap();
        assert!(matches!(
            nl.topo_order(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn remove_gate_leaves_net_undriven() {
        let mut nl = tiny();
        let and_id = nl
            .gates()
            .find(|(_, g)| g.kind() == GateKind::And)
            .map(|(id, _)| id)
            .unwrap();
        let t = nl.gate(and_id).output();
        nl.remove_gate(and_id);
        assert!(nl.net(t).driver().is_none());
        assert!(matches!(nl.validate(), Err(NetlistError::UndrivenNet(_))));
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn redirect_consumers_moves_fanout() {
        let mut nl = tiny();
        let t = nl.net_id("t").unwrap();
        let fresh = nl.add_input("t2").unwrap();
        let moved = nl.redirect_consumers(t, fresh);
        assert_eq!(moved, 1);
        nl.validate().unwrap();
        // The XOR's fan-in now references t2.
        let xor = nl
            .gates()
            .find(|(_, g)| g.kind() == GateKind::Xor)
            .map(|(_, g)| g.inputs().to_vec())
            .unwrap();
        assert!(xor.contains(&fresh));
        assert!(!xor.contains(&t));
    }

    #[test]
    fn key_inputs_are_ordered_and_flagged() {
        let mut nl = Netlist::new("k");
        let k0 = nl.add_key_input("k0").unwrap();
        let a = nl.add_input("a").unwrap();
        let k1 = nl.add_key_input("k1").unwrap();
        assert_eq!(nl.key_inputs(), &[k0, k1]);
        assert_eq!(nl.data_inputs(), vec![a]);
        assert!(nl.is_key_input(k0));
        assert!(!nl.is_key_input(a));
        assert!(nl.is_input(k0));
    }

    #[test]
    fn to_combinational_converts_dffs() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a").unwrap();
        let q = nl.add_net("q").unwrap();
        let d = nl.add_net("d").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::Xor, &[a, q], d).unwrap();
        nl.add_gate(GateKind::Dff, &[d], q).unwrap();
        nl.add_gate(GateKind::Buf, &[d], y).unwrap();
        nl.mark_output(y);
        // Sequential loop: cyclic as-is.
        assert!(nl.topo_order().is_err());
        let converted = nl.to_combinational();
        assert_eq!(converted, 1);
        nl.validate().unwrap();
        assert!(nl.inputs().contains(&q));
        assert!(nl.outputs().contains(&d));
    }

    #[test]
    fn fresh_nets_never_collide() {
        let mut nl = Netlist::new("f");
        nl.add_net("w_0").unwrap();
        let f1 = nl.fresh_net("w");
        let f2 = nl.fresh_net("w");
        assert_ne!(nl.net(f1).name(), "w_0");
        assert_ne!(f1, f2);
    }

    #[test]
    fn set_gate_kind_checks_arity() {
        let mut nl = tiny();
        let and_id = nl
            .gates()
            .find(|(_, g)| g.kind() == GateKind::And)
            .map(|(id, _)| id)
            .unwrap();
        nl.set_gate_kind(and_id, GateKind::Nor).unwrap();
        assert_eq!(nl.gate(and_id).kind(), GateKind::Nor);
        assert!(nl.set_gate_kind(and_id, GateKind::Mux).is_err());
    }

    #[test]
    fn transistor_estimate_positive() {
        assert!(tiny().transistor_estimate() > 0);
    }
}
