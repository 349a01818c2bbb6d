//! Structure-sharing miter construction — the core machinery shared by the
//! SAT attack and AppSAT.
//!
//! Published SAT-attack implementations never duplicate the whole netlist:
//! every net that does not structurally depend on a key input has the same
//! value in both miter copies (inputs are shared), so only the
//! **key-dependent cones** are encoded twice. Likewise, each DIP's I/O
//! constraint is built by *simulating* the key-free logic once and encoding
//! only the key cones against those constants. Without this, the final
//! UNSAT phase would have to prove the equivalence of two independent
//! copies of the host (hopeless for multiplier-bearing hosts); with it,
//! instance hardness comes purely from the key logic — exactly the quantity
//! the paper's tables measure.
//!
//! Each DIP copy is constant-folded before it is encoded: the simulated
//! key-free boundary values are propagated through the key cones with the
//! keys unknown (3-valued), so nets the DIP already decides are constants
//! and only the still-open remainder is encoded. The DIPs of one flushed
//! batch share a single lane-packed simulation pass, DIP *j* in lane *j*.
//!
//! A batch of DIPs costs one miter solve. Its model's two keys satisfy
//! every recorded I/O pair, so any input on which they disagree is a DIP
//! too; [`AttackInstance::dips_from_model`] finds such inputs among the
//! single-pin flips of the model's DIP by simulating both keys.
//!
//! The open remainder is encoded gate by gate, and every DIP copy reuses
//! the gates earlier copies already encoded. Each open gate is first
//! simplified over literals: constants vanish, duplicate inputs collapse,
//! a complementary pair decides the gate, XOR inputs are normalised to
//! parity, and MUX and LUT2 gates reduce through their truth table over
//! their distinct inputs. What remains is a literal or an AND, XOR or MUX
//! over normalised literals, and it is looked up in one structural hash
//! table that lives for the whole attack; only a miss allocates a
//! variable and writes its Tseitin definition.
//!
//! A definition only names a fresh variable as a function of earlier
//! literals, so it excludes no key. Definitions are therefore written
//! unguarded and kept across key generations; only the unit clauses that
//! force each key-dependent output to the oracle's response carry the
//! `¬guard` of the generation they were recorded under. Retiring a
//! generation leaves those units satisfied at the root, where the
//! solver's root simplification collects them. The definitions stay, and
//! a later DIP copy may share them.

use ril_core::SE_PIN;
use ril_netlist::{CompiledSim, GateId, GateKind, NetId, Netlist, PatternBlock, MAX_LANES};
use ril_sat::tseitin::encode_selected;
use ril_sat::{encode_gate, encode_netlist_into, Budget, Lit, Outcome, Session, Var};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The incremental state of one oracle-guided attack.
///
/// One persistent [`Session`], constructed exactly once, answers every
/// question the attack asks: each DIP's constraint is encoded straight
/// into the live solver, so learned clauses, the decision order and watch
/// lists stay warm across the whole DIP loop instead of being rebuilt per
/// iteration. The miter's difference clause is guarded by an activation
/// literal: DIP solves assume it, and key extraction solves the same
/// formula without it and reads copy 1's key variables.
pub(crate) struct AttackInstance {
    /// The miter (`C(x,k1) ≠ C(x,k2)` under `diff_on`, plus the recorded
    /// I/O on both key vectors).
    pub(crate) miter: Session,
    /// Shared data-input vars (netlist data-input order, incl. tied SE).
    pub(crate) input_vars: Vec<Var>,
    /// Copy 1's key vars: the key an extraction reads.
    pub(crate) key1: Vec<Var>,
    key2: Vec<Var>,
    /// Positions within the data inputs that are real oracle inputs.
    pub(crate) oracle_positions: Vec<usize>,
    /// The key cones, prepared once for per-DIP folding and encoding.
    dip: DipEncoder,
    /// Activation literal of the difference clause.
    diff_on: Lit,
    /// Key-generation guard. The response units of every DIP are
    /// conditioned on the guard of the oracle generation they were
    /// recorded under, so when the target morphs the stale constraints
    /// retire in O(1) — the old guard is falsified, the solver collects
    /// the now root-satisfied units, and keeps its variable pool, gate
    /// definitions, learned clauses and heuristic state.
    guard: Lit,
    /// Oracle key generation the current guard covers.
    generation: u64,
    /// DIP constraints recorded under the current generation.
    active_dips: usize,
    /// DIP constraints retired by generation bumps so far.
    retired_dips: usize,
    /// Indices into the session's solve records of the key extractions.
    extractions: Vec<usize>,
    /// The attacker view's compiled plan: each DIP's key-free values, and
    /// the model keys' outputs when a batch is filled.
    sim: CompiledSim,
}

impl AttackInstance {
    /// Builds the miter over the attacker-view netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no key inputs or is sequential.
    pub(crate) fn new(nl: &Netlist) -> AttackInstance {
        let mut span = ril_trace::span("encode_miter", ril_trace::Phase::Encode);
        assert!(!nl.key_inputs().is_empty(), "netlist carries no key inputs");
        let data_inputs = nl.data_inputs();
        let key_inputs: Vec<NetId> = nl.key_inputs().to_vec();
        let oracle_positions: Vec<usize> = data_inputs
            .iter()
            .enumerate()
            .filter(|(_, n)| nl.net(**n).name() != SE_PIN)
            .map(|(i, _)| i)
            .collect();

        // Key-dependent cones, from the netlist's cached key analysis (one
        // BFS per key bit, shared with every other consumer of the cones).
        let key_analysis = nl.key_analysis();
        let mut dependent_gates: HashSet<GateId> = HashSet::new();
        for bit in 0..key_analysis.key_bits() {
            dependent_gates.extend(key_analysis.cone(bit).iter().copied());
        }
        let dependent_nets: HashSet<NetId> = dependent_gates
            .iter()
            .map(|&g| nl.gate(g).output())
            .collect();

        // The session is constructed here, once, and the miter is encoded
        // straight into it; from now on clauses are only ever *appended*.
        let mut miter = Session::new();
        let mut new_vars = |n: usize| -> Vec<Var> { (0..n).map(|_| miter.new_var()).collect() };
        let input_vars = new_vars(data_inputs.len());
        let key1 = new_vars(key_inputs.len());
        let key2 = new_vars(key_inputs.len());

        // Copy 1: the full netlist.
        let mut pins1 = pin_map(&data_inputs, &input_vars);
        pins1.extend(pin_map(&key_inputs, &key1));
        let vars1 = encode_netlist_into(nl, &mut miter, &pins1).expect("combinational");

        // Copy 2: only the key-dependent cones; every other net shares
        // copy 1's variable.
        let mut pins2: HashMap<NetId, Var> = HashMap::new();
        for (id, _) in nl.nets() {
            if !dependent_nets.contains(&id) {
                pins2.insert(id, vars1.var(id));
            }
        }
        for (net, var) in key_inputs.iter().zip(&key2) {
            pins2.insert(*net, *var);
        }
        let map2 = encode_selected(nl, &mut miter, &pins2, |gid| dependent_gates.contains(&gid))
            .expect("combinational");

        // Miter over the key-dependent outputs only (the rest are shared),
        // switched on by `diff_on`.
        let diff_on = miter.new_var().positive();
        let mut diff = vec![!diff_on];
        for &o in nl.outputs() {
            if !dependent_nets.contains(&o) {
                continue;
            }
            let x = miter.new_var().positive();
            encode_gate(
                &mut miter,
                GateKind::Xor,
                x,
                &[vars1.lit(o), map2[&o].positive()],
            )
            .expect("combinational");
            diff.push(x);
        }
        assert!(
            diff.len() > 1,
            "no output depends on any key input — nothing to attack"
        );
        miter.add_clause(diff);

        // The constant literal + generation-0 DIP guard.
        let truth = miter.new_var().positive();
        miter.add_clause([truth]);
        let guard = miter.new_var().positive();

        if span.is_active() {
            span.record_u64("key_bits", key_inputs.len() as u64);
            span.record_u64("miter_vars", miter.num_vars() as u64);
            span.record_u64("dependent_gates", dependent_gates.len() as u64);
        }
        AttackInstance {
            miter,
            input_vars,
            key1,
            key2,
            oracle_positions,
            dip: DipEncoder::new(nl, &dependent_gates, truth),
            diff_on,
            guard,
            generation: 0,
            active_dips: 0,
            retired_dips: 0,
            extractions: Vec::new(),
            sim: CompiledSim::new(nl).expect("combinational"),
        }
    }

    /// Observes the oracle's key generation. On a bump (the target
    /// morphed), the DIP responses recorded so far may be stale — with
    /// Scan-Enable obfuscation a re-rolled `K_SE` changes every scan
    /// response, so keeping them could exclude *all* keys of the new
    /// generation. The old generation's guard is permanently falsified
    /// (its response units never bind again; the gate definitions stay
    /// for later DIPs to share) and a fresh guard is allocated. Returns
    /// how many DIP constraints were retired.
    pub(crate) fn observe_generation(&mut self, generation: u64) -> usize {
        if generation == self.generation {
            return 0;
        }
        self.generation = generation;
        if self.active_dips == 0 {
            // Nothing recorded under the old generation — reuse its
            // untouched guard.
            return 0;
        }
        let retired = self.active_dips;
        let old = std::mem::replace(&mut self.guard, self.miter.new_var().positive());
        self.miter.add_clause([!old]);
        self.retired_dips += retired;
        self.active_dips = 0;
        ril_trace::counter("attack.dips_retired", retired as u64);
        retired
    }

    /// DIP constraints retired by generation bumps so far.
    #[cfg(test)]
    pub(crate) fn retired_dips(&self) -> usize {
        self.retired_dips
    }

    /// Solves the miter for a fresh DIP under the current generation's
    /// guard (retired generations' constraints stay inactive).
    pub(crate) fn solve_miter(&mut self) -> Outcome {
        self.miter.solve_under(&[self.guard, self.diff_on])
    }

    /// Fills a DIP batch from the last SAT model without solving again.
    /// The model's DIP `x` (its full data-input assignment) comes first.
    /// Lane *j* of one 64-lane block holds `x` with oracle pin *j* flipped
    /// (the first 64 oracle pins; a tied-off `SE` is never flipped), and
    /// the block is simulated under the model's two keys. Both keys
    /// satisfy every recorded I/O pair, so each lane whose outputs differ
    /// is a DIP of the current formula, distinct from `x` and from every
    /// DIP the current generation recorded. Returns `x` and then up to
    /// `cap - 1` such lanes, in lane order.
    pub(crate) fn dips_from_model(&mut self, cap: usize) -> Vec<Vec<bool>> {
        let model = self.miter.model();
        let x: Vec<bool> = self.input_vars.iter().map(|v| model[v.index()]).collect();
        if cap <= 1 {
            return vec![x];
        }
        let word = |b: bool| if b { u64::MAX } else { 0 };
        let k1: Vec<u64> = self.key1.iter().map(|v| word(model[v.index()])).collect();
        let k2: Vec<u64> = self.key2.iter().map(|v| word(model[v.index()])).collect();
        let mut data: Vec<u64> = x.iter().map(|&b| word(b)).collect();
        let pins = &self.oracle_positions[..self.oracle_positions.len().min(MAX_LANES)];
        for (lane, &p) in pins.iter().enumerate() {
            data[p] ^= 1 << lane;
        }
        let out1 = self.sim.eval_words(&data, &k1);
        let out2 = self.sim.eval_words(&data, &k2);
        let differ = out1.iter().zip(&out2).fold(0, |acc, (a, b)| acc | (a ^ b));
        let flips: Vec<Vec<bool>> = pins
            .iter()
            .enumerate()
            .filter(|&(lane, _)| (differ >> lane) & 1 == 1)
            .take(cap - 1)
            .map(|(_, &p)| {
                let mut dip = x.clone();
                dip[p] = !dip[p];
                dip
            })
            .collect();
        std::iter::once(x).chain(flips).collect()
    }

    /// Projects a full DIP onto the oracle's input pins.
    pub(crate) fn oracle_dip(&self, dip_full: &[bool]) -> Vec<bool> {
        self.oracle_positions.iter().map(|&p| dip_full[p]).collect()
    }

    /// Adds the I/O constraint `circuit(dip, K) = response` of each DIP,
    /// in order, for both miter key vectors, using simulation for all
    /// key-independent logic. Up to 64 DIPs share one lane-packed
    /// simulation pass; each DIP's fold through the key cones is computed
    /// once and shared by the two copies.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` at the first DIP whose key-independent outputs
    /// contradict the oracle's response — no key can explain the oracle
    /// (the Scan-Enable defense manifests here). The DIPs before it stay
    /// recorded.
    pub(crate) fn add_dips(
        &mut self,
        dips: &[Vec<bool>],
        responses: &[Vec<bool>],
    ) -> Result<(), ()> {
        let mut span = ril_trace::span("encode_dip", ril_trace::Phase::Encode);
        let (encoded, shared) = (self.dip.encoded, self.dip.shared);
        let result = dips
            .chunks(MAX_LANES)
            .zip(responses.chunks(MAX_LANES))
            .try_for_each(|(dips, responses)| self.add_block(dips, responses));
        if span.is_active() {
            let encoded = self.dip.encoded - encoded;
            let shared = self.dip.shared - shared;
            span.record_u64("dips", dips.len() as u64);
            span.record_u64("gates_encoded", encoded);
            span.record_u64("gates_shared", shared);
            ril_trace::counter("attack.dip_gates_encoded", encoded);
            ril_trace::counter("attack.dip_gates_shared", shared);
        }
        result
    }

    /// [`AttackInstance::add_dips`] for at most [`MAX_LANES`] DIPs: one
    /// simulation pass with DIP *j* in lane *j*.
    fn add_block(&mut self, dips: &[Vec<bool>], responses: &[Vec<bool>]) -> Result<(), ()> {
        // Keys = 0: key-independent nets get their true value.
        let key_words = vec![0u64; self.key1.len()];
        self.sim
            .eval_words(PatternBlock::pack(dips).words(), &key_words);
        for (lane, response) in responses.iter().enumerate() {
            // Consistency check on key-independent outputs.
            let bit = |net| (self.sim.net_value(net) >> lane) & 1 == 1;
            if self
                .dip
                .free_outputs
                .iter()
                .any(|&(pos, net)| bit(net) != response[pos])
            {
                return Err(());
            }
            self.dip.fold(&self.sim, lane);
            for key_vars in [&self.key1, &self.key2] {
                self.dip.encode_copy(
                    &mut self.miter,
                    &self.sim,
                    lane,
                    key_vars,
                    self.guard,
                    response,
                );
            }
            self.active_dips += 1;
        }
        Ok(())
    }

    /// Solves the miter with the difference switched off, under the
    /// generation guard and `assumptions`, for a key consistent with the
    /// recorded responses: `Some(key)` (copy 1's key variables) on
    /// success, `None` on UNSAT (no key satisfies the responses *and*
    /// the assumptions — the caller may retry with fewer), or `Err` on
    /// budget exhaustion. ScanSAT assumes its mask bits off first.
    pub(crate) fn extract_key(
        &mut self,
        assumptions: &[Lit],
        timeout: Option<Duration>,
    ) -> Result<Option<Vec<bool>>, ()> {
        self.miter.set_budget(Budget::from_timeout(timeout));
        let mut guarded = Vec::with_capacity(assumptions.len() + 1);
        guarded.push(self.guard);
        guarded.extend_from_slice(assumptions);
        let outcome = self.miter.solve_under(&guarded);
        self.extractions.push(self.miter.solve_count() - 1);
        match outcome {
            Outcome::Sat => {
                let model = self.miter.model();
                Ok(Some(self.key1.iter().map(|v| model[v.index()]).collect()))
            }
            Outcome::Unsat => Ok(None),
            Outcome::Unknown => Err(()),
        }
    }

    /// Whether solve record `index` of the session is a key extraction.
    pub(crate) fn is_extraction(&self, index: usize) -> bool {
        self.extractions.binary_search(&index).is_ok()
    }
}

fn pin_map(nets: &[NetId], vars: &[Var]) -> HashMap<NetId, Var> {
    nets.iter().copied().zip(vars.iter().copied()).collect()
}

/// Where a key-cone gate reads one input from.
#[derive(Debug, Clone, Copy)]
enum ConeInput {
    /// Key input number `k`: unknown to the fold, a key variable in
    /// every copy.
    Key(usize),
    /// The output of cone gate `j` (earlier in topological order).
    Gate(usize),
    /// A key-independent net: a simulated constant under each DIP.
    Fixed(NetId),
}

/// One key-dependent gate.
#[derive(Debug)]
struct ConeGate {
    kind: GateKind,
    inputs: Vec<ConeInput>,
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

/// What a cone gate simplifies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Simple {
    /// A literal already in the formula (`truth` or `¬truth` for a
    /// constant).
    Lit(Lit),
    /// The gate in the [`GateKey`] buffer, complemented when `negate` is
    /// set.
    Gate { negate: bool },
}

/// The key cones in topological order, resolved once per attack, the
/// structural hash table of every gate a DIP copy encoded so far, plus
/// the current DIP's fold and liveness marks.
#[derive(Debug)]
struct DipEncoder {
    cone: Vec<ConeGate>,
    /// `(output position, cone gate)` for every key-dependent output.
    cone_outputs: Vec<(usize, usize)>,
    /// `(output position, net)` for every key-independent output.
    free_outputs: Vec<(usize, NetId)>,
    /// This DIP's 3-valued value of each cone gate (`None` = open).
    folded: Vec<Option<bool>>,
    /// Open cone gates some open key-dependent output reads through
    /// open gates only: the ones this DIP has to encode.
    live: Vec<bool>,
    /// A literal fixed true at the root; its complement is constant false.
    truth: Lit,
    /// Every gate encoded so far, by its simplified form: the positive
    /// literal of the variable its definition names.
    table: HashMap<GateKey, Lit>,
    /// Gates written to the session, and gates found in `table`.
    encoded: u64,
    shared: u64,
    /// Reused buffers of [`DipEncoder::encode_copy`]: the literal carrying
    /// each cone gate, one gate's inputs, and one simplified gate.
    lits: Vec<Lit>,
    ins: Vec<Lit>,
    key: GateKey,
}

impl DipEncoder {
    fn new(nl: &Netlist, dependent_gates: &HashSet<GateId>, truth: Lit) -> DipEncoder {
        let key_index: HashMap<NetId, usize> = nl
            .key_inputs()
            .iter()
            .enumerate()
            .map(|(k, &n)| (n, k))
            .collect();
        let mut gate_of: HashMap<NetId, usize> = HashMap::new();
        let mut cone = Vec::with_capacity(dependent_gates.len());
        for &gid in nl.topo_order().expect("combinational").iter() {
            if !dependent_gates.contains(&gid) {
                continue;
            }
            let gate = nl.gate(gid);
            let inputs = gate
                .inputs()
                .iter()
                .map(|n| match (key_index.get(n), gate_of.get(n)) {
                    (Some(&k), _) => ConeInput::Key(k),
                    (None, Some(&j)) => ConeInput::Gate(j),
                    (None, None) => ConeInput::Fixed(*n),
                })
                .collect();
            gate_of.insert(gate.output(), cone.len());
            cone.push(ConeGate {
                kind: gate.kind(),
                inputs,
            });
        }
        let mut cone_outputs = Vec::new();
        let mut free_outputs = Vec::new();
        for (pos, &o) in nl.outputs().iter().enumerate() {
            match gate_of.get(&o) {
                Some(&j) => cone_outputs.push((pos, j)),
                None => free_outputs.push((pos, o)),
            }
        }
        DipEncoder {
            cone,
            cone_outputs,
            free_outputs,
            folded: Vec::new(),
            live: Vec::new(),
            truth,
            table: HashMap::new(),
            encoded: 0,
            shared: 0,
            lits: Vec::new(),
            ins: Vec::new(),
            key: GateKey {
                kind: GateKind::And,
                ins: Vec::new(),
            },
        }
    }

    /// Folds the boundary constants simulated in `lane` through the cones
    /// (keys unknown) and marks the open gates the DIP's constraint needs.
    fn fold(&mut self, sim: &CompiledSim, lane: usize) {
        self.folded.clear();
        let mut values = Vec::new();
        for g in &self.cone {
            values.clear();
            values.extend(g.inputs.iter().map(|&i| match i {
                ConeInput::Key(_) => None,
                ConeInput::Gate(j) => self.folded[j],
                ConeInput::Fixed(n) => Some((sim.net_value(n) >> lane) & 1 == 1),
            }));
            self.folded.push(fold_gate(g.kind, &values));
        }
        self.live.clear();
        self.live.resize(self.cone.len(), false);
        for &(_, j) in &self.cone_outputs {
            self.live[j] = self.folded[j].is_none();
        }
        for j in (0..self.cone.len()).rev() {
            if !self.live[j] {
                continue;
            }
            for &i in &self.cone[j].inputs {
                if let ConeInput::Gate(k) = i {
                    if self.folded[k].is_none() {
                        self.live[k] = true;
                    }
                }
            }
        }
    }

    /// Encodes one copy of the folded DIP constraint over `key_vars`
    /// into `session`: each live open gate is simplified and shared
    /// through the structural table (a miss writes its unguarded
    /// definition), and each key-dependent output is forced to
    /// `response` by a unit clause carrying `¬guard`.
    fn encode_copy(
        &mut self,
        session: &mut Session,
        sim: &CompiledSim,
        lane: usize,
        key_vars: &[Var],
        guard: Lit,
        response: &[bool],
    ) {
        let truth = self.truth;
        let constant = |v: bool| if v { truth } else { !truth };
        self.lits.clear();
        for (j, g) in self.cone.iter().enumerate() {
            let lit = match self.folded[j] {
                Some(v) => constant(v),
                // Nothing live reads a dead gate; the constant is a filler.
                None if !self.live[j] => !truth,
                None => {
                    self.ins.clear();
                    self.ins.extend(g.inputs.iter().map(|&i| match i {
                        ConeInput::Key(k) => key_vars[k].positive(),
                        ConeInput::Gate(k) => self.lits[k],
                        ConeInput::Fixed(n) => constant((sim.net_value(n) >> lane) & 1 == 1),
                    }));
                    match simplify(g.kind, &self.ins, truth, &mut self.key) {
                        Simple::Lit(l) => l,
                        Simple::Gate { negate } => {
                            let out = match self.table.get(&self.key) {
                                Some(&out) => {
                                    self.shared += 1;
                                    out
                                }
                                None => {
                                    let out = session.new_var().positive();
                                    encode_gate(session, self.key.kind, out, &self.key.ins)
                                        .expect("combinational");
                                    self.table.insert(self.key.clone(), out);
                                    self.encoded += 1;
                                    out
                                }
                            };
                            negate_if(out, negate)
                        }
                    }
                }
            };
            self.lits.push(lit);
        }
        for &(pos, j) in &self.cone_outputs {
            // The literal the response requires. When the DIP decided the
            // output against the response it is `¬truth`, which the
            // solver drops, leaving `¬guard`: no key of this generation
            // explains the oracle.
            let o = negate_if(self.lits[j], !response[pos]);
            if o != truth {
                session.add_clause([o, !guard]);
            }
        }
    }
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

/// 3-valued evaluation of one gate over inputs in {0, 1, X} (`None` = X):
/// `Some(v)` exactly when every completion of the X inputs evaluates to
/// `v`, `None` when two completions disagree.
fn fold_gate(kind: GateKind, ins: &[Option<bool>]) -> Option<bool> {
    let all_known = || ins.iter().all(Option::is_some);
    match kind {
        GateKind::Buf | GateKind::Dff => ins[0],
        GateKind::Not => ins[0].map(|b| !b),
        GateKind::And | GateKind::Nand => {
            let v = if ins.contains(&Some(false)) {
                Some(false)
            } else {
                all_known().then_some(true)
            };
            v.map(|b| b != (kind == GateKind::Nand))
        }
        GateKind::Or | GateKind::Nor => {
            let v = if ins.contains(&Some(true)) {
                Some(true)
            } else {
                all_known().then_some(false)
            };
            v.map(|b| b != (kind == GateKind::Nor))
        }
        GateKind::Xor | GateKind::Xnor => ins
            .iter()
            .try_fold(kind == GateKind::Xnor, |acc, &b| b.map(|b| acc ^ b)),
        GateKind::Const0 => Some(false),
        GateKind::Const1 => Some(true),
        // Three inputs at most: evaluate every completion of the X inputs
        // (the input vectors that agree with the known ones).
        GateKind::Mux | GateKind::Lut2(_) => {
            let mut seen = None;
            for m in 0u8..1 << ins.len() {
                let bit = |i: usize| (m >> i) & 1 == 1;
                if ins
                    .iter()
                    .enumerate()
                    .any(|(i, b)| b.is_some_and(|b| b != bit(i)))
                {
                    continue;
                }
                let mut bits = [false; 3];
                for (i, b) in bits.iter_mut().enumerate().take(ins.len()) {
                    *b = bit(i);
                }
                let v = kind.eval_bits(&bits[..ins.len()]);
                if seen.is_some_and(|s| s != v) {
                    return None;
                }
                seen = Some(v);
            }
            seen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{attacker_view, Oracle};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ril_core::{Obfuscator, RilBlockSpec};
    use ril_netlist::generators;

    #[test]
    fn folded_dip_encoding_matches_simulation_for_every_key() {
        // After each random DIP, the miter with its difference switched
        // off (the extraction formula) must admit exactly the keys under
        // which the locked netlist reproduces every recorded response: the
        // folded, rail-resolved clauses are checked against plain
        // simulation over the whole key space.
        for (blocks, seed) in [(1, 3u64), (2, 11)] {
            let locked = Obfuscator::new(RilBlockSpec::size_2x2())
                .blocks(blocks)
                .seed(seed)
                .obfuscate(&generators::adder(4))
                .unwrap();
            let view = attacker_view(&locked);
            let key_bits = view.key_inputs().len();
            assert!(key_bits <= 12, "key space too large to enumerate");
            let mut oracle = Oracle::new(&locked).unwrap();
            let mut inst = AttackInstance::new(&view);
            let mut sim = CompiledSim::new(&view).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut recorded: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
            for _ in 0..5 {
                let dip: Vec<bool> = (0..view.data_inputs().len()).map(|_| rng.gen()).collect();
                let response = oracle.query(&inst.oracle_dip(&dip));
                inst.add_dips(std::slice::from_ref(&dip), std::slice::from_ref(&response))
                    .unwrap();
                recorded.push((dip, response));
                let mut admitted = 0;
                for k in 0u32..1 << key_bits {
                    let key: Vec<bool> = (0..key_bits).map(|i| (k >> i) & 1 == 1).collect();
                    let explains = recorded
                        .iter()
                        .all(|(dip, response)| sim.eval_pattern(dip, &key) == *response);
                    let mut assumptions = vec![inst.guard];
                    assumptions.extend(inst.key1.iter().zip(&key).map(|(v, &b)| v.lit(!b)));
                    let sat = inst.miter.solve_under(&assumptions) == Outcome::Sat;
                    assert_eq!(
                        sat,
                        explains,
                        "seed {seed}, DIP {}, key {k:#b}",
                        recorded.len()
                    );
                    admitted += usize::from(sat);
                }
                // The correct key always explains the oracle.
                assert!(admitted >= 1, "seed {seed}");
            }
        }
    }

    #[test]
    fn miter_formula_size_is_pinned() {
        // The miter is written straight into its session; on this fixed
        // lock it must encode to exactly 223 variables and 624 clauses
        // before the first DIP: the scratch-CNF construction's formula
        // less its constant-false rail, which the DIP encoding replaced
        // with the complement of the true one.
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&generators::adder(16))
            .unwrap();
        let mut inst = AttackInstance::new(&attacker_view(&locked));
        assert_eq!(inst.miter.num_vars(), 223);
        inst.solve_miter();
        assert_eq!(inst.miter.records()[0].clauses_added, 624);
    }

    #[test]
    fn recorded_dip_admits_exactly_the_keys_that_reproduce_it() {
        // One recorded DIP, then the extraction formula (difference off)
        // with one copy's key pinned: SAT exactly when the attacker view
        // under that key reproduces the oracle's response, checked for
        // each copy against `CompiledSim`.
        let host = generators::adder(6);
        let locks = [
            ril_core::baselines::xor_lock(&host, 8, 1).unwrap(),
            ril_core::baselines::sfll_lock(&host, 6, 2).unwrap(),
            ril_core::baselines::antisat_lock(&host, 6, 3).unwrap(),
            Obfuscator::new(RilBlockSpec::size_2x2())
                .blocks(2)
                .seed(4)
                .obfuscate(&host)
                .unwrap(),
            Obfuscator::new(RilBlockSpec::size_8x8x8())
                .blocks(1)
                .seed(5)
                .obfuscate(&host)
                .unwrap(),
        ];
        let mut outcomes = [0usize; 2];
        for (l, locked) in locks.iter().enumerate() {
            let view = attacker_view(locked);
            let mut oracle = Oracle::new(locked).unwrap();
            let mut sim = CompiledSim::new(&view).unwrap();
            let mut rng = StdRng::seed_from_u64(l as u64);
            for d in 0..6 {
                let mut inst = AttackInstance::new(&view);
                let dip: Vec<bool> = (0..view.data_inputs().len()).map(|_| rng.gen()).collect();
                let response = oracle.query(&inst.oracle_dip(&dip));
                inst.add_dips(std::slice::from_ref(&dip), std::slice::from_ref(&response))
                    .unwrap();
                for _ in 0..8 {
                    let key: Vec<bool> = (0..view.key_inputs().len()).map(|_| rng.gen()).collect();
                    let explains = sim.eval_pattern(&dip, &key) == response;
                    for copy in [inst.key1.clone(), inst.key2.clone()] {
                        let mut assumptions = vec![inst.guard];
                        assumptions.extend(copy.iter().zip(&key).map(|(v, &b)| v.lit(!b)));
                        let sat = inst.miter.solve_under(&assumptions) == Outcome::Sat;
                        assert_eq!(sat, explains, "lock {l}, DIP {d}");
                        outcomes[usize::from(sat)] += 1;
                    }
                }
            }
        }
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    }

    #[test]
    fn a_lane_packed_batch_records_what_single_dips_record() {
        // Five DIPs recorded as one batch (one simulation pass, DIP j in
        // lane j) build the same formula as five single recordings, and
        // admit the same keys.
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(11)
            .obfuscate(&generators::adder(4))
            .unwrap();
        let view = attacker_view(&locked);
        let mut oracle = Oracle::new(&locked).unwrap();
        let mut batched = AttackInstance::new(&view);
        let mut single = AttackInstance::new(&view);
        let mut rng = StdRng::seed_from_u64(7);
        let dips: Vec<Vec<bool>> = (0..5)
            .map(|_| (0..view.data_inputs().len()).map(|_| rng.gen()).collect())
            .collect();
        let responses: Vec<Vec<bool>> = dips
            .iter()
            .map(|d| oracle.query(&batched.oracle_dip(d)))
            .collect();
        batched.add_dips(&dips, &responses).unwrap();
        for (d, r) in dips.iter().zip(&responses) {
            single
                .add_dips(std::slice::from_ref(d), std::slice::from_ref(r))
                .unwrap();
        }
        assert_eq!(batched.miter.num_vars(), single.miter.num_vars());
        let key_bits = view.key_inputs().len();
        for k in 0u32..1 << key_bits {
            let outcome = |inst: &mut AttackInstance| {
                let mut assumptions = vec![inst.guard];
                assumptions.extend(
                    inst.key1
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v.lit((k >> i) & 1 == 0)),
                );
                inst.miter.solve_under(&assumptions)
            };
            assert_eq!(outcome(&mut batched), outcome(&mut single), "key {k:#b}");
        }
    }

    #[test]
    fn a_simulated_batch_holds_distinct_single_pin_flips_the_model_keys_tell_apart() {
        // Three rounds of one miter solve and its batch of up to 8 DIPs on
        // each lock family. Every extra DIP flips exactly one oracle pin of
        // the model's DIP and none repeats; `CompiledSim` gives different
        // outputs under the model's two keys; and the solver confirms on
        // its own that it is a DIP of the current formula.
        let mut extras = 0;
        for bits in [8, 16] {
            let host = generators::adder(bits);
            let locks = [
                ril_core::baselines::xor_lock(&host, 8, 1).unwrap(),
                ril_core::baselines::sfll_lock(&host, 6, 2).unwrap(),
                ril_core::baselines::antisat_lock(&host, 6, 3).unwrap(),
                Obfuscator::new(RilBlockSpec::size_2x2())
                    .blocks(2)
                    .seed(4)
                    .obfuscate(&host)
                    .unwrap(),
                Obfuscator::new(RilBlockSpec::size_8x8x8())
                    .blocks(1)
                    .seed(5)
                    .obfuscate(&host)
                    .unwrap(),
            ];
            for (l, locked) in locks.iter().enumerate() {
                let view = attacker_view(locked);
                let mut oracle = Oracle::new(locked).unwrap();
                let mut sim = CompiledSim::new(&view).unwrap();
                let mut inst = AttackInstance::new(&view);
                for round in 0..3 {
                    if inst.solve_miter() != Outcome::Sat {
                        break;
                    }
                    let model = inst.miter.model();
                    let read = |vars: &[Var]| -> Vec<bool> {
                        vars.iter().map(|v| model[v.index()]).collect()
                    };
                    let (x, k1, k2) = (read(&inst.input_vars), read(&inst.key1), read(&inst.key2));
                    let dips = inst.dips_from_model(8);
                    let at = format!("adder:{bits}, lock {l}, round {round}");
                    assert!((1..=8).contains(&dips.len()), "{at}");
                    assert_eq!(dips[0], x, "{at}");
                    let distinct: HashSet<&Vec<bool>> = dips.iter().collect();
                    assert_eq!(distinct.len(), dips.len(), "{at}: a DIP repeats");
                    for d in &dips[1..] {
                        let flipped: Vec<usize> = (0..x.len()).filter(|&i| d[i] != x[i]).collect();
                        assert!(
                            matches!(flipped[..], [p] if inst.oracle_positions.contains(&p)),
                            "{at}: flips {flipped:?}"
                        );
                        assert_ne!(
                            sim.eval_pattern(d, &k1),
                            sim.eval_pattern(d, &k2),
                            "{at}: the model's keys agree on an extra DIP"
                        );
                        let mut assumptions = vec![inst.guard, inst.diff_on];
                        for (vars, values) in
                            [(&inst.input_vars, d), (&inst.key1, &k1), (&inst.key2, &k2)]
                        {
                            assumptions.extend(vars.iter().zip(values).map(|(v, &b)| v.lit(!b)));
                        }
                        assert_eq!(inst.miter.solve_under(&assumptions), Outcome::Sat, "{at}");
                    }
                    extras += dips.len() - 1;
                    let responses: Vec<Vec<bool>> = dips
                        .iter()
                        .map(|d| oracle.query(&inst.oracle_dip(d)))
                        .collect();
                    inst.add_dips(&dips, &responses).unwrap();
                }
            }
        }
        assert!(extras > 0, "no batch carried an extra DIP");
    }

    #[test]
    fn recording_a_dip_again_shares_every_gate() {
        // A repeated DIP finds every gate in the structural table: no new
        // variable, only the guarded response units. After a generation
        // bump the definitions are still there to share.
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&generators::adder(8))
            .unwrap();
        let view = attacker_view(&locked);
        let mut oracle = Oracle::new(&locked).unwrap();
        let mut inst = AttackInstance::new(&view);
        let dip = vec![true; view.data_inputs().len()];
        let response = oracle.query(&inst.oracle_dip(&dip));
        let record = |inst: &mut AttackInstance| {
            inst.add_dips(std::slice::from_ref(&dip), std::slice::from_ref(&response))
                .unwrap();
            inst.solve_miter();
            inst.miter.last_record().unwrap().clauses_added
        };
        record(&mut inst);
        let (vars, encoded) = (inst.miter.num_vars(), inst.dip.encoded);
        assert!(encoded > 0, "the DIP leaves no open gate to share");
        let units = record(&mut inst);
        assert_eq!(inst.miter.num_vars(), vars);
        assert_eq!(inst.dip.encoded, encoded);
        assert!(inst.dip.shared >= encoded);
        assert!((1..=2 * inst.dip.cone_outputs.len()).contains(&units));

        inst.observe_generation(1);
        let vars = inst.miter.num_vars();
        // One more clause: the unit retiring the old guard.
        assert_eq!(record(&mut inst), units + 1);
        assert_eq!(inst.miter.num_vars(), vars);
        assert_eq!(inst.dip.encoded, encoded);
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

    /// Every {0, 1, X} input vector of length `n` (`None` = X).
    fn ternary_vectors(n: usize) -> Vec<Vec<Option<bool>>> {
        (0..3usize.pow(n as u32))
            .map(|mut m| {
                (0..n)
                    .map(|_| {
                        let digit = m % 3;
                        m /= 3;
                        [Some(false), Some(true), None][digit]
                    })
                    .collect()
            })
            .collect()
    }

    /// Every 2-valued completion of the X inputs of `ins`.
    fn completions(ins: &[Option<bool>]) -> Vec<Vec<bool>> {
        let open: Vec<usize> = (0..ins.len()).filter(|&i| ins[i].is_none()).collect();
        (0u32..1 << open.len())
            .map(|m| {
                let mut bits: Vec<bool> = ins.iter().map(|b| b.unwrap_or(false)).collect();
                for (bit, &i) in open.iter().enumerate() {
                    bits[i] = (m >> bit) & 1 == 1;
                }
                bits
            })
            .collect()
    }

    #[test]
    fn fold_is_exact_for_every_gate_kind() {
        let kinds = GateKind::BASIC
            .into_iter()
            .chain((0u8..16).map(GateKind::Lut2));
        let mut checked = 0;
        for kind in kinds {
            for arity in (0..=3).filter(|&n| kind.accepts_arity(n)) {
                for ins in ternary_vectors(arity) {
                    let outs: Vec<bool> = completions(&ins)
                        .iter()
                        .map(|bits| kind.eval_bits(bits))
                        .collect();
                    match fold_gate(kind, &ins) {
                        Some(v) => assert!(
                            outs.iter().all(|&o| o == v),
                            "{kind:?}{ins:?} folded to {v} but a completion disagrees"
                        ),
                        None => assert!(
                            outs.contains(&true) && outs.contains(&false),
                            "{kind:?}{ins:?} left open but every completion agrees"
                        ),
                    }
                    checked += 1;
                }
            }
        }
        // n-ary kinds at arity 1-3, Buf/Not/Dff, Mux, constants, 16 LUTs.
        assert_eq!(checked, 6 * (3 + 9 + 27) + 3 * 3 + 27 + 2 + 16 * 9);
    }
}
