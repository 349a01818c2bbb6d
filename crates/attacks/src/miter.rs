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
//! keys unknown (3-valued), so nets the DIP already decides are pinned to
//! the constant rails and only the still-open remainder becomes clauses.
//! Every clause of a DIP copy carries the `¬guard` of the oracle
//! generation it was recorded under; retiring a generation therefore
//! leaves its whole encoding satisfied at the root, where the solver's
//! root simplification collects it.
//!
//! A DIP copy is encoded straight into the live session. The decided
//! nets ride on the constant rails, which are resolved before a clause is
//! built: a clause a true rail satisfies is never built, and a false rail
//! literal is dropped.

use ril_core::SE_PIN;
use ril_netlist::{CompiledSim, GateId, GateKind, NetId, Netlist};
use ril_sat::tseitin::encode_selected;
use ril_sat::{encode_gate, encode_netlist_into, Budget, ClauseSink, Lit, Outcome, Session, Var};
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
    /// Constant rails: variables fixed true and false at the root.
    rails: (Var, Var),
    /// Activation literal of the difference clause.
    diff_on: Lit,
    /// Key-generation guard. Every clause of a DIP's encoding is
    /// conditioned on the guard of the oracle generation it was recorded
    /// under, so when the target morphs the stale constraints retire in
    /// O(1) — the old guard is falsified, the solver collects the now
    /// root-satisfied clauses, and keeps its variable pool, learned
    /// clauses and heuristic state.
    guard: Lit,
    /// Oracle key generation the current guard covers.
    generation: u64,
    /// DIP constraints recorded under the current generation.
    active_dips: usize,
    /// DIP constraints retired by generation bumps so far.
    retired_dips: usize,
    /// Indices into the session's solve records of the key extractions.
    extractions: Vec<usize>,
    /// The attacker view's compiled plan: each DIP's key-free values.
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

        // Constant rails + generation-0 DIP guard.
        let ct = miter.new_var();
        let cf = miter.new_var();
        miter.add_clause([ct.positive()]);
        miter.add_clause([cf.negative()]);
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
            dip: DipEncoder::new(nl, &dependent_gates),
            rails: (ct, cf),
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
    /// (the dead clauses are never satisfied again) and a fresh guard is
    /// allocated. Returns how many DIP constraints were retired.
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

    /// Opens a DIP-collection batch: a fresh guard literal the in-batch
    /// blocking clauses are conditioned on.
    pub(crate) fn begin_dip_batch(&mut self) -> Lit {
        self.miter.new_var().positive()
    }

    /// Blocks a collected DIP's oracle-input assignment under the batch
    /// guard, so the next in-batch miter solve must produce a DIP that is
    /// fresh on the oracle pins (free pins — a tied-off `SE` — may not
    /// differ alone).
    pub(crate) fn block_dip_in_batch(&mut self, guard: Lit, dip_full: &[bool]) {
        let mut clause = Vec::with_capacity(self.oracle_positions.len() + 1);
        clause.push(!guard);
        for &p in &self.oracle_positions {
            clause.push(self.input_vars[p].lit(dip_full[p]));
        }
        self.miter.add_clause(clause);
    }

    /// [`AttackInstance::solve_miter`] with the batch guard asserted, so
    /// in-batch blocking clauses apply.
    pub(crate) fn solve_miter_in_batch(&mut self, guard: Lit) -> Outcome {
        self.miter.solve_under(&[self.guard, self.diff_on, guard])
    }

    /// Closes a DIP-collection batch: the guard is permanently falsified,
    /// retiring every blocking clause recorded under it (the collected
    /// DIPs' I/O constraints live on under the generation guard instead).
    pub(crate) fn end_dip_batch(&mut self, guard: Lit) {
        self.miter.add_clause([!guard]);
    }

    /// Extracts the full data-input assignment (DIP) from the last SAT
    /// model.
    pub(crate) fn dip_from_model(&self) -> Vec<bool> {
        let model = self.miter.model();
        self.input_vars.iter().map(|v| model[v.index()]).collect()
    }

    /// Projects a full DIP onto the oracle's input pins.
    pub(crate) fn oracle_dip(&self, dip_full: &[bool]) -> Vec<bool> {
        self.oracle_positions.iter().map(|&p| dip_full[p]).collect()
    }

    /// Adds the I/O constraint `circuit(dip, K) = response` for both miter
    /// key vectors, using simulation for all key-independent logic. The
    /// DIP's boundary constants and their fold through the key cones are
    /// computed once and shared by the two copies.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when a key-independent output contradicts the
    /// oracle's response — no key can explain the oracle (the Scan-Enable
    /// defense manifests here).
    pub(crate) fn add_dip(&mut self, dip_full: &[bool], response: &[bool]) -> Result<(), ()> {
        let _span = ril_trace::span("encode_dip", ril_trace::Phase::Encode);
        // Baseline simulation with keys = 0: key-independent nets get their
        // true value.
        let data_words: Vec<u64> = dip_full
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        let key_words = vec![0u64; self.key1.len()];
        self.sim.eval_words(&data_words, &key_words);

        // Consistency check on key-independent outputs.
        for &(pos, net) in &self.dip.free_outputs {
            if (self.sim.net_value(net) & 1 == 1) != response[pos] {
                return Err(());
            }
        }
        self.dip.fold(&self.sim);

        for key_vars in [&self.key1, &self.key2] {
            self.dip.encode_copy(
                &mut self.miter,
                &self.sim,
                key_vars,
                self.rails,
                self.guard,
                response,
            );
        }
        self.active_dips += 1;
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

/// The key cones in topological order, resolved once per attack, plus
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
    /// Reused buffers of [`DipEncoder::encode_copy`]: the literal carrying
    /// each cone gate, one gate's inputs, and one clause.
    lits: Vec<Lit>,
    ins: Vec<Lit>,
    clause: Vec<Lit>,
}

impl DipEncoder {
    fn new(nl: &Netlist, dependent_gates: &HashSet<GateId>) -> DipEncoder {
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
            lits: Vec::new(),
            ins: Vec::new(),
            clause: Vec::new(),
        }
    }

    /// Folds the simulated boundary constants through the cones (keys
    /// unknown) and marks the open gates the DIP's constraint needs.
    fn fold(&mut self, sim: &CompiledSim) {
        self.folded.clear();
        let mut values = Vec::new();
        for g in &self.cone {
            values.clear();
            values.extend(g.inputs.iter().map(|&i| match i {
                ConeInput::Key(_) => None,
                ConeInput::Gate(j) => self.folded[j],
                ConeInput::Fixed(n) => Some(sim.net_value(n) & 1 == 1),
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
    /// into `session`: the live open gates as clauses, decided nets as the
    /// `(ct, cf)` rails, and the key-dependent outputs forced to
    /// `response`. Every clause carries `¬guard`.
    fn encode_copy(
        &mut self,
        session: &mut Session,
        sim: &CompiledSim,
        key_vars: &[Var],
        rails: (Var, Var),
        guard: Lit,
        response: &[bool],
    ) {
        let (ct, cf) = rails;
        let rail = |v: bool| if v { ct.positive() } else { cf.positive() };
        let mut sink = RailSink {
            session,
            rails,
            guard,
            clause: &mut self.clause,
        };
        let lits = &mut self.lits;
        lits.clear();
        for (j, g) in self.cone.iter().enumerate() {
            let lit = match self.folded[j] {
                Some(v) => rail(v),
                // Nothing live reads a dead gate; the rail is a filler.
                None if !self.live[j] => rail(false),
                None => {
                    self.ins.clear();
                    self.ins.extend(g.inputs.iter().map(|&i| match i {
                        ConeInput::Key(k) => key_vars[k].positive(),
                        ConeInput::Gate(k) => lits[k],
                        ConeInput::Fixed(n) => rail(sim.net_value(n) & 1 == 1),
                    }));
                    let out = sink.new_var().positive();
                    encode_gate(&mut sink, g.kind, out, &self.ins).expect("combinational");
                    out
                }
            };
            lits.push(lit);
        }
        for &(pos, j) in &self.cone_outputs {
            let o = lits[j];
            sink.add_clause([if response[pos] { o } else { !o }]);
        }
    }
}

/// A DIP copy's clause sink: the live session, with the constant rails
/// resolved before a clause is built. A clause a true rail satisfies is
/// dropped whole, a false rail literal is dropped from its clause, and
/// every clause that remains gains the generation's `¬guard`. The solver
/// would drop both itself; filtering here spares it the work.
struct RailSink<'a> {
    session: &'a mut Session,
    /// `(ct, cf)`: the variables fixed true and false at the root.
    rails: (Var, Var),
    guard: Lit,
    clause: &'a mut Vec<Lit>,
}

impl ClauseSink for RailSink<'_> {
    fn new_var(&mut self) -> Var {
        self.session.new_var()
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.clause.clear();
        for l in lits {
            let (ct, cf) = self.rails;
            let value = if l.var() == ct {
                l.target()
            } else if l.var() == cf {
                !l.target()
            } else {
                self.clause.push(l);
                continue;
            };
            if value {
                return;
            }
        }
        self.clause.push(!self.guard);
        self.session.add_clause(self.clause.iter().copied());
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
                inst.add_dip(&dip, &response).unwrap();
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
        // lock it must encode to exactly the formula the scratch-CNF
        // construction built: 224 variables and 625 clauses before the
        // first DIP.
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&generators::adder(16))
            .unwrap();
        let mut inst = AttackInstance::new(&attacker_view(&locked));
        assert_eq!(inst.miter.num_vars(), 224);
        inst.solve_miter();
        assert_eq!(inst.miter.records()[0].clauses_added, 625);
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
