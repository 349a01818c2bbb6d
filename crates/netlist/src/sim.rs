//! 64-way bit-parallel functional simulation.
//!
//! A [`CompiledSim`] compiles a combinational [`Netlist`] into a
//! topologically ordered evaluation plan once, then evaluates 64 input
//! patterns per call (one pattern per bit lane). It is the only circuit
//! simulator in the workspace: the attack oracle and a served chip, the
//! miter's key-independent DIP fold, AppSAT's error estimate, the removal
//! attack's scorer and the sampled key check all run on it.

use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist, NetlistError};
use rand::Rng;

/// One gate of a [`CompiledSim`] plan: the kind plus value-array indices,
/// with the input operands flattened into [`CompiledSim::step_inputs`].
#[derive(Debug, Clone, Copy)]
struct Step {
    kind: GateKind,
    in_start: u32,
    in_len: u32,
    out: u32,
}

/// A fully self-contained bit-parallel evaluation plan.
///
/// The topological order, gate kinds, operand indices and output positions
/// are baked in at construction, so evaluation needs **no** netlist — the
/// plan *is* the circuit, and it cannot be replayed over the wrong gates.
/// Long-lived evaluators (the attack oracle, a served chip) keep only the
/// plan.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = ril_netlist::bench::c17();
/// let mut sim = ril_netlist::CompiledSim::new(&nl)?;
/// drop(nl); // the plan no longer needs the netlist
/// let outs = sim.eval_words(&[u64::MAX; 5], &[]);
/// assert_eq!(outs.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSim {
    steps: Vec<Step>,
    step_inputs: Vec<u32>,
    values: Vec<u64>,
    /// Net index per primary input, aligned with [`Netlist::inputs`].
    input_nets: Vec<u32>,
    /// For each input position: data-vector index (`Ok`) or key-vector
    /// index (`Err`).
    input_slots: Vec<Result<usize, usize>>,
    output_nets: Vec<u32>,
    n_data: usize,
    n_keys: usize,
    /// Per-step operand scratch, reused across calls so steady-state
    /// evaluation allocates nothing.
    in_buf: Vec<u64>,
}

impl CompiledSim {
    /// Compiles the full evaluation plan for `nl`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is
    /// cyclic.
    pub fn new(nl: &Netlist) -> Result<CompiledSim, NetlistError> {
        let order = nl.topo_order()?;
        let mut steps = Vec::with_capacity(order.len());
        let mut step_inputs = Vec::new();
        for &gid in order.iter() {
            let gate = nl.gate(gid);
            let in_start = step_inputs.len() as u32;
            step_inputs.extend(gate.inputs().iter().map(|n| n.index() as u32));
            steps.push(Step {
                kind: gate.kind(),
                in_start,
                in_len: gate.inputs().len() as u32,
                out: gate.output().index() as u32,
            });
        }
        let mut data_idx = 0;
        let mut key_idx = 0;
        let input_slots: Vec<Result<usize, usize>> = nl
            .inputs()
            .iter()
            .map(|&i| {
                if nl.is_key_input(i) {
                    let slot = Err(key_idx);
                    key_idx += 1;
                    slot
                } else {
                    let slot = Ok(data_idx);
                    data_idx += 1;
                    slot
                }
            })
            .collect();
        Ok(CompiledSim {
            steps,
            step_inputs,
            values: vec![0; nl.net_count()],
            input_nets: nl.inputs().iter().map(|n| n.index() as u32).collect(),
            input_slots,
            output_nets: nl.outputs().iter().map(|n| n.index() as u32).collect(),
            n_data: data_idx,
            n_keys: key_idx,
            in_buf: Vec::with_capacity(4),
        })
    }

    /// Number of data (non-key) inputs the plan expects.
    pub fn data_width(&self) -> usize {
        self.n_data
    }

    /// Number of key inputs the plan expects.
    pub fn key_width(&self) -> usize {
        self.n_keys
    }

    /// Number of primary outputs per evaluation.
    pub fn output_width(&self) -> usize {
        self.output_nets.len()
    }

    /// Evaluates 64 patterns at once. `data` is aligned with
    /// [`Netlist::data_inputs`] order and `keys` with
    /// [`Netlist::key_inputs`] order; bit lane `i` of every word belongs to
    /// pattern `i`. Returns one word per primary output.
    ///
    /// Allocates a fresh output vector per call; hot paths (the attack
    /// oracle) use [`CompiledSim::eval_words_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the compiled input counts.
    pub fn eval_words(&mut self, data: &[u64], keys: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.output_nets.len());
        self.eval_words_into(data, keys, &mut out);
        out
    }

    /// [`CompiledSim::eval_words`] into a caller-owned buffer: `out` is
    /// cleared and refilled with one word per output, so a reused buffer
    /// makes steady-state evaluation allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the compiled input counts.
    pub fn eval_words_into(&mut self, data: &[u64], keys: &[u64], out: &mut Vec<u64>) {
        assert_eq!(data.len(), self.n_data, "data width mismatch");
        assert_eq!(keys.len(), self.n_keys, "key width mismatch");
        for (pos, &net) in self.input_nets.iter().enumerate() {
            self.values[net as usize] = match self.input_slots[pos] {
                Ok(d) => data[d],
                Err(k) => keys[k],
            };
        }
        for step in &self.steps {
            self.in_buf.clear();
            let lo = step.in_start as usize;
            self.in_buf.extend(
                self.step_inputs[lo..lo + step.in_len as usize]
                    .iter()
                    .map(|&n| self.values[n as usize]),
            );
            self.values[step.out as usize] = step.kind.eval_words(&self.in_buf);
        }
        out.clear();
        out.extend(self.output_nets.iter().map(|&n| self.values[n as usize]));
    }

    /// Evaluates a single pattern given as bools over **all** primary inputs
    /// (data and key inputs interleaved in [`Netlist::inputs`] order).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the input count.
    pub fn eval_bits(&mut self, bits: &[bool]) -> Vec<bool> {
        assert_eq!(bits.len(), self.input_slots.len(), "input width mismatch");
        let mut data = Vec::with_capacity(self.n_data);
        let mut keys = Vec::with_capacity(self.n_keys);
        for (slot, &b) in self.input_slots.iter().zip(bits) {
            let w = if b { u64::MAX } else { 0 };
            match slot {
                Ok(_) => data.push(w),
                Err(_) => keys.push(w),
            }
        }
        self.eval_words(&data, &keys)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Evaluates one pattern with separate data/key bit vectors.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn eval_pattern(&mut self, data: &[bool], keys: &[bool]) -> Vec<bool> {
        let dw: Vec<u64> = data.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        let kw: Vec<u64> = keys.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        self.eval_words(&dw, &kw)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// The value word `net` took in the last evaluation (all lanes).
    ///
    /// # Panics
    ///
    /// Panics if `net` is outside the compiled netlist.
    pub fn net_value(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }
}

/// Generates one random 64-pattern word for each of `width` signals.
/// Returned as `patterns[signal]` for one word-slice call.
pub fn random_word_patterns<R: Rng>(rng: &mut R, width: usize) -> Vec<u64> {
    (0..width).map(|_| rng.gen()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::c17;
    use crate::gate::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Reference single-pattern evaluation by recursive netlist walk: the
    /// values of `nets` under `bits` (all inputs, [`Netlist::inputs`]
    /// order).
    fn reference_eval(nl: &Netlist, bits: &[bool], nets: &[NetId]) -> Vec<bool> {
        fn value(nl: &Netlist, net: NetId, memo: &mut HashMap<NetId, bool>) -> bool {
            if let Some(&v) = memo.get(&net) {
                return v;
            }
            let gid = nl.net(net).driver().expect("driven");
            let gate = nl.gate(gid);
            let ins: Vec<bool> = gate.inputs().iter().map(|&n| value(nl, n, memo)).collect();
            let v = gate.kind().eval_bits(&ins);
            memo.insert(net, v);
            v
        }
        let mut memo: HashMap<NetId, bool> = nl
            .inputs()
            .iter()
            .copied()
            .zip(bits.iter().copied())
            .collect();
        nets.iter().map(|&n| value(nl, n, &mut memo)).collect()
    }

    fn lane(words: &[u64], lane: usize) -> Vec<bool> {
        words.iter().map(|w| (w >> lane) & 1 == 1).collect()
    }

    /// `adder(6)` with a key XOR spliced behind every eighth gate output
    /// and the key inputs declared between the data inputs, so input
    /// routing is exercised on a multi-level netlist.
    fn keyed_adder() -> Netlist {
        let mut nl = crate::generators::adder(6);
        let targets: Vec<NetId> = nl.gates().map(|(_, g)| g.output()).step_by(8).collect();
        for (i, &net) in targets.iter().enumerate() {
            let k = nl.add_key_input(format!("k{i}")).unwrap();
            let masked = nl.add_net(format!("masked{i}")).unwrap();
            nl.redirect_consumers(net, masked);
            nl.add_gate(GateKind::Xor, &[net, k], masked).unwrap();
        }
        // Re-declare the key inputs one after every second data input.
        let text = crate::write_bench(&nl);
        let (mut keys, rest): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| l.starts_with("KEYINPUT("));
        keys.reverse();
        let mut interleaved = String::new();
        let mut data_seen = 0;
        for line in rest {
            interleaved.push_str(line);
            interleaved.push('\n');
            if line.starts_with("INPUT(") {
                data_seen += 1;
                if data_seen % 2 == 0 {
                    if let Some(k) = keys.pop() {
                        interleaved.push_str(k);
                        interleaved.push('\n');
                    }
                }
            }
        }
        assert!(keys.is_empty(), "every key declared among the data inputs");
        crate::parse_bench("keyed_adder", &interleaved).unwrap()
    }

    #[test]
    fn every_entry_point_matches_reference_on_keyed_multilevel_netlist() {
        let nl = keyed_adder();
        let n_keys = nl.key_inputs().len();
        assert!(n_keys >= 4);
        assert!(!nl.is_key_input(*nl.inputs().last().unwrap()));
        let driven: Vec<NetId> = nl.gates().map(|(_, g)| g.output()).collect();
        let data_nets = nl.data_inputs();
        let mut sim = CompiledSim::new(&nl).unwrap();
        let mut rng = StdRng::seed_from_u64(20);
        for _ in 0..4 {
            let data = random_word_patterns(&mut rng, data_nets.len());
            let keys = random_word_patterns(&mut rng, n_keys);
            let outs = sim.eval_words(&data, &keys);
            let values: Vec<u64> = driven.iter().map(|&n| sim.net_value(n)).collect();
            for l in 0..64 {
                let (d, k) = (lane(&data, l), lane(&keys, l));
                let mut bits = Vec::with_capacity(nl.inputs().len());
                let (mut di, mut ki) = (0, 0);
                for &i in nl.inputs() {
                    if nl.is_key_input(i) {
                        bits.push(k[ki]);
                        ki += 1;
                    } else {
                        bits.push(d[di]);
                        di += 1;
                    }
                }
                let expect = reference_eval(&nl, &bits, nl.outputs());
                assert_eq!(lane(&outs, l), expect, "eval_words lane {l}");
                assert_eq!(
                    lane(&values, l),
                    reference_eval(&nl, &bits, &driven),
                    "net_value lane {l}"
                );
                assert_eq!(sim.eval_bits(&bits), expect, "eval_bits lane {l}");
                assert_eq!(sim.eval_pattern(&d, &k), expect, "eval_pattern lane {l}");
            }
        }
    }

    #[test]
    fn c17_matches_reference_for_all_patterns() {
        let nl = c17();
        let mut sim = CompiledSim::new(&nl).unwrap();
        for pattern in 0u32..32 {
            let bits: Vec<bool> = (0..5).map(|i| (pattern >> i) & 1 == 1).collect();
            assert_eq!(
                sim.eval_bits(&bits),
                reference_eval(&nl, &bits, nl.outputs())
            );
        }
    }

    #[test]
    fn bit_parallel_lanes_are_independent() {
        let nl = c17();
        let mut sim = CompiledSim::new(&nl).unwrap();
        assert_eq!(sim.data_width(), 5);
        assert_eq!(sim.key_width(), 0);
        assert_eq!(sim.output_width(), 2);
        let mut rng = StdRng::seed_from_u64(42);
        let data = random_word_patterns(&mut rng, 5);
        let outs = sim.eval_words(&data, &[]);
        for l in 0..64 {
            let expect = reference_eval(&nl, &lane(&data, l), nl.outputs());
            assert_eq!(lane(&outs, l), expect, "lane {l}");
        }
    }

    #[test]
    fn key_inputs_routed_separately() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a").unwrap();
        let k = nl.add_key_input("k").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::Xor, &[a, k], y).unwrap();
        nl.mark_output(y);
        let mut sim = CompiledSim::new(&nl).unwrap();
        assert_eq!(sim.eval_words(&[u64::MAX], &[0])[0], u64::MAX);
        assert_eq!(sim.eval_words(&[u64::MAX], &[u64::MAX])[0], 0);
        assert_eq!(sim.eval_bits(&[true, true]), vec![false]);
    }

    #[test]
    fn net_value_readable_after_eval() {
        let nl = c17();
        let mut sim = CompiledSim::new(&nl).unwrap();
        sim.eval_bits(&[true; 5]);
        let g10 = nl.net_id("G10").unwrap();
        // NAND(1,1) = 0
        assert_eq!(sim.net_value(g10) & 1, 0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn width_mismatch_panics() {
        let nl = c17();
        let mut sim = CompiledSim::new(&nl).unwrap();
        sim.eval_bits(&[true; 3]);
    }

    #[test]
    fn compiled_sim_routes_keys_without_netlist() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a").unwrap();
        let k = nl.add_key_input("k").unwrap();
        let y = nl.add_net("y").unwrap();
        nl.add_gate(GateKind::Xor, &[a, k], y).unwrap();
        nl.mark_output(y);
        let mut compiled = CompiledSim::new(&nl).unwrap();
        drop(nl);
        assert_eq!(compiled.eval_words(&[u64::MAX], &[0])[0], u64::MAX);
        assert_eq!(compiled.eval_words(&[u64::MAX], &[u64::MAX])[0], 0);
        assert_eq!(compiled.eval_pattern(&[true], &[true]), vec![false]);
    }

    #[test]
    #[should_panic(expected = "data width mismatch")]
    fn compiled_sim_checks_widths() {
        let nl = c17();
        let mut compiled = CompiledSim::new(&nl).unwrap();
        compiled.eval_words(&[0; 3], &[]);
    }
}
