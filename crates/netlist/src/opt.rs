//! Netlist cleanup passes: constant propagation, dead-logic sweep and
//! buffer collapsing.
//!
//! Obfuscation and attack transformations leave debris behind — tied-off
//! scan logic, decoy banyan outputs, bypassed restore units. These passes
//! normalize such netlists without changing their I/O behaviour (verified
//! by the property tests against random circuits).

use crate::gate::GateKind;
use crate::netlist::{GateId, NetId, Netlist, NetlistError};
use std::collections::{HashMap, HashSet};

/// Per-pass statistics from [`optimize`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Gates whose output was proven constant and replaced.
    pub constants_folded: usize,
    /// Constant fan-ins dropped from n-ary gates.
    pub inputs_pruned: usize,
    /// Buffers collapsed into their drivers.
    pub buffers_collapsed: usize,
    /// Gates removed because no output depends on them.
    pub dead_gates_removed: usize,
}

impl OptStats {
    /// Total rewrites across all passes.
    pub fn total(&self) -> usize {
        self.constants_folded
            + self.inputs_pruned
            + self.buffers_collapsed
            + self.dead_gates_removed
    }
}

/// Runs constant propagation, buffer collapsing and the dead-logic sweep
/// to a fixpoint. Primary inputs (including key inputs) and primary
/// outputs keep their nets and names.
///
/// # Errors
///
/// Propagates structural errors (cyclic netlists).
pub fn optimize(nl: &mut Netlist) -> Result<OptStats, NetlistError> {
    let mut stats = OptStats::default();
    loop {
        let mut changed = 0;
        let folded = propagate_constants(nl)?;
        stats.constants_folded += folded.0;
        stats.inputs_pruned += folded.1;
        changed += folded.0 + folded.1;
        let buffers = collapse_buffers(nl);
        stats.buffers_collapsed += buffers;
        changed += buffers;
        if changed == 0 {
            break;
        }
    }
    let dead = sweep_dead(nl);
    stats.dead_gates_removed += dead;
    Ok(stats)
}

/// Folds gates with constant inputs. Returns
/// `(outputs replaced by constants, constant fan-ins pruned)`.
///
/// # Errors
///
/// Propagates structural errors (cyclic netlists).
pub fn propagate_constants(nl: &mut Netlist) -> Result<(usize, usize), NetlistError> {
    let order = nl.topo_order()?;
    // Constant value of a net, if proven.
    let mut value: HashMap<NetId, bool> = HashMap::new();
    for (id, net) in nl.nets() {
        if let Some(gid) = net.driver() {
            match nl.gate(gid).kind() {
                GateKind::Const0 => {
                    value.insert(id, false);
                }
                GateKind::Const1 => {
                    value.insert(id, true);
                }
                _ => {}
            }
        }
    }
    let mut folded = 0usize;
    let mut pruned = 0usize;
    for &gid in order.iter() {
        let gate = nl.gate(gid);
        let kind = gate.kind();
        if matches!(kind, GateKind::Const0 | GateKind::Const1 | GateKind::Dff) {
            continue;
        }
        let out = gate.output();
        let inputs = gate.inputs().to_vec();
        let known: Vec<Option<bool>> = inputs.iter().map(|n| value.get(n).copied()).collect();

        // Fully-constant gate → constant output.
        if known.iter().all(Option::is_some) {
            let bits: Vec<bool> = known.iter().map(|b| b.expect("checked")).collect();
            let v = kind.eval_bits(&bits);
            nl.remove_gate(gid);
            nl.add_gate(
                if v {
                    GateKind::Const1
                } else {
                    GateKind::Const0
                },
                &[],
                out,
            )?;
            value.insert(out, v);
            folded += 1;
            continue;
        }

        match kind {
            GateKind::And | GateKind::Nand => {
                if known.contains(&Some(false)) {
                    let v = kind == GateKind::Nand;
                    nl.remove_gate(gid);
                    nl.add_gate(
                        if v {
                            GateKind::Const1
                        } else {
                            GateKind::Const0
                        },
                        &[],
                        out,
                    )?;
                    value.insert(out, v);
                    folded += 1;
                } else {
                    pruned += prune_nary(nl, gid, &inputs, &known, true)?;
                }
            }
            GateKind::Or | GateKind::Nor => {
                if known.contains(&Some(true)) {
                    let v = kind == GateKind::Or;
                    nl.remove_gate(gid);
                    nl.add_gate(
                        if v {
                            GateKind::Const1
                        } else {
                            GateKind::Const0
                        },
                        &[],
                        out,
                    )?;
                    value.insert(out, v);
                    folded += 1;
                } else {
                    pruned += prune_nary(nl, gid, &inputs, &known, false)?;
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // Drop constant fan-ins, folding their parity into the kind.
                let survivors: Vec<NetId> = inputs
                    .iter()
                    .zip(&known)
                    .filter(|(_, k)| k.is_none())
                    .map(|(&n, _)| n)
                    .collect();
                let dropped = inputs.len() - survivors.len();
                if dropped == 0 {
                    continue;
                }
                let parity = known.iter().flatten().fold(false, |acc, &b| acc ^ b);
                let inverted = (kind == GateKind::Xnor) ^ parity;
                let new_kind = match survivors.len() {
                    0 => unreachable!("all-constant case handled above"),
                    1 => {
                        if inverted {
                            GateKind::Not
                        } else {
                            GateKind::Buf
                        }
                    }
                    _ => {
                        if inverted {
                            GateKind::Xnor
                        } else {
                            GateKind::Xor
                        }
                    }
                };
                nl.remove_gate(gid);
                nl.add_gate(new_kind, &survivors, out)?;
                pruned += dropped;
            }
            GateKind::Mux => {
                if let Some(sel) = known[0] {
                    let chosen = if sel { inputs[2] } else { inputs[1] };
                    nl.remove_gate(gid);
                    nl.add_gate(GateKind::Buf, &[chosen], out)?;
                    if let Some(&v) = value.get(&chosen) {
                        value.insert(out, v);
                    }
                    folded += 1;
                }
            }
            _ => {}
        }
    }
    Ok((folded, pruned))
}

/// Drops identity-element constant fan-ins (`1` for AND-family, `0` for
/// OR/XOR-family) from an n-ary gate, rebuilding it with the survivors.
fn prune_nary(
    nl: &mut Netlist,
    gid: GateId,
    inputs: &[NetId],
    known: &[Option<bool>],
    and_family: bool,
) -> Result<usize, NetlistError> {
    let identity = and_family; // AND: 1 is neutral; OR: 0 is neutral.
    let keep: Vec<NetId> = inputs
        .iter()
        .zip(known)
        .filter(|(_, k)| **k != Some(identity))
        .map(|(&n, _)| n)
        .collect();
    let dropped = inputs.len() - keep.len();
    if dropped == 0 || keep.is_empty() {
        return Ok(0);
    }
    let kind = nl.gate(gid).kind();
    let out = nl.gate(gid).output();
    let new_kind = if keep.len() == 1 {
        match kind {
            GateKind::And | GateKind::Or => GateKind::Buf,
            GateKind::Nand | GateKind::Nor => GateKind::Not,
            other => other,
        }
    } else {
        kind
    };
    nl.remove_gate(gid);
    nl.add_gate(new_kind, &keep, out)?;
    Ok(dropped)
}

/// Collapses `BUF` gates whose output is not a primary output: consumers
/// are redirected to the buffer's input. Returns the number collapsed.
pub fn collapse_buffers(nl: &mut Netlist) -> usize {
    let candidates: Vec<GateId> = nl
        .gates()
        .filter(|(_, g)| g.kind() == GateKind::Buf && !nl.outputs().contains(&g.output()))
        .map(|(id, _)| id)
        .collect();
    let mut collapsed = 0;
    for gid in candidates {
        let gate = nl.gate(gid);
        let (src, out) = (gate.inputs()[0], gate.output());
        if src == out {
            continue;
        }
        nl.remove_gate(gid);
        nl.redirect_consumers(out, src);
        collapsed += 1;
    }
    collapsed
}

/// Removes every gate that no primary output transitively depends on.
/// Returns the number removed.
pub fn sweep_dead(nl: &mut Netlist) -> usize {
    let mut live_nets: HashSet<NetId> = nl.outputs().iter().copied().collect();
    let mut live_gates: HashSet<GateId> = HashSet::new();
    let mut stack: Vec<NetId> = live_nets.iter().copied().collect();
    while let Some(n) = stack.pop() {
        if let Some(gid) = nl.net(n).driver() {
            if live_gates.insert(gid) {
                for &inp in nl.gate(gid).inputs() {
                    if live_nets.insert(inp) {
                        stack.push(inp);
                    }
                }
            }
        }
    }
    let dead: Vec<GateId> = nl
        .gates()
        .filter(|(id, _)| !live_gates.contains(id))
        .map(|(id, _)| id)
        .collect();
    for gid in &dead {
        nl.remove_gate(*gid);
    }
    dead.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::parse_bench;
    use crate::CompiledSim;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn equivalent(before: &Netlist, after: &Netlist, patterns: usize) -> bool {
        let mut s1 = CompiledSim::new(before).expect("sim");
        let mut s2 = CompiledSim::new(after).expect("sim");
        let mut rng = StdRng::seed_from_u64(404);
        let nd = before.data_inputs().len();
        let nk = before.key_inputs().len();
        for _ in 0..patterns {
            let data: Vec<u64> = (0..nd).map(|_| rng.gen()).collect();
            let keys: Vec<u64> = (0..nk).map(|_| rng.gen()).collect();
            if s1.eval_words(&data, &keys) != s2.eval_words(&data, &keys) {
                return false;
            }
        }
        true
    }

    #[test]
    fn constants_fold_through_logic() {
        let text = "INPUT(a)\nOUTPUT(y)\nz = CONST0()\no = CONST1()\n\
                    t1 = AND(a, z)\nt2 = OR(t1, o)\ny = XOR(t2, z)\n";
        let mut nl = parse_bench("c", text).unwrap();
        let before = nl.clone();
        let stats = optimize(&mut nl).unwrap();
        assert!(stats.constants_folded >= 2, "{stats:?}");
        assert!(equivalent(&before, &nl, 4));
        // y is constant 1 now: its driver folds to CONST1.
        let y = nl.net_id("y").unwrap();
        let driver = nl.net(y).driver().unwrap();
        assert_eq!(nl.gate(driver).kind(), GateKind::Const1);
    }

    #[test]
    fn neutral_inputs_are_pruned() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\no = CONST1()\ny = AND(a, b, o)\n";
        let mut nl = parse_bench("c", text).unwrap();
        let before = nl.clone();
        let stats = optimize(&mut nl).unwrap();
        assert_eq!(stats.inputs_pruned, 1);
        assert!(equivalent(&before, &nl, 4));
        let y = nl.net_id("y").unwrap();
        let driver = nl.net(y).driver().unwrap();
        assert_eq!(nl.gate(driver).inputs().len(), 2);
    }

    #[test]
    fn mux_with_constant_select_becomes_wire() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nz = CONST0()\ny = MUX(z, a, b)\n";
        let mut nl = parse_bench("c", text).unwrap();
        let before = nl.clone();
        optimize(&mut nl).unwrap();
        assert!(equivalent(&before, &nl, 4));
        // Select 0 picks input `a`; a BUF driving a PO is retained.
        let y = nl.net_id("y").unwrap();
        let driver = nl.net(y).driver().unwrap();
        assert_eq!(nl.gate(driver).kind(), GateKind::Buf);
        assert_eq!(nl.gate(driver).inputs()[0], nl.net_id("a").unwrap());
    }

    #[test]
    fn dead_logic_is_swept() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ndead1 = AND(a, a)\ndead2 = XOR(dead1, a)\n";
        let mut nl = parse_bench("c", text).unwrap();
        let removed = sweep_dead(&mut nl);
        assert_eq!(removed, 2);
        assert_eq!(nl.gate_count(), 1);
        nl.validate().unwrap();
    }

    #[test]
    fn internal_buffers_collapse_but_po_buffers_stay() {
        let text = "INPUT(a)\nOUTPUT(y)\nt = BUF(a)\nu = BUF(t)\ny = BUF(u)\n";
        let mut nl = parse_bench("c", text).unwrap();
        let before = nl.clone();
        let stats = optimize(&mut nl).unwrap();
        assert_eq!(stats.buffers_collapsed, 2);
        assert!(equivalent(&before, &nl, 2));
        // The PO-driving buffer survives so `y` keeps its name.
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn tied_off_scan_logic_simplifies_away() {
        // The attacker_view idiom: SE tied to 0 makes SE-XOR stages
        // transparent; optimization should erase them.
        let text = "INPUT(a)\nKEYINPUT(kse)\nOUTPUT(y)\nse = CONST0()\n\
                    g = AND(se, kse)\ncore = NOT(a)\ny = XOR(core, g)\n";
        let mut nl = parse_bench("c", text).unwrap();
        let before = nl.clone();
        let stats = optimize(&mut nl).unwrap();
        assert!(stats.total() > 0);
        assert!(equivalent(&before, &nl, 4));
        // Only the NOT (plus possibly a PO buffer) remains live.
        assert!(nl.gate_count() <= 2, "{}", nl.gate_count());
    }

    #[test]
    fn optimization_preserves_random_circuits() {
        for seed in 0..30 {
            let mut nl = generators::random_circuit(seed, 6, 40, 5);
            let before = nl.clone();
            optimize(&mut nl).unwrap();
            nl.validate().unwrap();
            assert!(equivalent(&before, &nl, 8), "seed {seed}");
        }
    }

    #[test]
    fn benchmarks_shrink_or_stay_without_changing_function() {
        for name in ["c7552", "gps"] {
            let mut nl = generators::benchmark(name).unwrap();
            let before = nl.clone();
            let gates_before = nl.gate_count();
            optimize(&mut nl).unwrap();
            assert!(nl.gate_count() <= gates_before);
            assert!(equivalent(&before, &nl, 8), "{name}");
        }
    }
}
