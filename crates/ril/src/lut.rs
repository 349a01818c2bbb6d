//! Logical key-programmable LUTs and their SAT-simulation encodings.
//!
//! Two netlist materializations of a key-configured 2-input LUT, both from
//! the paper's Fig. 1 / Section II-B:
//!
//! * [`materialize_lut2`] — the compact **3-MUX select tree** over 4 key
//!   inputs (the encoding that makes MESO-style primitives cheap for the
//!   *attacker* to model);
//! * [`materialize_meso`] — the bulky **8-gates + 7-MUX** encoding of a
//!   statically-programmed MESO polymorphic device (3 key inputs choosing
//!   among 8 functions), reproduced to demonstrate the paper's motivation
//!   experiment: the same device, re-encoded as a LUT, falls to the SAT
//!   attack far faster.

use ril_netlist::{GateKind, NetId, Netlist, NetlistError};

/// Swaps the roles of inputs A and B in a 4-bit truth table
/// (minterm `a + 2b` convention): bits 1 and 2 exchange.
pub fn swap_lut_inputs(tt: u8) -> u8 {
    (tt & 0b1001) | ((tt & 0b0010) << 1) | ((tt & 0b0100) >> 1)
}

/// Complements a LUT function (`!f`).
pub fn complement_lut(tt: u8) -> u8 {
    !tt & 0xf
}

/// Materializes a key-programmable 2-input LUT as the 3-MUX select tree of
/// Fig. 1. `keys[i]` is the key net holding the output for minterm
/// `a + 2b = i`. Returns the LUT output net.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn materialize_lut2(
    nl: &mut Netlist,
    a: NetId,
    b: NetId,
    keys: [NetId; 4],
) -> Result<NetId, NetlistError> {
    // Select between minterms along A, then along B.
    let m0 = nl.add_gate_fresh(GateKind::Mux, &[a, keys[0], keys[1]], "lutm")?; // b = 0
    let m1 = nl.add_gate_fresh(GateKind::Mux, &[a, keys[2], keys[3]], "lutm")?; // b = 1
    nl.add_gate_fresh(GateKind::Mux, &[b, m0, m1], "luto")
}

/// Materializes a key-programmable M-input LUT as a full binary MUX tree:
/// `2^M` key inputs at the leaves, selected by `inputs[0]` (fastest) up to
/// `inputs[M-1]`. `keys[i]` holds the output for the minterm whose bit `j`
/// is `inputs[j]`'s value. The paper's Section IV-B notes that growing the
/// LUT beyond 2 inputs fortifies SAT-hardness while the shared write
/// circuit keeps the incremental overhead low.
///
/// Returns the LUT output net.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if `keys.len() != 2^inputs.len()` or `inputs` is empty.
pub fn materialize_lutm(
    nl: &mut Netlist,
    inputs: &[NetId],
    keys: &[NetId],
) -> Result<NetId, NetlistError> {
    assert!(!inputs.is_empty(), "LUT needs at least one input");
    assert_eq!(keys.len(), 1 << inputs.len(), "need 2^M key nets");
    let mut layer: Vec<NetId> = keys.to_vec();
    for &sel in inputs {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for pair in layer.chunks(2) {
            next.push(nl.add_gate_fresh(GateKind::Mux, &[sel, pair[0], pair[1]], "lutm")?);
        }
        layer = next;
    }
    Ok(layer[0])
}

/// The 8 boolean functions a statically-programmed MESO device offers, as
/// truth tables in the `a + 2b` convention, indexed by the 3-bit selector.
pub const MESO_FUNCTIONS: [u8; 8] = [
    0b1000, // AND
    0b1110, // OR
    0b0111, // NAND
    0b0001, // NOR
    0b0110, // XOR
    0b1001, // XNOR
    0b1100, // A (buffer)
    0b0011, // NOT A
];

/// Materializes a statically-programmed MESO polymorphic device in the
/// paper's original SAT-simulation form: the 8 candidate functions
/// instantiated as real gates, selected by a 7-MUX binary tree over 3 key
/// inputs. Returns the output net.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn materialize_meso(
    nl: &mut Netlist,
    a: NetId,
    b: NetId,
    keys: [NetId; 3],
) -> Result<NetId, NetlistError> {
    let mut leaves = Vec::with_capacity(8);
    for &tt in &MESO_FUNCTIONS {
        let kind = match tt {
            0b1000 => GateKind::And,
            0b1110 => GateKind::Or,
            0b0111 => GateKind::Nand,
            0b0001 => GateKind::Nor,
            0b0110 => GateKind::Xor,
            0b1001 => GateKind::Xnor,
            other => GateKind::Lut2(other),
        };
        let ins: Vec<NetId> = match kind {
            GateKind::Lut2(_) => vec![a, b],
            _ => vec![a, b],
        };
        leaves.push(nl.add_gate_fresh(kind, &ins, "meso")?);
    }
    // 7-MUX binary selection tree, key 0 = LSB.
    let mut layer = leaves;
    for &k in &keys {
        let mut next = Vec::with_capacity(layer.len() / 2);
        for pair in layer.chunks(2) {
            next.push(nl.add_gate_fresh(GateKind::Mux, &[k, pair[0], pair[1]], "mesom")?);
        }
        layer = next;
    }
    Ok(layer[0])
}

/// The MESO selector value whose function equals truth table `tt`, if any.
pub fn meso_selector_for(tt: u8) -> Option<u8> {
    MESO_FUNCTIONS
        .iter()
        .position(|&f| f == tt & 0xf)
        .map(|p| p as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_netlist::CompiledSim;

    fn lut_fixture(tt: u8) -> (Netlist, u8) {
        let mut nl = Netlist::new("lut_fixture");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let keys: Vec<NetId> = (0..4)
            .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
            .collect();
        let out = materialize_lut2(&mut nl, a, b, [keys[0], keys[1], keys[2], keys[3]]).unwrap();
        nl.mark_output(out);
        (nl, tt)
    }

    #[test]
    fn mux_tree_realizes_every_function() {
        for tt in 0u8..16 {
            let (nl, _) = lut_fixture(tt);
            let mut sim = CompiledSim::new(&nl).unwrap();
            let keys: Vec<bool> = (0..4).map(|i| (tt >> i) & 1 == 1).collect();
            for a in [false, true] {
                for b in [false, true] {
                    let out = sim.eval_pattern(&[a, b], &keys);
                    let expect = (tt >> ((a as u8) | ((b as u8) << 1))) & 1 == 1;
                    assert_eq!(out[0], expect, "tt={tt:04b} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn mux_tree_uses_exactly_three_muxes() {
        let (nl, _) = lut_fixture(0);
        let muxes = nl
            .gates()
            .filter(|(_, g)| g.kind() == GateKind::Mux)
            .count();
        assert_eq!(muxes, 3);
        assert_eq!(nl.gate_count(), 3);
    }

    #[test]
    fn lutm_generalizes_lut2() {
        // A 3-input LUT programmed with an arbitrary 8-bit table matches
        // direct truth-table evaluation for all inputs.
        for tt in [0b1011_0010u8, 0b0110_1001, 0xff, 0x00] {
            let mut nl = Netlist::new("lut3");
            let ins: Vec<NetId> = (0..3)
                .map(|i| nl.add_input(format!("x{i}")).unwrap())
                .collect();
            let keys: Vec<NetId> = (0..8)
                .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
                .collect();
            let out = materialize_lutm(&mut nl, &ins, &keys).unwrap();
            nl.mark_output(out);
            // 4 + 2 + 1 MUXes for a 3-input tree.
            assert_eq!(nl.gate_count(), 7);
            let mut sim = CompiledSim::new(&nl).unwrap();
            let keybits: Vec<bool> = (0..8).map(|i| (tt >> i) & 1 == 1).collect();
            for m in 0u8..8 {
                let data: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
                let got = sim.eval_pattern(&data, &keybits)[0];
                assert_eq!(got, (tt >> m) & 1 == 1, "tt={tt:08b} m={m:03b}");
            }
        }
    }

    #[test]
    fn lutm_matches_lut2_for_two_inputs() {
        for tt in 0u8..16 {
            let mut nl = Netlist::new("lutm2");
            let a = nl.add_input("a").unwrap();
            let b = nl.add_input("b").unwrap();
            let keys: Vec<NetId> = (0..4)
                .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
                .collect();
            let out = materialize_lutm(&mut nl, &[a, b], &keys).unwrap();
            nl.mark_output(out);
            let mut sim = CompiledSim::new(&nl).unwrap();
            let keybits: Vec<bool> = (0..4).map(|i| (tt >> i) & 1 == 1).collect();
            for m in 0u8..4 {
                let data: Vec<bool> = (0..2).map(|i| (m >> i) & 1 == 1).collect();
                let got = sim.eval_pattern(&data, &keybits)[0];
                assert_eq!(got, (tt >> m) & 1 == 1);
            }
        }
    }

    #[test]
    fn meso_encoding_has_fifteen_nodes() {
        let mut nl = Netlist::new("meso");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let keys: Vec<NetId> = (0..3)
            .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
            .collect();
        let out = materialize_meso(&mut nl, a, b, [keys[0], keys[1], keys[2]]).unwrap();
        nl.mark_output(out);
        // 8 function gates + 7 MUXes = 15 nodes (the "MUX with additional
        // 8 gates and 7 MUXes" of Section II-B).
        assert_eq!(nl.gate_count(), 15);
        let muxes = nl
            .gates()
            .filter(|(_, g)| g.kind() == GateKind::Mux)
            .count();
        assert_eq!(muxes, 7);
    }

    #[test]
    fn meso_realizes_its_eight_functions() {
        let mut nl = Netlist::new("meso");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let keys: Vec<NetId> = (0..3)
            .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
            .collect();
        let out = materialize_meso(&mut nl, a, b, [keys[0], keys[1], keys[2]]).unwrap();
        nl.mark_output(out);
        let mut sim = CompiledSim::new(&nl).unwrap();
        for sel in 0u8..8 {
            let tt = MESO_FUNCTIONS[sel as usize];
            let keybits: Vec<bool> = (0..3).map(|i| (sel >> i) & 1 == 1).collect();
            for av in [false, true] {
                for bv in [false, true] {
                    let got = sim.eval_pattern(&[av, bv], &keybits)[0];
                    let expect = (tt >> ((av as u8) | ((bv as u8) << 1))) & 1 == 1;
                    assert_eq!(got, expect, "sel={sel} a={av} b={bv}");
                }
            }
        }
    }

    #[test]
    fn selector_lookup() {
        assert_eq!(meso_selector_for(0b1000), Some(0)); // AND
        assert_eq!(meso_selector_for(0b0001), Some(3)); // NOR
        assert_eq!(meso_selector_for(0b1111), None); // const-1 not offered
    }

    #[test]
    fn input_swap_and_complement() {
        // XOR is symmetric; AND-NOT-B is not.
        assert_eq!(swap_lut_inputs(0b0110), 0b0110);
        assert_eq!(swap_lut_inputs(0b0010), 0b0100);
        assert_eq!(swap_lut_inputs(swap_lut_inputs(0b1101)), 0b1101);
        assert_eq!(complement_lut(0b1000), 0b0111);
        assert_eq!(complement_lut(complement_lut(0b1010)), 0b1010);
    }

    #[test]
    fn meso_tree_selection_order_is_lsb_first() {
        // Selector bit 0 must choose within adjacent leaf pairs.
        // Verified implicitly by meso_realizes_its_eight_functions, but
        // check one concrete case: sel=1 → OR.
        let mut nl = Netlist::new("meso");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let keys: Vec<NetId> = (0..3)
            .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
            .collect();
        let out = materialize_meso(&mut nl, a, b, [keys[0], keys[1], keys[2]]).unwrap();
        nl.mark_output(out);
        let mut sim = CompiledSim::new(&nl).unwrap();
        let got = sim.eval_pattern(&[true, false], &[true, false, false])[0];
        assert!(got); // OR(1,0) = 1
    }
}
