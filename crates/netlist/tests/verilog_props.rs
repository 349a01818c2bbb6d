//! Property: the Verilog emit → import round trip is lossless — the
//! re-imported netlist has the same structural hash (same gates over the
//! same named nets, same port order) and the same simulation semantics
//! as the original, across random circuits spiced with every writer
//! special case (key inputs, `Lut2` sum-of-products, MUX ternaries,
//! constants).

use proptest::prelude::*;
use ril_netlist::generators::{const_net, random_circuit};
use ril_netlist::{parse_verilog, write_verilog, CompiledSim, GateKind, Netlist};

/// A random circuit extended with the constructs the Verilog writer
/// lowers specially: a key input (round-trips via the `// KEYINPUTS:`
/// header), a `Lut2` (emitted as a sum-of-products `assign`), a MUX
/// (ternary `assign`), and a constant. `tt` must be non-zero — an
/// all-zeros LUT legitimately collapses to a `1'b0` constant on emit,
/// which is a semantic round trip but not a structural one.
fn spiced(seed: u64, n_inputs: usize, n_gates: usize, tt: u8) -> Netlist {
    let mut nl = random_circuit(seed, n_inputs, n_gates, 1.max(n_gates / 4));
    let key = nl.add_key_input("keyinput0").expect("fresh key input");
    let a = nl.inputs()[0];
    let lut = nl
        .add_gate_fresh(GateKind::Lut2(tt), &[a, key], "vl")
        .expect("lut gate");
    let zero = const_net(&mut nl, false);
    let sel = nl.inputs()[n_inputs - 1];
    let mux = nl
        .add_gate_fresh(GateKind::Mux, &[sel, lut, zero], "vm")
        .expect("mux gate");
    nl.mark_output(mux);
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn verilog_round_trip_preserves_hash_and_semantics(
        seed in 0u64..10_000,
        n_inputs in 2usize..10,
        n_gates in 4usize..40,
        tt in 1u8..16,
        pattern_seed in any::<u64>(),
    ) {
        // Four input words derived from one sampled seed (splitmix64).
        let patterns: Vec<u64> = (0..4u64)
            .map(|i| {
                let mut z = pattern_seed
                    .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect();
        let nl = spiced(seed, n_inputs, n_gates, tt);
        let text = write_verilog(&nl);
        let back = parse_verilog(&text)
            .unwrap_or_else(|e| panic!("re-import failed: {e}\n{text}"));

        // Structural identity: same gates over the same named nets, same
        // port declarations in the same order.
        prop_assert_eq!(
            back.structural_hash(),
            nl.structural_hash(),
            "structural hash changed across the round trip:\n{}",
            text
        );
        prop_assert_eq!(back.key_inputs().len(), nl.key_inputs().len());
        prop_assert_eq!(back.gate_count(), nl.gate_count());

        // Semantic identity: identical outputs on random input patterns
        // (all inputs driven, key inputs included).
        let mut sim_a = CompiledSim::new(&nl).expect("original simulates");
        let mut sim_b = CompiledSim::new(&back).expect("re-import simulates");
        let width = nl.inputs().len();
        for p in &patterns {
            let bits: Vec<bool> = (0..width).map(|i| (p >> (i % 64)) & 1 == 1).collect();
            prop_assert_eq!(
                sim_a.eval_bits(&bits),
                sim_b.eval_bits(&bits),
                "simulation diverged on pattern {:#x}",
                p
            );
        }
    }

    #[test]
    fn round_trip_is_a_fixed_point(seed in 0u64..10_000) {
        // Emitting the re-imported netlist again must give byte-identical
        // Verilog: the round trip converges after one pass.
        let nl = spiced(seed, 4, 12, 0x9);
        let text = write_verilog(&nl);
        let back = parse_verilog(&text).expect("re-import");
        prop_assert_eq!(write_verilog(&back), text);
    }
}
