//! Property tests for dynamic morphing (DESIGN.md §12): on *random*
//! locked circuits, any sequence of morph applications must preserve
//! functional I/O equivalence — checked formally by
//! [`LockedCircuit::verify_formal`], not just by simulation — and every
//! morph that applied a key-changing move must report `bits_changed > 0`.
//! The equivalence engine itself is checked against exhaustive simulation
//! in the workspace's `tests/properties.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ril_core::{morph_all, LockedCircuit, MorphReport, Obfuscator, RilBlockSpec};
use ril_netlist::generators;
use ril_sat::EquivResult;
use std::time::Duration;

/// Locks a random host with `blocks` blocks of `spec`, retrying nearby
/// seeds when the sampled host is too small to place that many
/// independent blocks (a property of the host draw, not a failure).
fn random_locked(spec: RilBlockSpec, blocks: usize, seed: u64) -> Option<LockedCircuit> {
    let host = generators::random_circuit(seed, 8, 64, 6);
    (0..8).find_map(|bump| {
        Obfuscator::new(spec)
            .blocks(blocks)
            .seed(seed.wrapping_add(bump))
            .obfuscate(&host)
            .ok()
    })
}

/// A morph "applied a move" when it touched something that must, by
/// construction, flip at least one key bit: a pair swap always flips the
/// banyan bit it targets, and an output re-route only picks candidate
/// keys different from the current one. (`se_rerolled` alone does not
/// qualify — a re-roll may draw every bit's old value.)
fn key_changing_move_applied(report: &MorphReport) -> bool {
    report.pair_swaps > 0 || report.output_rerouted > 0 || report.complemented > 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 2×2 blocks with the scan stage on: every prefix of a morph
    /// sequence leaves the stored key functionally correct, verified
    /// formally against the original netlist.
    #[test]
    fn repeated_morphs_preserve_equivalence_2x2(seed in 0u64..500, blocks in 1usize..4) {
        let Some(mut locked) = random_locked(
            RilBlockSpec::size_2x2().with_scan(true), blocks, seed,
        ) else {
            // Host too small for this (blocks, seed) draw — vacuous case.
            return;
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4d4f_5250);
        for round in 0..4 {
            let report = morph_all(&mut locked, &mut rng);
            if key_changing_move_applied(&report) {
                prop_assert!(
                    report.bits_changed > 0,
                    "round {round}: moves applied ({report:?}) but no bit changed"
                );
            }
            let bits = locked.keys.bits().to_vec();
            let verdict = locked
                .verify_formal(&bits, Some(Duration::from_secs(20)))
                .expect("combinational miter");
            prop_assert_eq!(
                verdict,
                EquivResult::Equivalent,
                "round {} broke functional equivalence ({:?})",
                round,
                report
            );
        }
    }

    /// 8×8×8 blocks (double routing): output re-routes and table
    /// complements must also keep the miter UNSAT on every round.
    #[test]
    fn repeated_morphs_preserve_equivalence_8x8x8(seed in 0u64..500) {
        let Some(mut locked) = random_locked(RilBlockSpec::size_8x8x8(), 1, seed) else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6f_7270);
        let mut applied = 0usize;
        for round in 0..3 {
            let report = morph_all(&mut locked, &mut rng);
            if key_changing_move_applied(&report) {
                applied += 1;
                prop_assert!(
                    report.bits_changed > 0,
                    "round {round}: moves applied ({report:?}) but no bit changed"
                );
            }
            let bits = locked.keys.bits().to_vec();
            let verdict = locked
                .verify_formal(&bits, Some(Duration::from_secs(20)))
                .expect("combinational miter");
            prop_assert_eq!(verdict, EquivResult::Equivalent, "round {} ({:?})", round, report);
        }
        // Three rounds of coin flips over ≥4 LUT pair-swap candidates:
        // at least one round must land a move, or the generator is broken.
        prop_assert!(applied > 0, "no morph round ever applied a move");
    }
}
