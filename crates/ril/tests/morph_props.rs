//! Property tests for dynamic morphing (DESIGN.md §12): on *random*
//! locked circuits, any sequence of morph applications must preserve
//! functional I/O equivalence — checked formally through a warm
//! [`ril_sat::EquivSession`] miter, not just by simulation — and every
//! morph that applied a key-changing move must report `bits_changed > 0`.
//!
//! The incremental [`ril_core::MorphVerifier`] and the full
//! `verify_formal` check run the same engine, so their agreement here is
//! a check of the dirty-output selection, not of the engine itself; the
//! engine is checked against exhaustive simulation in the workspace's
//! `tests/properties.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_core::{
    morph_all, morph_all_delta, LockedCircuit, MorphDelta, MorphReport, Obfuscator, RilBlockSpec,
};
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
    /// against the original netlist through one warm miter session.
    #[test]
    fn repeated_morphs_preserve_equivalence_2x2(seed in 0u64..500, blocks in 1usize..4) {
        let Some(mut locked) = random_locked(
            RilBlockSpec::size_2x2().with_scan(true), blocks, seed,
        ) else {
            // Host too small for this (blocks, seed) draw — vacuous case.
            return;
        };
        let mut verifier = locked
            .formal_verifier(Some(Duration::from_secs(20)))
            .expect("combinational miter");
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
            let verdict = verifier
                .check_with(&locked.key_assignment(&bits))
                .expect("known key inputs");
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
        let mut verifier = locked
            .formal_verifier(Some(Duration::from_secs(20)))
            .expect("combinational miter");
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
            let verdict = verifier
                .check_with(&locked.key_assignment(&bits))
                .expect("known key inputs");
            prop_assert_eq!(verdict, EquivResult::Equivalent, "round {} ({:?})", round, report);
        }
        // Three rounds of coin flips over ≥4 LUT pair-swap candidates:
        // at least one round must land a move, or the generator is broken.
        prop_assert!(applied > 0, "no morph round ever applied a move");
    }

    /// Incremental post-morph verification (dirty cones only, one live
    /// solver) must reach the same verdict as a fresh full check on every
    /// round of a random morph sequence — for both the correct
    /// morphed key and a perturbed (usually wrong) candidate.
    #[test]
    fn incremental_verifier_agrees_with_scratch(seed in 0u64..500, blocks in 1usize..3) {
        let Some(mut locked) = random_locked(
            RilBlockSpec::size_2x2().with_scan(true), blocks, seed,
        ) else {
            return;
        };
        let timeout = Some(Duration::from_secs(20));
        let mut inc = locked
            .incremental_verifier(timeout)
            .expect("combinational miter");
        // Baseline full check, then only dirty cones per round.
        prop_assert_eq!(
            inc.verify(locked.keys.bits()).expect("known ports"),
            EquivResult::Equivalent
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1235_DE17);
        let mut pending = MorphDelta::default();
        for round in 0..4 {
            let (_, delta) = morph_all_delta(&mut locked, &mut rng);
            // Half the rounds batch two deltas before re-checking, the
            // way a deployment re-verifies on a cadence, not per-morph.
            pending.merge(&delta);
            if round % 2 == 0 {
                continue;
            }
            let delta = std::mem::take(&mut pending);
            let bits = locked.keys.bits().to_vec();
            let fast = inc.verify_after(&delta, &bits).expect("known ports");
            let scratch = locked
                .verify_formal(&bits, timeout)
                .expect("known ports");
            prop_assert_eq!(&fast, &scratch, "round {}: verdicts diverge", round);
            prop_assert_eq!(&fast, &EquivResult::Equivalent, "round {}", round);

            // Perturb one key bit: both checkers must again agree (the
            // flipped cone is part of the re-checked dirty set by
            // construction of the delta).
            let flip = rng.gen_range(0..bits.len());
            let mut cand = bits.clone();
            cand[flip] = !cand[flip];
            let cand_delta = MorphDelta::between(&bits, &cand);
            let fast = inc.verify_after(&cand_delta, &cand).expect("known ports");
            let scratch = locked
                .verify_formal(&cand, timeout)
                .expect("known ports");
            // Verdict *kinds* must agree; concrete counterexamples may
            // legitimately differ between solver states.
            let agree = matches!(
                (&fast, &scratch),
                (EquivResult::Equivalent, EquivResult::Equivalent)
                    | (EquivResult::Inequivalent { .. }, EquivResult::Inequivalent { .. })
                    | (EquivResult::Unknown, EquivResult::Unknown)
            );
            prop_assert!(
                agree,
                "round {}: candidate verdicts diverge ({:?} vs {:?})",
                round, fast, scratch
            );
        }
    }
}
