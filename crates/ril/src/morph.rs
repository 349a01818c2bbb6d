//! Dynamic morphing: runtime re-keying that preserves functionality.
//!
//! Because RIL-Blocks are built from MRAM, the key can be *rewritten in the
//! field*. A morph changes the stored key while keeping the chip's I/O
//! behaviour identical, so any partial key knowledge an attacker
//! accumulated (power traces, probing, partial SAT progress) goes stale.
//! Three coordinated moves are used:
//!
//! 1. **Pair swap** — flip a last-stage switch box of the input banyan
//!    (it joins exactly the two lines feeding one LUT) and swap the LUT's
//!    truth-table halves to compensate.
//! 2. **Output re-route** (`N×N×N` blocks) — pick a different output-banyan
//!    key that still delivers each LUT's rail to its original port,
//!    complementing the LUT table when the complement rail is used.
//! 3. **SE re-roll** — re-randomize the Scan-Enable keys (they only shape
//!    scan-mode responses, never functional outputs).

use crate::banyan::BanyanNetwork;
use crate::block::BlockMeta;
use crate::key::KeyStore;
use crate::lut::{complement_lut, swap_lut_inputs};
use crate::obfuscate::LockedCircuit;
use rand::Rng;

/// What a morph operation changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorphReport {
    /// Input-banyan pair swaps applied (with truth-table compensation).
    pub pair_swaps: usize,
    /// Whether the output banyan was re-keyed.
    pub output_rerouted: usize,
    /// LUT tables complemented during output re-routing.
    pub complemented: usize,
    /// Scan-Enable keys re-rolled.
    pub se_rerolled: usize,
    /// Total key bits whose value changed.
    pub bits_changed: usize,
}

impl MorphReport {
    fn absorb(&mut self, other: MorphReport) {
        self.pair_swaps += other.pair_swaps;
        self.output_rerouted += other.output_rerouted;
        self.complemented += other.complemented;
        self.se_rerolled += other.se_rerolled;
        self.bits_changed += other.bits_changed;
    }
}

fn read_tt(keys: &KeyStore, meta: &BlockMeta, lut: usize) -> u8 {
    let mut tt = 0u8;
    for bit in 0..4 {
        if keys.bits()[meta.lut_key(lut, bit)] {
            tt |= 1 << bit;
        }
    }
    tt
}

fn write_tt(keys: &mut KeyStore, meta: &BlockMeta, lut: usize, tt: u8) -> usize {
    let mut changed = 0;
    for bit in 0..4 {
        let idx = meta.lut_key(lut, bit);
        let v = (tt >> bit) & 1 == 1;
        if keys.bits()[idx] != v {
            keys.set_bit(idx, v);
            changed += 1;
        }
    }
    changed
}

/// Morphs one block in place (mutates `locked.keys`). Functionality under
/// the new key is preserved by construction; tests verify it by simulation.
pub fn morph_block<R: Rng>(locked: &mut LockedCircuit, block: usize, rng: &mut R) -> MorphReport {
    let meta = locked.block_meta[block].clone();
    let banyan = BanyanNetwork::new(meta.spec.width);
    let mut report = MorphReport::default();

    // 1. Random pair swaps through the last input-banyan stage.
    for lut in 0..meta.spec.luts() {
        if rng.gen() {
            let key_idx = meta.first_key + banyan.last_stage_key_for_pair(lut);
            let old = locked.keys.bits()[key_idx];
            locked.keys.set_bit(key_idx, !old);
            let tt = read_tt(&locked.keys, &meta, lut);
            report.bits_changed += 1 + write_tt(&mut locked.keys, &meta, lut, swap_lut_inputs(tt));
            report.pair_swaps += 1;
        }
    }

    // 2. Output-banyan re-route (double-routing blocks only).
    if meta.spec.double_routing {
        let out_keys = meta.out_routing_keys();
        let current: Vec<bool> = out_keys.iter().map(|&i| locked.keys.bits()[i]).collect();
        // A key K2 is valid iff for every LUT slot j, its true rail (port
        // 2j) or complement rail (port 2j+1) routes to out_ports[j].
        let valid = |keys: &[bool]| -> Option<Vec<bool>> {
            let perm = banyan.route(keys);
            let mut complement = Vec::with_capacity(meta.spec.luts());
            for (j, &port) in meta.out_ports.iter().enumerate() {
                if perm[2 * j] == port {
                    complement.push(false);
                } else if perm[2 * j + 1] == port {
                    complement.push(true);
                } else {
                    return None;
                }
            }
            Some(complement)
        };
        let nk = out_keys.len();
        let mut candidates: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        if nk <= 16 {
            for mask in 0u64..(1 << nk) {
                let cand: Vec<bool> = (0..nk).map(|i| (mask >> i) & 1 == 1).collect();
                if cand == current {
                    continue;
                }
                if let Some(comp) = valid(&cand) {
                    candidates.push((cand, comp));
                }
            }
        } else {
            for _ in 0..4096 {
                let cand: Vec<bool> = (0..nk).map(|_| rng.gen()).collect();
                if cand == current {
                    continue;
                }
                if let Some(comp) = valid(&cand) {
                    candidates.push((cand, comp));
                }
            }
        }
        if !candidates.is_empty() {
            let (new_k2, comp) = candidates[rng.gen_range(0..candidates.len())].clone();
            let old_comp = valid(&current).expect("current key is valid");
            for (i, (&idx, &v)) in out_keys.iter().zip(&new_k2).enumerate() {
                let _ = i;
                if locked.keys.bits()[idx] != v {
                    locked.keys.set_bit(idx, v);
                    report.bits_changed += 1;
                }
            }
            for (j, (&new_c, &old_c)) in comp.iter().zip(&old_comp).enumerate() {
                if new_c != old_c {
                    let tt = read_tt(&locked.keys, &meta, j);
                    report.bits_changed += write_tt(&mut locked.keys, &meta, j, complement_lut(tt));
                    report.complemented += 1;
                }
            }
            report.output_rerouted = 1;
        }
    }

    // 3. Re-roll SE keys.
    if meta.spec.scan_obfuscation {
        for lut in 0..meta.spec.luts() {
            let idx = meta.se_key(lut);
            let new: bool = rng.gen();
            if locked.keys.bits()[idx] != new {
                locked.keys.set_bit(idx, new);
                report.bits_changed += 1;
            }
            report.se_rerolled += 1;
        }
    }
    report
}

/// Morphs every block of the design. Returns the merged report.
pub fn morph_all<R: Rng>(locked: &mut LockedCircuit, rng: &mut R) -> MorphReport {
    let mut report = MorphReport::default();
    for b in 0..locked.block_meta.len() {
        report.absorb(morph_block(locked, b, rng));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::RilBlockSpec;
    use crate::obfuscate::Obfuscator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ril_netlist::generators;

    fn morph_roundtrip(spec: RilBlockSpec, blocks: usize, seed: u64) {
        let host = generators::multiplier(6);
        let mut locked = Obfuscator::new(spec)
            .blocks(blocks)
            .seed(seed)
            .obfuscate(&host)
            .unwrap();
        assert!(locked.verify(16).unwrap());
        let before = locked.keys.bits().to_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let mut total_changed = 0;
        for round in 0..5 {
            let report = morph_all(&mut locked, &mut rng);
            total_changed += report.bits_changed;
            assert!(
                locked.verify(16).unwrap(),
                "{spec} morph round {round} broke equivalence"
            );
        }
        assert!(total_changed > 0, "{spec}: morphing never changed the key");
        assert_ne!(locked.keys.bits(), before.as_slice());
    }

    #[test]
    fn morph_preserves_function_2x2() {
        morph_roundtrip(RilBlockSpec::size_2x2(), 3, 1);
    }

    #[test]
    fn morph_preserves_function_8x8() {
        morph_roundtrip(RilBlockSpec::size_8x8(), 1, 2);
    }

    #[test]
    fn morph_preserves_function_8x8x8() {
        morph_roundtrip(RilBlockSpec::size_8x8x8(), 1, 3);
    }

    #[test]
    fn morph_preserves_function_with_scan() {
        morph_roundtrip(RilBlockSpec::size_8x8x8().with_scan(true), 1, 4);
    }

    #[test]
    fn morph_produces_distinct_equivalent_keys() {
        // Collect several morphs; all must be pairwise-distinct keys that
        // all unlock the circuit — the "many correct keys over time"
        // property of dynamic obfuscation.
        let host = generators::multiplier(6);
        let mut locked = Obfuscator::new(RilBlockSpec::size_8x8x8())
            .seed(9)
            .obfuscate(&host)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut seen = std::collections::HashSet::new();
        seen.insert(locked.keys.bits().to_vec());
        for _ in 0..6 {
            morph_all(&mut locked, &mut rng);
            assert!(locked.verify(8).unwrap());
            seen.insert(locked.keys.bits().to_vec());
        }
        assert!(seen.len() >= 3, "expected several distinct equivalent keys");
    }

    #[test]
    fn output_reroute_happens_for_double_routing() {
        let host = generators::multiplier(6);
        let mut locked = Obfuscator::new(RilBlockSpec::size_8x8x8())
            .seed(5)
            .obfuscate(&host)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(123);
        let mut rerouted = 0;
        for _ in 0..5 {
            let r = morph_block(&mut locked, 0, &mut rng);
            rerouted += r.output_rerouted;
            assert!(locked.verify(8).unwrap());
        }
        assert!(rerouted > 0, "output banyan was never re-keyed");
    }
}
