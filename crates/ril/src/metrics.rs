//! Security and overhead metrics.
//!
//! * **Output corruptibility** — how wrong the circuit behaves under wrong
//!   keys (the paper argues RIL-Blocks beat one-point-function locks here).
//! * **Overhead model** — MUX / transistor / MTJ accounting behind the
//!   Section III-A claim that a few `8×8×8` blocks cost ~3× less than
//!   75 `2×2` blocks while being strictly harder to attack.

use crate::block::RilBlockSpec;
use crate::obfuscate::LockedCircuit;
use rand::Rng;
use ril_netlist::NetlistError;

/// Output corruption of a locked circuit under random wrong keys: the mean
/// fraction of differing (pattern, output-bit) pairs across `keys_sampled`
/// random keys × `patterns` 64-pattern words.
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn output_corruptibility<R: Rng>(
    locked: &LockedCircuit,
    keys_sampled: usize,
    patterns: usize,
    rng: &mut R,
) -> Result<f64, NetlistError> {
    let mut total = 0.0;
    for _ in 0..keys_sampled {
        let wrong = locked.keys.random_key(rng);
        total += keyed_corruption(locked, &wrong, patterns, rng)?;
    }
    Ok(total / keys_sampled.max(1) as f64)
}

/// Corruption of one specific candidate key vs. the correct key.
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn keyed_corruption<R: Rng>(
    locked: &LockedCircuit,
    key: &[bool],
    patterns: usize,
    rng: &mut R,
) -> Result<f64, NetlistError> {
    use ril_netlist::CompiledSim;
    let mut sim = CompiledSim::new(&locked.netlist)?;
    let correct: Vec<u64> = locked.keys.as_words();
    let wrong: Vec<u64> = key.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
    let has_se = locked.netlist.net_id(crate::obfuscate::SE_PIN).is_some();
    let n_data = locked.netlist.data_inputs().len();
    let mut diff = 0u64;
    let mut total = 0u64;
    for _ in 0..patterns {
        let mut data: Vec<u64> = (0..n_data).map(|_| rng.gen()).collect();
        if has_se {
            // SE pin is the last data input; keep it low (functional mode).
            let last = data.len() - 1;
            data[last] = 0;
        }
        let a = sim.eval_words(&data, &correct);
        let b = sim.eval_words(&data, &wrong);
        for (x, y) in a.iter().zip(&b) {
            diff += (x ^ y).count_ones() as u64;
            total += 64;
        }
    }
    Ok(diff as f64 / total.max(1) as f64)
}

/// Hardware cost of one obfuscation configuration in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadEstimate {
    /// 2:1 MUX count (switch boxes × 2 + LUT select trees × 3 + SE stage).
    pub muxes: usize,
    /// MOS transistor estimate.
    pub transistors: usize,
    /// MTJ count (2 per memory cell, 4 cells + optional SE cell per LUT).
    pub mtjs: usize,
    /// Key bits.
    pub key_bits: usize,
}

/// Analytic overhead of `blocks` RIL-Blocks of shape `spec` (paper
/// Section III-A / IV-E accounting; independent of the host circuit).
pub fn ril_overhead(spec: &RilBlockSpec, blocks: usize) -> OverheadEstimate {
    let banyan_boxes = (spec.width / 2) * spec.width.trailing_zeros() as usize;
    let networks = if spec.double_routing { 2 } else { 1 };
    let luts = spec.luts();
    let mux_per_block = networks * banyan_boxes * 2
        + luts * 3
        + if spec.scan_obfuscation {
            luts // the SE output stage is one 2:1 MUX per LUT
        } else {
            0
        };
    // Paper: 32 MOS + 4 MTJ per LUT memory column (2 MTJs per cell ×
    // (4 + SE) cells); each MUX ≈ 6 T (transmission gate + driver).
    let cells_per_lut = 4 + usize::from(spec.scan_obfuscation);
    let transistor_per_block = mux_per_block * 6 + luts * 32;
    let mtj_per_block = luts * cells_per_lut * 2;
    OverheadEstimate {
        muxes: blocks * mux_per_block,
        transistors: blocks * transistor_per_block,
        mtjs: blocks * mtj_per_block,
        key_bits: blocks * spec.keys_per_block(),
    }
}

/// Exhaustively counts functionally equivalent keys of a locked design by
/// enumerating the whole key space (only feasible for ≤ `max_bits` key
/// bits; returns `None` beyond that). Equivalence is judged by
/// `patterns × 64` random vectors — probabilistic, but false positives are
/// astronomically unlikely for non-trivial circuits.
///
/// The paper's Section III-A argues FullLock's switch-box inverter inflates
/// this count (a wrong inversion can be undone downstream); the
/// `key_redundancy` bench measures exactly that.
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn count_equivalent_keys(
    locked: &LockedCircuit,
    max_bits: usize,
    patterns: usize,
) -> Result<Option<usize>, NetlistError> {
    let k = locked.keys.len();
    if k > max_bits || k >= usize::BITS as usize {
        return Ok(None);
    }
    let mut count = 0usize;
    for mask in 0usize..(1 << k) {
        let key: Vec<bool> = (0..k).map(|i| (mask >> i) & 1 == 1).collect();
        if locked.equivalent_under_key(&key, patterns)? {
            count += 1;
        }
    }
    Ok(Some(count))
}

/// Per-key-bit observability: for each key bit, the fraction of
/// (pattern, output-bit) pairs that flip when only that bit is toggled
/// away from the correct key. Bits with zero observability are
/// SAT-attack-free lunch (they can never be learned from I/O); RIL-Blocks'
/// routing symmetry makes *pairs* of bits jointly unobservable while every
/// functional bit stays individually active.
#[cfg(test)]
fn key_bit_observability<R: Rng>(
    locked: &LockedCircuit,
    patterns: usize,
    rng: &mut R,
) -> Result<Vec<f64>, NetlistError> {
    let mut out = Vec::with_capacity(locked.keys.len());
    let correct = locked.keys.bits().to_vec();
    for bit in 0..correct.len() {
        let mut flipped = correct.clone();
        flipped[bit] = !flipped[bit];
        out.push(keyed_corruption(locked, &flipped, patterns, rng)?);
    }
    Ok(out)
}

/// The Section III-A comparison: `75 × 2×2` vs `3 × 8×8×8`.
#[cfg(test)]
fn paper_overhead_comparison() -> (OverheadEstimate, OverheadEstimate) {
    (
        ril_overhead(&RilBlockSpec::size_2x2(), 75),
        ril_overhead(&RilBlockSpec::size_8x8x8(), 3),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscate::Obfuscator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ril_netlist::generators;

    #[test]
    fn ril_blocks_have_high_corruptibility() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_8x8())
            .seed(2)
            .obfuscate(&host)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let c = output_corruptibility(&locked, 8, 4, &mut rng).unwrap();
        assert!(c > 0.02, "corruption {c} too low");
    }

    #[test]
    fn correct_key_has_zero_corruption() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .seed(3)
            .obfuscate(&host)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let c = keyed_corruption(&locked, locked.keys.bits(), 8, &mut rng).unwrap();
        assert_eq!(c, 0.0);
    }

    #[test]
    fn overhead_of_big_blocks_beats_many_small_ones() {
        let (small, big) = paper_overhead_comparison();
        // Section III-A: ~3× lower overhead for 3 × 8×8×8 vs 75 × 2×2.
        let ratio = small.muxes as f64 / big.muxes as f64;
        assert!(ratio > 1.5, "mux ratio {ratio}");
        assert!(small.transistors > big.transistors);
        // And the big blocks carry more key material (they are harder).
        assert!(big.key_bits > 75); // 3 × 40 = 120
    }

    #[test]
    fn key_bit_observability_profile() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(12)
            .obfuscate(&host)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let obs = key_bit_observability(&locked, 8, &mut rng).unwrap();
        assert_eq!(obs.len(), locked.key_width());
        // LUT config bits are individually observable (flipping one changes
        // a truth-table entry); at least most bits must corrupt something.
        let active = obs.iter().filter(|&&o| o > 0.0).count();
        assert!(
            active >= locked.key_width() / 2,
            "only {active} active bits"
        );
        // And observability is a probability.
        assert!(obs.iter().all(|&o| (0.0..=1.0).contains(&o)));
    }

    #[test]
    fn equivalent_key_counting() {
        // One 2x2 block: 5 key bits. At least the correct key and its
        // "swap routing + swap LUT halves" twin are equivalent.
        let host = generators::adder(6);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .seed(4)
            .obfuscate(&host)
            .unwrap();
        let n = count_equivalent_keys(&locked, 12, 8).unwrap().unwrap();
        assert!(n >= 2, "at least the swap-symmetric twin: {n}");
        assert!(n < 32, "not every key can be correct: {n}");
        // Too-wide key spaces are refused, not enumerated.
        let wide = Obfuscator::new(RilBlockSpec::size_8x8())
            .seed(4)
            .obfuscate(&host)
            .unwrap();
        assert_eq!(count_equivalent_keys(&wide, 12, 4).unwrap(), None);
    }

    #[test]
    fn fulllock_inverter_multiplies_correct_keys() {
        // The Section III-A critique, measured: on identical wires, the
        // RIL routing network has a unique correct key, while FullLock's
        // inversion bits admit additional correct keys (compensating
        // inversions along a line).
        use crate::baselines::{fulllock_lock, ril_routing_lock};
        let host = generators::adder(6);
        let ril = ril_routing_lock(&host, 4, 9).unwrap();
        assert!(ril.verify(8).unwrap());
        let ril_eq = count_equivalent_keys(&ril, 16, 8).unwrap().unwrap();
        let fl = fulllock_lock(&host, 4, 9).unwrap();
        assert!(fl.verify(8).unwrap());
        let fl_eq = count_equivalent_keys(&fl, 16, 8).unwrap().unwrap();
        assert!(
            fl_eq > ril_eq,
            "FullLock correct keys ({fl_eq}) should exceed RIL routing ({ril_eq})"
        );
    }

    #[test]
    fn overhead_accounting_consistency() {
        let o = ril_overhead(&RilBlockSpec::size_2x2(), 1);
        // 1 switch box × 2 MUX + 1 LUT × 3 MUX = 5 MUXes.
        assert_eq!(o.muxes, 5);
        assert_eq!(o.key_bits, 5);
        assert_eq!(o.mtjs, 8);
        let o = ril_overhead(&RilBlockSpec::size_8x8x8().with_scan(true), 1);
        // 2 × 12 boxes × 2 + 4 LUT × 3 + 4 SE = 48 + 12 + 4 = 64.
        assert_eq!(o.muxes, 64);
        assert_eq!(o.key_bits, 44);
        assert_eq!(o.mtjs, 4 * 5 * 2);
    }
}
