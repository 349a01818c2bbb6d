//! End-to-end obfuscation: benchmark in → locked netlist + keys out.

use crate::block::{insert_block, BlockMeta, ObfuscateError, RilBlockSpec};
use crate::insertion::{select_gates, InsertionPolicy};
use crate::key::KeyStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_netlist::{CompiledSim, Netlist};

/// The conventional name of the scan-enable pin added to locked netlists.
pub const SE_PIN: &str = "SE";

/// Configurable obfuscation pipeline (builder pattern).
///
/// # Examples
///
/// ```
/// use ril_core::{Obfuscator, RilBlockSpec};
/// use ril_netlist::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let host = generators::adder(8);
/// let locked = Obfuscator::new(RilBlockSpec::size_8x8())
///     .blocks(1)
///     .seed(42)
///     .obfuscate(&host)?;
/// assert_eq!(locked.keys.len(), RilBlockSpec::size_8x8().keys_per_block());
/// assert!(locked.verify(32)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Obfuscator {
    spec: RilBlockSpec,
    blocks: usize,
    policy: InsertionPolicy,
    seed: u64,
}

impl Obfuscator {
    /// Creates an obfuscator inserting one block of the given shape.
    pub fn new(spec: RilBlockSpec) -> Obfuscator {
        Obfuscator {
            spec,
            blocks: 1,
            policy: InsertionPolicy::Random,
            seed: 0,
        }
    }

    /// Sets the number of RIL-Blocks to insert.
    pub fn blocks(mut self, blocks: usize) -> Obfuscator {
        self.blocks = blocks;
        self
    }

    /// Sets the gate-selection policy.
    pub fn policy(mut self, policy: InsertionPolicy) -> Obfuscator {
        self.policy = policy;
        self
    }

    /// Enables the Scan-Enable obfuscation stage on every LUT.
    pub fn scan_obfuscation(mut self, on: bool) -> Obfuscator {
        self.spec.scan_obfuscation = on;
        self
    }

    /// Sets the RNG seed (key values, routing configs, gate selection).
    pub fn seed(mut self, seed: u64) -> Obfuscator {
        self.seed = seed;
        self
    }

    /// Runs the pipeline on `original`.
    ///
    /// # Errors
    ///
    /// Returns [`ObfuscateError`] when the host lacks enough independent
    /// replaceable gates or a structural edit fails.
    pub fn obfuscate(&self, original: &Netlist) -> Result<LockedCircuit, ObfuscateError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut locked = original.clone();
        locked.set_name(format!("{}_locked", original.name()));
        let se_net = if self.spec.scan_obfuscation {
            Some(locked.add_input(SE_PIN).map_err(ObfuscateError::Netlist)?)
        } else {
            None
        };
        let mut keys = KeyStore::new();
        let mut block_meta = Vec::with_capacity(self.blocks);
        for b in 0..self.blocks {
            let gates = select_gates(&locked, self.spec.luts(), self.policy, &mut rng)?;
            let meta = insert_block(
                &mut locked,
                &mut keys,
                b,
                &self.spec,
                &gates,
                se_net,
                &mut rng,
            )?;
            block_meta.push(meta);
        }
        debug_assert!(locked.validate().is_ok());
        Ok(LockedCircuit {
            original: original.clone(),
            netlist: locked,
            keys,
            spec: self.spec,
            blocks: self.blocks,
            block_meta,
        })
    }
}

/// An obfuscated design: the locked netlist, its correct key, and the
/// pristine original (the defender's view; attacks only see `netlist` plus
/// an oracle).
#[derive(Debug, Clone)]
pub struct LockedCircuit {
    /// The pre-obfuscation netlist.
    pub original: Netlist,
    /// The locked netlist (key inputs declared as `KEYINPUT`s).
    pub netlist: Netlist,
    /// The correct key (tamper-proof memory contents).
    pub keys: KeyStore,
    /// Block shape used.
    pub spec: RilBlockSpec,
    /// Number of blocks inserted.
    pub blocks: usize,
    /// Per-block metadata (key layout, output ports) for dynamic morphing.
    pub block_meta: Vec<BlockMeta>,
}

impl LockedCircuit {
    /// Verifies functional equivalence of the locked circuit under the
    /// correct key (SE = 0) against the original, over `patterns` random
    /// 64-pattern words per input.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn verify(&self, patterns: usize) -> Result<bool, ril_netlist::NetlistError> {
        self.equivalent_under_key(self.keys.bits(), patterns)
    }

    /// Like [`LockedCircuit::verify`] but with an arbitrary candidate key —
    /// the success criterion of an attack.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the key width.
    pub fn equivalent_under_key(
        &self,
        key: &[bool],
        patterns: usize,
    ) -> Result<bool, ril_netlist::NetlistError> {
        assert_eq!(key.len(), self.keys.len(), "key width mismatch");
        let mut sim_orig = CompiledSim::new(&self.original)?;
        let mut sim_lock = CompiledSim::new(&self.netlist)?;
        let kw: Vec<u64> = key.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
        let n_data_orig = self.original.data_inputs().len();
        let has_se = self.netlist.net_id(SE_PIN).is_some();
        let mut rng = StdRng::seed_from_u64(0xE0_5EED);
        for _ in 0..patterns {
            let data: Vec<u64> = (0..n_data_orig).map(|_| rng.gen()).collect();
            let mut data_lock = data.clone();
            if has_se {
                data_lock.push(0);
            }
            let o1 = sim_orig.eval_words(&data, &[]);
            let o2 = sim_lock.eval_words(&data_lock, &kw);
            if o1 != o2 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// *Formally* verifies equivalence under a candidate key with the
    /// SAT-based equivalence checker: the key inputs are fixed to `key`
    /// and the `SE` pin (if present) to 0, so the hashed miter folds them
    /// as constants, and it must be UNSAT. Stronger than the
    /// random-pattern [`LockedCircuit::verify`]; under the correct key
    /// the lock folds back onto the host's own gates and the solver has
    /// nothing to search.
    ///
    /// # Errors
    ///
    /// Propagates equivalence-checking errors (port mismatches cannot
    /// occur for circuits produced by [`Obfuscator`]).
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the key width.
    pub fn verify_formal(
        &self,
        key: &[bool],
        timeout: Option<std::time::Duration>,
    ) -> Result<ril_sat::EquivResult, ril_sat::EquivError> {
        assert_eq!(key.len(), self.keys.len(), "key width mismatch");
        let mut fixed: Vec<(String, bool)> = self
            .netlist
            .key_inputs()
            .iter()
            .zip(key)
            .map(|(&n, &v)| (self.netlist.net(n).name().to_string(), v))
            .collect();
        if self.netlist.net_id(SE_PIN).is_some() {
            fixed.push((SE_PIN.to_string(), false));
        }
        let options = ril_sat::EquivOptions {
            timeout,
            fixed_inputs: fixed,
            ..ril_sat::EquivOptions::default()
        };
        ril_sat::check_equivalence(&self.original, &self.netlist, &options)
    }

    /// Gate-count overhead of the locking (locked − original).
    pub fn gate_overhead(&self) -> usize {
        self.netlist
            .gate_count()
            .saturating_sub(self.original.gate_count())
    }

    /// Key width.
    pub fn key_width(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_netlist::generators;
    use ril_sat::{HashedEncoder, Lit};

    #[test]
    fn single_2x2_block_end_to_end() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .seed(7)
            .obfuscate(&host)
            .unwrap();
        assert!(locked.verify(16).unwrap());
        assert_eq!(locked.key_width(), 5);
        assert!(locked.gate_overhead() > 0);
    }

    #[test]
    fn multiple_blocks_accumulate_keys() {
        let host = generators::multiplier(6);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(10)
            .seed(3)
            .obfuscate(&host)
            .unwrap();
        assert_eq!(locked.key_width(), 10 * 5);
        assert_eq!(locked.blocks, 10);
        assert!(locked.verify(16).unwrap());
    }

    #[test]
    fn large_blocks_with_scan_on_real_benchmark() {
        let host = generators::benchmark("c7552").unwrap();
        let locked = Obfuscator::new(RilBlockSpec::size_8x8x8())
            .blocks(2)
            .scan_obfuscation(true)
            .seed(99)
            .obfuscate(&host)
            .unwrap();
        locked.netlist.validate().unwrap();
        assert!(locked.verify(8).unwrap());
        let per_block = RilBlockSpec::size_8x8x8().with_scan(true).keys_per_block();
        assert_eq!(locked.key_width(), 2 * per_block);
    }

    #[test]
    fn wrong_key_usually_inequivalent() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_8x8())
            .seed(21)
            .obfuscate(&host)
            .unwrap();
        // Flip one LUT config bit: function changes.
        let mut wrong = locked.keys.bits().to_vec();
        let lut_bits = locked
            .keys
            .indices_where(|k| matches!(k, crate::key::KeyBitKind::LutConfig { .. }));
        wrong[lut_bits[0]] = !wrong[lut_bits[0]];
        assert!(!locked.equivalent_under_key(&wrong, 32).unwrap());
    }

    #[test]
    fn determinism_by_seed() {
        let host = generators::adder(8);
        let a = Obfuscator::new(RilBlockSpec::size_2x2())
            .seed(5)
            .obfuscate(&host)
            .unwrap();
        let b = Obfuscator::new(RilBlockSpec::size_2x2())
            .seed(5)
            .obfuscate(&host)
            .unwrap();
        assert_eq!(
            ril_netlist::write_bench(&a.netlist),
            ril_netlist::write_bench(&b.netlist)
        );
        assert_eq!(a.keys, b.keys);
        let c = Obfuscator::new(RilBlockSpec::size_2x2())
            .seed(6)
            .obfuscate(&host)
            .unwrap();
        assert_ne!(
            ril_netlist::write_bench(&a.netlist),
            ril_netlist::write_bench(&c.netlist)
        );
    }

    #[test]
    fn formal_verification_certifies_correct_key_and_refutes_wrong_one() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .scan_obfuscation(true)
            .seed(8)
            .obfuscate(&host)
            .unwrap();
        let ok = locked
            .verify_formal(locked.keys.bits(), Some(std::time::Duration::from_secs(30)))
            .unwrap();
        assert_eq!(ok, ril_sat::EquivResult::Equivalent);
        // Flip one LUT config bit: a concrete counterexample must exist,
        // over the original's inputs, and the two circuits must disagree
        // on it in simulation (the locked one under the wrong key, SE = 0).
        let mut wrong = locked.keys.bits().to_vec();
        let lut_bits = locked
            .keys
            .indices_where(|k| matches!(k, crate::key::KeyBitKind::LutConfig { .. }));
        wrong[lut_bits[0]] = !wrong[lut_bits[0]];
        match locked
            .verify_formal(&wrong, Some(std::time::Duration::from_secs(30)))
            .unwrap()
        {
            ril_sat::EquivResult::Inequivalent { counterexample } => {
                assert_eq!(counterexample.len(), host.data_inputs().len());
                assert!(separates(&locked, &wrong, &counterexample));
            }
            other => panic!("wrong key verified: {other:?}"),
        }
    }

    /// Whether `locked` under `key` (SE = 0) and its original disagree on
    /// `pattern`, given over the original's inputs.
    fn separates(locked: &LockedCircuit, key: &[bool], pattern: &[bool]) -> bool {
        let value: std::collections::HashMap<&str, bool> = locked
            .original
            .inputs()
            .iter()
            .zip(pattern)
            .map(|(&n, &b)| (locked.original.net(n).name(), b))
            .collect();
        let data: Vec<bool> = locked
            .netlist
            .data_inputs()
            .iter()
            .map(|&n| value.get(locked.netlist.net(n).name()) == Some(&true))
            .collect();
        let original = CompiledSim::new(&locked.original)
            .unwrap()
            .eval_bits(pattern);
        let under_key = CompiledSim::new(&locked.netlist)
            .unwrap()
            .eval_pattern(&data, key);
        original != under_key
    }

    #[test]
    fn verify_formal_refutes_single_lut_bit_flips() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(8)
            .obfuscate(&host)
            .unwrap();
        let timeout = Some(std::time::Duration::from_secs(30));
        let lut_bits = locked
            .keys
            .indices_where(|k| matches!(k, crate::key::KeyBitKind::LutConfig { .. }));
        for &flip in lut_bits.iter().take(3) {
            let mut wrong = locked.keys.bits().to_vec();
            wrong[flip] = !wrong[flip];
            match locked.verify_formal(&wrong, timeout).unwrap() {
                ril_sat::EquivResult::Inequivalent { counterexample } => {
                    assert!(separates(&locked, &wrong, &counterexample), "bit {flip}");
                }
                other => panic!("bit {flip}: wrong key verified: {other:?}"),
            }
        }
    }

    /// The output literals of `locked.original` and of `locked.netlist`
    /// under `key` (SE = 0), encoded through one hashed encoder from
    /// shared data-input literals.
    fn folded_outputs(locked: &LockedCircuit, key: &[bool]) -> (Vec<Lit>, Vec<Lit>) {
        let mut cnf = ril_sat::Cnf::new();
        let mut encoder = HashedEncoder::new(&mut cnf);
        let data: std::collections::HashMap<&str, Lit> = locked
            .original
            .inputs()
            .iter()
            .map(|&n| (locked.original.net(n).name(), cnf.new_var().positive()))
            .collect();
        let original_inputs: Vec<Lit> = locked
            .original
            .inputs()
            .iter()
            .map(|&n| data[locked.original.net(n).name()])
            .collect();
        let locked_inputs: Vec<Lit> = locked
            .netlist
            .inputs()
            .iter()
            .map(|&n| {
                let pin = locked.netlist.net(n).name();
                match locked.netlist.key_inputs().iter().position(|&k| k == n) {
                    Some(bit) => encoder.constant(key[bit]),
                    None if pin == SE_PIN => encoder.constant(false),
                    None => data[pin],
                }
            })
            .collect();
        let original = encoder
            .encode(&mut cnf, &locked.original, &original_inputs)
            .unwrap();
        let under_key = encoder
            .encode(&mut cnf, &locked.netlist, &locked_inputs)
            .unwrap();
        (original, under_key)
    }

    /// Checks that the correct key folds `locked` onto its original's
    /// output literals (so `verify_formal` needs no search) and that
    /// `verify_formal` certifies it.
    fn assert_correct_key_folds(locked: &LockedCircuit, at: &str) {
        let (original, under_key) = folded_outputs(locked, locked.keys.bits());
        assert_eq!(
            original, under_key,
            "{at}: the correct key leaves logic to search"
        );
        assert_eq!(
            locked.verify_formal(locked.keys.bits(), None).unwrap(),
            ril_sat::EquivResult::Equivalent,
            "{at}"
        );
    }

    #[test]
    fn correct_key_folds_onto_the_host_across_morph_generations() {
        // c7552 under 4 × 2x2 blocks, re-keyed by eight morphs: every
        // generation's key folds the lock away, and a single-bit key
        // corruption is refuted with a counterexample simulation confirms.
        let host = generators::benchmark("c7552").unwrap();
        let mut locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(4)
            .seed(2024)
            .obfuscate(&host)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2024 ^ 0x006d_6f72_7068);
        assert_correct_key_folds(&locked, "generation 0");
        for generation in 1..=8 {
            crate::morph::morph_all(&mut locked, &mut rng);
            assert_correct_key_folds(&locked, &format!("generation {generation}"));
        }
        // Some single bits are key-redundant (their flip is another
        // correct key), so probe bits until one is refuted.
        let refuted = (0..locked.key_width()).find_map(|bit| {
            let mut wrong = locked.keys.bits().to_vec();
            wrong[bit] = !wrong[bit];
            match locked.verify_formal(&wrong, None).unwrap() {
                ril_sat::EquivResult::Inequivalent { counterexample } => {
                    Some(separates(&locked, &wrong, &counterexample))
                }
                _ => None,
            }
        });
        assert_eq!(refuted, Some(true), "no single-bit corruption was refuted");
    }

    #[test]
    fn correct_key_folds_onto_the_host_on_table1_locks() {
        // Table I's c7552 locks: each spec at 1 and 4 blocks, lock seed
        // 1000 + count.
        let host = generators::benchmark("c7552").unwrap();
        for spec in [
            RilBlockSpec::size_2x2(),
            RilBlockSpec::size_8x8(),
            RilBlockSpec::size_8x8x8(),
        ] {
            for count in [1, 4] {
                let locked = Obfuscator::new(spec)
                    .blocks(count)
                    .seed(1000 + count as u64)
                    .obfuscate(&host)
                    .unwrap();
                assert_correct_key_folds(&locked, &format!("{count} × {spec:?}"));
            }
        }
    }

    #[test]
    fn locked_bench_round_trips_with_keyinputs() {
        let host = generators::adder(6);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .seed(1)
            .obfuscate(&host)
            .unwrap();
        let text = ril_netlist::write_bench(&locked.netlist);
        let back = ril_netlist::parse_bench("locked", &text).unwrap();
        assert_eq!(back.key_inputs().len(), locked.key_width());
        assert_eq!(back.gate_count(), locked.netlist.gate_count());
    }
}
