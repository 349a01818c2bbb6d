//! End-to-end obfuscation: benchmark in → locked netlist + keys out.

use crate::block::{insert_block, BlockMeta, ObfuscateError, RilBlockSpec};
use crate::insertion::{select_gates, InsertionPolicy};
use crate::key::KeyStore;
use crate::morph::MorphDelta;
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
    /// SAT-based equivalence checker: key inputs are pinned to `key`, the
    /// `SE` pin (if present) to 0, and the miter must be UNSAT. Stronger
    /// than the random-pattern [`LockedCircuit::verify`] but costlier.
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
        let mut verifier = self.formal_verifier(timeout)?;
        verifier.check_with(&self.key_assignment(key))
    }

    /// Builds a reusable formal verifier for this circuit pair: the miter
    /// `original` vs `locked` in one live [`ril_sat::EquivSession`] with
    /// `SE` pinned to functional mode and the key inputs left free, so
    /// each candidate key is just an assumption set for
    /// [`ril_sat::EquivSession::check_with`]. Checking many keys (key
    /// sweeps, attack evaluation) against one warm verifier pays miter
    /// encoding and solver construction once, not per key.
    ///
    /// # Errors
    ///
    /// Propagates equivalence-checking errors (port mismatches cannot
    /// occur for circuits produced by [`Obfuscator`]).
    pub fn formal_verifier(
        &self,
        timeout: Option<std::time::Duration>,
    ) -> Result<ril_sat::EquivSession, ril_sat::EquivError> {
        ril_sat::EquivSession::new(&self.original, &self.netlist, &self.equiv_options(timeout))
    }

    /// The miter options shared by [`LockedCircuit::formal_verifier`] and
    /// [`MorphVerifier`]: key inputs free (ignored on the original side),
    /// `SE` pinned to functional mode.
    fn equiv_options(&self, timeout: Option<std::time::Duration>) -> ril_sat::EquivOptions {
        let mut ignore: Vec<String> = self
            .netlist
            .key_inputs()
            .iter()
            .map(|&n| self.netlist.net(n).name().to_string())
            .collect();
        let mut fixed = Vec::new();
        if self.netlist.net_id(SE_PIN).is_some() {
            fixed.push((SE_PIN.to_string(), false));
        }
        ignore.extend(fixed.iter().map(|(n, _)| n.clone()));
        ril_sat::EquivOptions {
            timeout,
            ignore_inputs: ignore,
            fixed_inputs: fixed,
            ..ril_sat::EquivOptions::default()
        }
    }

    /// Builds an *incremental* post-morph verifier: the miter ports are
    /// matched once, but output cones are only encoded into the live SAT
    /// session when a check first touches them. After a morph,
    /// [`MorphVerifier::verify_after`] re-checks only the outputs whose
    /// cones read a changed key bit (per [`crate::morph::MorphDelta`] and
    /// the netlist's cached key analysis) — sound because a morph changes
    /// key *values* only, so an output whose cone reads no changed bit
    /// computes the same function it did when last verified.
    ///
    /// # Errors
    ///
    /// Propagates equivalence-checking errors (port mismatches cannot
    /// occur for circuits produced by [`Obfuscator`]).
    pub fn incremental_verifier(
        &self,
        timeout: Option<std::time::Duration>,
    ) -> Result<MorphVerifier, ril_sat::EquivError> {
        MorphVerifier::new(self, timeout)
    }

    /// The `(key input name, value)` pin list for a candidate key, in the
    /// shape [`ril_sat::EquivSession::check_with`] expects.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the key width.
    pub fn key_assignment(&self, key: &[bool]) -> Vec<(String, bool)> {
        assert_eq!(key.len(), self.keys.len(), "key width mismatch");
        self.netlist
            .key_inputs()
            .iter()
            .zip(key)
            .map(|(&n, &v)| (self.netlist.net(n).name().to_string(), v))
            .collect()
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

/// Incremental post-morph formal verifier (built by
/// [`LockedCircuit::incremental_verifier`]).
///
/// Wraps a [`ril_sat::EquivSession`] — a lazily-encoded `original` vs
/// `locked` miter over one live incremental SAT session — together with
/// the locked design's cached key analysis, so a
/// [`MorphDelta`] maps directly to the subset of outputs whose cones must
/// be re-checked. Clean outputs keep their previous verdict: a morph only
/// changes key *values*, and an output whose cone reads no changed bit
/// still computes the function that was last certified.
#[derive(Debug)]
pub struct MorphVerifier {
    session: ril_sat::EquivSession,
    /// Locked-netlist output index → miter output index. Miter pairs
    /// follow the *original* netlist's output order; for circuits from
    /// [`Obfuscator`] the map is the identity, but it is derived by name
    /// so netlists with reordered outputs stay correct.
    out_map: Vec<usize>,
    keys: std::sync::Arc<ril_netlist::KeyAnalysis>,
    key_names: Vec<String>,
}

impl MorphVerifier {
    /// Matches the miter ports of `locked.original` vs `locked.netlist`
    /// (key inputs free, `SE` pinned to 0) without encoding any gate
    /// cones, and snapshots the locked netlist's key analysis.
    ///
    /// # Errors
    ///
    /// Propagates port-matching and encoding errors (cannot occur for circuits
    /// produced by [`Obfuscator`]).
    pub fn new(
        locked: &LockedCircuit,
        timeout: Option<std::time::Duration>,
    ) -> Result<MorphVerifier, ril_sat::EquivError> {
        let session = ril_sat::EquivSession::new(
            &locked.original,
            &locked.netlist,
            &locked.equiv_options(timeout),
        )?;
        let left_pos: std::collections::HashMap<&str, usize> = locked
            .original
            .outputs()
            .iter()
            .enumerate()
            .map(|(i, &o)| (locked.original.net(o).name(), i))
            .collect();
        let out_map = locked
            .netlist
            .outputs()
            .iter()
            .map(|&o| {
                let name = locked.netlist.net(o).name();
                *left_pos
                    .get(name)
                    .expect("port match above pairs every output by name")
            })
            .collect();
        Ok(MorphVerifier {
            session,
            out_map,
            keys: locked.netlist.key_analysis(),
            key_names: locked
                .netlist
                .key_inputs()
                .iter()
                .map(|&n| locked.netlist.net(n).name().to_string())
                .collect(),
        })
    }

    fn assignment(&self, key: &[bool]) -> Vec<(String, bool)> {
        assert_eq!(key.len(), self.key_names.len(), "key width mismatch");
        self.key_names
            .iter()
            .cloned()
            .zip(key.iter().copied())
            .collect()
    }

    /// Full formal check of `key` over every output (encodes all cones on
    /// first use). Call once after construction to certify the baseline
    /// the incremental checks then extend.
    ///
    /// # Errors
    ///
    /// Returns a port error only if the key names no longer match the
    /// miter's inputs (cannot occur for circuits produced by
    /// [`Obfuscator`]).
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the key width.
    pub fn verify(&mut self, key: &[bool]) -> Result<ril_sat::EquivResult, ril_sat::EquivError> {
        let assignment = self.assignment(key);
        self.session.check_with(&assignment)
    }

    /// Post-morph check: verifies `key` only on the outputs whose cones
    /// read a key bit changed by `delta`. An empty dirty set is vacuously
    /// [`ril_sat::EquivResult::Equivalent`] without touching the solver.
    ///
    /// # Errors
    ///
    /// Returns a port error only if the key names no longer match the
    /// miter's inputs (cannot occur for circuits produced by
    /// [`Obfuscator`]).
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the key width.
    pub fn verify_after(
        &mut self,
        delta: &MorphDelta,
        key: &[bool],
    ) -> Result<ril_sat::EquivResult, ril_sat::EquivError> {
        let dirty: Vec<usize> = self
            .keys
            .dirty_outputs(delta.changed_bits())
            .into_iter()
            .map(|o| self.out_map[o])
            .collect();
        let assignment = self.assignment(key);
        self.session.check_outputs(&dirty, &assignment)
    }

    /// Number of matched output pairs.
    pub fn outputs(&self) -> usize {
        self.session.outputs()
    }

    /// Output pairs whose cones have been encoded into the live session.
    pub fn encoded_outputs(&self) -> usize {
        self.session.encoded_outputs()
    }

    /// Number of solver queries answered (vacuous empty-set checks are
    /// free and not counted).
    pub fn checks(&self) -> usize {
        self.session.checks()
    }

    /// Cumulative solver statistics.
    pub fn stats(&self) -> ril_sat::SolverStats {
        self.session.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_netlist::generators;

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
        // Flip one LUT config bit: a concrete counterexample must exist.
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
            }
            other => panic!("wrong key verified: {other:?}"),
        }
    }

    #[test]
    fn formal_verifier_checks_many_keys_on_one_miter() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(8)
            .obfuscate(&host)
            .unwrap();
        let mut verifier = locked
            .formal_verifier(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        assert_eq!(
            verifier
                .check_with(&locked.key_assignment(locked.keys.bits()))
                .unwrap(),
            ril_sat::EquivResult::Equivalent
        );
        let lut_bits = locked
            .keys
            .indices_where(|k| matches!(k, crate::key::KeyBitKind::LutConfig { .. }));
        for &flip in lut_bits.iter().take(3) {
            let mut wrong = locked.keys.bits().to_vec();
            wrong[flip] = !wrong[flip];
            assert!(matches!(
                verifier.check_with(&locked.key_assignment(&wrong)).unwrap(),
                ril_sat::EquivResult::Inequivalent { .. }
            ));
        }
        // One miter encoding answered every query.
        assert_eq!(verifier.checks(), 4);
    }

    #[test]
    fn incremental_verifier_tracks_morphs_lazily() {
        let host = generators::multiplier(6);
        let mut locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .scan_obfuscation(true)
            .seed(8)
            .obfuscate(&host)
            .unwrap();
        let timeout = Some(std::time::Duration::from_secs(30));
        let mut verifier = locked.incremental_verifier(timeout).unwrap();
        assert_eq!(
            verifier.encoded_outputs(),
            0,
            "construction encodes no cones"
        );
        // Baseline: full check under the correct key.
        assert_eq!(
            verifier.verify(locked.keys.bits()).unwrap(),
            ril_sat::EquivResult::Equivalent
        );
        assert_eq!(verifier.encoded_outputs(), verifier.outputs());
        // Morph rounds: only dirty cones are re-checked, verdicts agree
        // with a full-miter verifier that checks every output each round.
        let mut full_verifier = locked.formal_verifier(timeout).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for round in 0..3 {
            let (_, delta) = crate::morph::morph_all_delta(&mut locked, &mut rng);
            let bits = locked.keys.bits().to_vec();
            let fast = verifier.verify_after(&delta, &bits).unwrap();
            let full = full_verifier
                .check_with(&locked.key_assignment(&bits))
                .unwrap();
            assert_eq!(fast, full, "round {round} verdicts diverge");
            assert_eq!(fast, ril_sat::EquivResult::Equivalent);
        }
        // A wrong key on a dirty cone must still be caught incrementally.
        let lut_bits = locked
            .keys
            .indices_where(|k| matches!(k, crate::key::KeyBitKind::LutConfig { .. }));
        let mut wrong = locked.keys.bits().to_vec();
        wrong[lut_bits[0]] = !wrong[lut_bits[0]];
        let delta = crate::morph::MorphDelta::between(locked.keys.bits(), &wrong);
        assert!(matches!(
            verifier.verify_after(&delta, &wrong).unwrap(),
            ril_sat::EquivResult::Inequivalent { .. }
        ));
        // Empty delta: vacuous pass, no extra solver query.
        let checks = verifier.checks();
        assert_eq!(
            verifier
                .verify_after(&crate::morph::MorphDelta::default(), locked.keys.bits())
                .unwrap(),
            ril_sat::EquivResult::Equivalent
        );
        assert_eq!(verifier.checks(), checks);
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
