//! The activated-IC oracle of the threat model.
//!
//! The attacker owns an unlocked chip (correct key burned into tamper-proof
//! memory) and can apply inputs / observe outputs — for the combinational
//! threat model, through the scan interface. When the design carries the
//! Scan-Enable obfuscation, every scan access asserts `SE`, so the
//! responses the attacker records are corrupted by the hidden `MTJ_SE`
//! keys (paper Section III-C); normal functional operation (`SE = 0`) is
//! not observable bit-exactly by the attacker.

use ril_core::{LockedCircuit, SE_PIN};
use ril_netlist::{
    CompiledSim, GateKind, Netlist, NetlistError, PatternBlock, ResponseBlock, MAX_LANES,
};
use std::collections::HashMap;

/// A failed oracle access, as seen by an attack.
///
/// The in-process [`Oracle`] never fails; [`OracleError`] exists for
/// remote oracle sources (`ril-serve`'s `RemoteOracle`), whose transport
/// and protocol failures must surface to the attack loop as typed values
/// rather than panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The oracle's host rejected the request with a typed protocol error
    /// (unknown chip, rate limit, width mismatch, …).
    Protocol {
        /// Machine-readable error kind (the wire `kind` field).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The transport failed even after the client's bounded retries.
    Transport(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Protocol { kind, message } => {
                write!(f, "oracle protocol error [{kind}]: {message}")
            }
            OracleError::Transport(msg) => write!(f, "oracle transport error: {msg}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// A black-box oracle an oracle-guided attack can query.
///
/// Implemented by the in-process [`Oracle`] (infallible) and by
/// `ril-serve`'s `RemoteOracle` (fallible: network transport, morphing
/// target). The attack drivers ([`crate::satattack::sat_attack`],
/// [`crate::appsat::appsat_attack`], …) only speak this trait, so they run
/// unchanged against either.
pub trait OracleSource {
    /// Number of data inputs per query (excluding any hidden `SE` pin).
    fn input_width(&self) -> usize;
    /// Number of outputs per response.
    fn output_width(&self) -> usize;
    /// Applies one input pattern through the scan interface and returns
    /// the response.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures for remote sources; in-process
    /// oracles never fail.
    fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, OracleError>;
    /// Applies up to 64 lane-packed input patterns in one access and
    /// returns the lane-aligned responses, all answered under a single
    /// key generation (reported by [`OracleSource::generation`] after the
    /// call). Query accounting counts every lane as one pattern.
    ///
    /// The default implementation loops [`OracleSource::try_query`] per
    /// lane, so existing single-pattern sources keep working unchanged
    /// (at the cost of the uniform-generation guarantee: a source that
    /// morphs between individual queries can answer a looped block across
    /// generations). Batch-aware sources (the in-process [`Oracle`],
    /// `ril-serve`'s `RemoteOracle`) override it to answer the whole
    /// block in one simulator pass / wire round-trip.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures for remote sources; in-process
    /// oracles never fail.
    fn try_query_batch(&mut self, block: &PatternBlock) -> Result<ResponseBlock, OracleError> {
        let mut rows = Vec::with_capacity(block.lanes());
        for lane in 0..block.lanes() {
            rows.push(self.try_query(&block.lane(lane))?);
        }
        Ok(ResponseBlock::pack(&rows))
    }
    /// Chip accesses issued so far (cache hits excluded).
    fn queries(&self) -> u64;
    /// The target's key generation, when the source exposes one (a
    /// morphing remote chip bumps it on every re-key). `None` for static
    /// in-process oracles.
    fn generation(&self) -> Option<u64> {
        None
    }
}

/// Repeated-DIP memo entries kept per oracle before insertion stops.
/// Bounds memory on adversarial query streams; typical attacks stay far
/// below it.
const MEMO_CAP: usize = 4096;

/// Query-counting black-box oracle over an activated chip.
///
/// Holds only the compiled evaluation plan ([`CompiledSim`]) plus the
/// burned-in key — not a second [`Netlist`] clone. Repeated scan queries
/// for the same pattern are served from a bounded memo cache (the chip is
/// deterministic between re-keys), counted via the `oracle.cache_hit`
/// trace counter instead of touching the chip.
#[derive(Debug, Clone)]
pub struct Oracle {
    sim: CompiledSim,
    key_words: Vec<u64>,
    has_se: bool,
    scan_corrupted: bool,
    queries: u64,
    memo: HashMap<Vec<bool>, Vec<bool>>,
    memo_hits: u64,
    /// Lane-packed input/output word scratch reused across queries so the
    /// hot path allocates nothing beyond the returned response rows.
    data_scratch: Vec<u64>,
    out_scratch: Vec<u64>,
}

impl Oracle {
    /// Builds the oracle from a locked circuit (netlist + correct key).
    /// If the design has an `SE` pin, attack queries via
    /// [`Oracle::query`] assert it — the defense in action.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn new(locked: &LockedCircuit) -> Result<Oracle, NetlistError> {
        let sim = CompiledSim::new(&locked.netlist)?;
        Ok(Oracle {
            sim,
            key_words: locked.keys.as_words(),
            has_se: locked.netlist.net_id(SE_PIN).is_some(),
            scan_corrupted: true,
            queries: 0,
            memo: HashMap::new(),
            memo_hits: 0,
            data_scratch: Vec::new(),
            out_scratch: Vec::new(),
        })
    }

    /// Re-burns the key after a morph of the *same* design: the chip keeps
    /// its circuit but answers under the new key, so the memo cache is
    /// invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `locked`'s key width differs from the compiled design's.
    pub fn rekey(&mut self, locked: &LockedCircuit) {
        let words = locked.keys.as_words();
        assert_eq!(words.len(), self.key_words.len(), "rekey width mismatch");
        self.key_words = words;
        self.memo.clear();
    }

    /// Number of data inputs the oracle expects per query (excluding the
    /// SE pin).
    pub fn input_width(&self) -> usize {
        self.sim.data_width() - usize::from(self.has_se)
    }

    /// Number of outputs per response.
    pub fn output_width(&self) -> usize {
        self.sim.output_width()
    }

    fn eval(&mut self, inputs: &[bool], se: bool) -> Vec<bool> {
        self.data_scratch.clear();
        self.data_scratch
            .extend(inputs.iter().map(|&b| if b { u64::MAX } else { 0 }));
        if self.has_se {
            self.data_scratch.push(if se { u64::MAX } else { 0 });
        }
        self.sim
            .eval_words_into(&self.data_scratch, &self.key_words, &mut self.out_scratch);
        self.out_scratch.iter().map(|&w| w & 1 == 1).collect()
    }

    /// Applies one input pattern through the scan interface and returns
    /// the response. With the SE defense present and corruption enabled,
    /// `SE = 1` during the access. A repeated pattern is answered from
    /// the memo cache without a chip access (and without bumping
    /// [`Oracle::queries`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_width()`.
    pub fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.input_width(), "oracle input width");
        if let Some(cached) = self.memo.get(inputs) {
            self.memo_hits += 1;
            ril_trace::counter("oracle.cache_hit", 1);
            return cached.clone();
        }
        self.queries += 1;
        let response = self.eval(inputs, self.scan_corrupted);
        if self.memo.len() < MEMO_CAP {
            self.memo.insert(inputs.to_vec(), response.clone());
        }
        response
    }

    /// Answers up to 64 lane-packed patterns with (at most) one chip
    /// access: the memo is consulted per lane — exactly as if the lanes
    /// were queried sequentially through [`Oracle::query`], including
    /// in-block repeats hitting the entry an earlier lane inserts — and
    /// the remaining misses are re-packed into a partial block evaluated
    /// by a single [`CompiledSim::eval_words_into`] pass.
    ///
    /// Per-lane accounting matches the sequential path bit-for-bit: each
    /// miss bumps [`Oracle::queries`] by one, each hit bumps
    /// [`Oracle::cache_hits`], and misses populate the memo in lane order
    /// under the same cap. Emits the `oracle.batch.{blocks,patterns,
    /// lanes_wasted}` trace counters.
    ///
    /// # Panics
    ///
    /// Panics if `block.width() != self.input_width()`.
    pub fn query_block(&mut self, block: &PatternBlock) -> ResponseBlock {
        assert_eq!(block.width(), self.input_width(), "oracle input width");
        let lanes = block.lanes();
        ril_trace::counter("oracle.batch.blocks", 1);
        ril_trace::counter("oracle.batch.patterns", lanes as u64);
        ril_trace::counter("oracle.batch.lanes_wasted", (MAX_LANES - lanes) as u64);

        // Walk the lanes in order against the memo. `Err(j)` marks a lane
        // answered by miss `j` of the re-packed partial block; a repeated
        // in-block pattern whose first occurrence will be memo-inserted
        // counts as a cache hit, exactly as it would sequentially.
        let mut sources: Vec<Result<Vec<bool>, usize>> = Vec::with_capacity(lanes);
        let mut misses: Vec<(Vec<bool>, bool)> = Vec::new();
        let mut pending: HashMap<Vec<bool>, usize> = HashMap::new();
        let mut inserted = 0usize;
        for lane in 0..lanes {
            let pattern = block.lane(lane);
            if let Some(cached) = self.memo.get(&pattern) {
                self.memo_hits += 1;
                ril_trace::counter("oracle.cache_hit", 1);
                sources.push(Ok(cached.clone()));
            } else if let Some(&miss) = pending.get(&pattern) {
                self.memo_hits += 1;
                ril_trace::counter("oracle.cache_hit", 1);
                sources.push(Err(miss));
            } else {
                self.queries += 1;
                let miss = misses.len();
                let will_insert = self.memo.len() + inserted < MEMO_CAP;
                if will_insert {
                    pending.insert(pattern.clone(), miss);
                    inserted += 1;
                }
                misses.push((pattern, will_insert));
                sources.push(Err(miss));
            }
        }

        // One chip access answers every miss: miss `j` rides lane `j` of
        // the partial block.
        let miss_rows: Vec<Vec<bool>> = if misses.is_empty() {
            Vec::new()
        } else {
            let se = self.scan_corrupted;
            let width = self.input_width();
            self.data_scratch.clear();
            self.data_scratch
                .resize(width + usize::from(self.has_se), 0);
            for (j, (pattern, _)) in misses.iter().enumerate() {
                for (word, &bit) in self.data_scratch.iter_mut().zip(pattern) {
                    if bit {
                        *word |= 1u64 << j;
                    }
                }
            }
            if self.has_se && se {
                self.data_scratch[width] = u64::MAX;
            }
            self.sim
                .eval_words_into(&self.data_scratch, &self.key_words, &mut self.out_scratch);
            let out = &self.out_scratch;
            (0..misses.len())
                .map(|j| out.iter().map(|&w| (w >> j) & 1 == 1).collect())
                .collect()
        };
        for (j, (pattern, will_insert)) in misses.into_iter().enumerate() {
            if will_insert {
                self.memo.insert(pattern, miss_rows[j].clone());
            }
        }

        let rows: Vec<Vec<bool>> = sources
            .into_iter()
            .map(|src| match src {
                Ok(cached) => cached,
                Err(miss) => miss_rows[miss].clone(),
            })
            .collect();
        ResponseBlock::pack(&rows)
    }

    /// Queries issued so far (scan chip accesses; memo hits excluded).
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Scan queries answered from the memo cache instead of the chip.
    pub fn cache_hits(&self) -> u64 {
        self.memo_hits
    }
}

impl OracleSource for Oracle {
    fn input_width(&self) -> usize {
        Oracle::input_width(self)
    }

    fn output_width(&self) -> usize {
        Oracle::output_width(self)
    }

    fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
        Ok(self.query(inputs))
    }

    fn try_query_batch(&mut self, block: &PatternBlock) -> Result<ResponseBlock, OracleError> {
        Ok(self.query_block(block))
    }

    fn queries(&self) -> u64 {
        Oracle::queries(self)
    }
}

/// The attacker's reverse-engineered netlist view.
///
/// The Scan-Enable circuitry lives *inside* the analog MRAM LUT (an extra
/// MTJ and a transmission-gate MUX), so layout reverse engineering shows a
/// plain LUT: the attacker's netlist has the SE path absent. We model this
/// by tying the `SE` pin to constant 0, which makes every SE-XOR stage
/// transparent (and the hidden `K_SE` key bits unobservable).
pub fn attacker_view(locked: &LockedCircuit) -> Netlist {
    let mut nl = locked.netlist.clone();
    if let Some(se) = nl.net_id(SE_PIN) {
        let zero = nl.fresh_net("se_tied");
        nl.add_gate(GateKind::Const0, &[], zero)
            .expect("fresh net is undriven");
        let redirected = nl.redirect_consumers(se, zero);
        debug_assert!(redirected > 0 || locked.blocks == 0);
    }
    nl
}

#[cfg(test)]
impl Oracle {
    /// Disables the scan-corruption model (an idealized attacker with
    /// direct functional access — used to show the attacks *do* work when
    /// the SE defense is absent).
    pub(crate) fn without_scan_corruption(mut self) -> Oracle {
        self.scan_corrupted = false;
        self.memo.clear();
        self
    }

    /// Ground-truth functional response (`SE = 0`), which the tests set
    /// against scan responses. Never cached (it is not a scan access).
    pub(crate) fn functional_response(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.input_width(), "oracle input width");
        self.eval(inputs, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_core::{Obfuscator, RilBlockSpec};
    use ril_netlist::{generators, CompiledSim};

    fn locked(scan: bool) -> LockedCircuit {
        let host = generators::adder(6);
        Obfuscator::new(RilBlockSpec::size_8x8())
            .scan_obfuscation(scan)
            .seed(13)
            .obfuscate(&host)
            .unwrap()
    }

    #[test]
    fn oracle_matches_original_without_scan_defense() {
        let lc = locked(false);
        let mut oracle = Oracle::new(&lc).unwrap();
        let mut sim = CompiledSim::new(&lc.original).unwrap();
        for pattern in [0u64, 5, 63, 4095] {
            let bits: Vec<bool> = (0..oracle.input_width())
                .map(|i| (pattern >> i) & 1 == 1)
                .collect();
            let resp = oracle.query(&bits);
            let expect = sim.eval_bits(&bits);
            assert_eq!(resp, expect);
        }
        assert_eq!(oracle.queries(), 4);
    }

    #[test]
    fn scan_defense_corrupts_some_response() {
        // Find a seed whose SE keys are not all zero, then at least one
        // input pattern must answer differently in scan vs functional mode.
        for seed in 0..20 {
            let host = generators::adder(6);
            let lc = Obfuscator::new(RilBlockSpec::size_8x8())
                .scan_obfuscation(true)
                .seed(seed)
                .obfuscate(&host)
                .unwrap();
            let any_se = lc
                .keys
                .kinds()
                .iter()
                .zip(lc.keys.bits())
                .any(|(k, &v)| matches!(k, ril_core::KeyBitKind::ScanEnable { .. }) && v);
            if !any_se {
                continue;
            }
            let mut oracle = Oracle::new(&lc).unwrap();
            let w = oracle.input_width();
            let mut corrupted = false;
            for pattern in 0u64..256 {
                let bits: Vec<bool> = (0..w).map(|i| (pattern >> i) & 1 == 1).collect();
                if oracle.query(&bits) != oracle.functional_response(&bits) {
                    corrupted = true;
                    break;
                }
            }
            assert!(corrupted, "seed {seed}: SE key set but responses clean");
            return;
        }
        panic!("no seed produced a set SE key");
    }

    #[test]
    fn disabling_corruption_restores_functional_responses() {
        let lc = locked(true);
        let mut honest = Oracle::new(&lc).unwrap().without_scan_corruption();
        let w = honest.input_width();
        for pattern in 0u64..64 {
            let bits: Vec<bool> = (0..w).map(|i| (pattern >> i) & 1 == 1).collect();
            assert_eq!(honest.query(&bits), honest.functional_response(&bits));
        }
    }

    #[test]
    fn repeated_queries_hit_the_memo_cache() {
        let lc = locked(true);
        let mut oracle = Oracle::new(&lc).unwrap();
        let w = oracle.input_width();
        let bits: Vec<bool> = (0..w).map(|i| i % 2 == 0).collect();
        let first = oracle.query(&bits);
        assert_eq!(oracle.queries(), 1);
        assert_eq!(oracle.cache_hits(), 0);
        let second = oracle.query(&bits);
        assert_eq!(first, second);
        assert_eq!(oracle.queries(), 1, "cache hit must not touch the chip");
        assert_eq!(oracle.cache_hits(), 1);
        // A different pattern is a real chip access again.
        let other: Vec<bool> = (0..w).map(|i| i % 2 == 1).collect();
        oracle.query(&other);
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    fn rekey_invalidates_the_memo_cache() {
        use rand::SeedableRng;
        let mut lc = locked(true);
        let mut oracle = Oracle::new(&lc).unwrap();
        let w = oracle.input_width();
        let bits: Vec<bool> = (0..w).map(|i| i % 3 == 0).collect();
        let functional_before = oracle.functional_response(&bits);
        oracle.query(&bits);
        oracle.query(&bits);
        assert_eq!(oracle.cache_hits(), 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        ril_core::morph_all(&mut lc, &mut rng);
        oracle.rekey(&lc);
        let after = oracle.query(&bits);
        assert_eq!(
            oracle.queries(),
            2,
            "post-rekey query must re-evaluate, not reuse the stale memo"
        );
        // Morphing never changes functional behaviour; scan responses may
        // differ, but the fresh memo must hold the new generation's answer.
        assert_eq!(oracle.functional_response(&bits), functional_before);
        assert_eq!(oracle.query(&bits), after);
    }

    #[test]
    fn query_block_matches_sequential_queries_and_accounting() {
        let lc = locked(true);
        let mut batched = Oracle::new(&lc).unwrap();
        let mut sequential = Oracle::new(&lc).unwrap();
        let w = batched.input_width();
        // 7 patterns with an in-block repeat (lane 5 == lane 1) and a
        // pattern pre-seeded into both memos (lane 6 == the warmup query).
        let warm: Vec<bool> = (0..w).map(|i| i % 5 == 0).collect();
        batched.query(&warm);
        sequential.query(&warm);
        let mut patterns: Vec<Vec<bool>> = (0..5u64)
            .map(|p| (0..w).map(|i| (p >> (i % 3)) & 1 == 1).collect())
            .collect();
        patterns.push(patterns[1].clone());
        patterns.push(warm.clone());

        let block = PatternBlock::pack(&patterns);
        let rows = batched.query_block(&block).unpack();
        let expect: Vec<Vec<bool>> = patterns.iter().map(|p| sequential.query(p)).collect();
        assert_eq!(rows, expect);
        assert_eq!(batched.queries(), sequential.queries());
        assert_eq!(batched.cache_hits(), sequential.cache_hits());
        // 1 warmup + 5 distinct patterns; the repeat and the warm pattern
        // are memo hits even inside one block.
        assert_eq!(batched.queries(), 6);
        assert_eq!(batched.cache_hits(), 2);

        // The memo the block populated answers a replay without any new
        // chip access, on both oracles identically.
        let replay = batched.query_block(&block).unpack();
        assert_eq!(replay, expect);
        assert_eq!(batched.queries(), 6);
        assert_eq!(batched.cache_hits(), 2 + patterns.len() as u64);
    }

    #[test]
    fn batch_via_source_trait_uses_one_chip_access_per_block() {
        let lc = locked(false);
        let mut oracle = Oracle::new(&lc).unwrap();
        let w = OracleSource::input_width(&oracle);
        let patterns: Vec<Vec<bool>> = (0..64u64)
            .map(|p| (0..w).map(|i| (p >> (i % 7)) & 1 == 1).collect())
            .collect();
        let block = PatternBlock::pack(&patterns);
        let resp = oracle.try_query_batch(&block).unwrap();
        assert_eq!(resp.lanes(), 64);
        assert_eq!(resp.width(), OracleSource::output_width(&oracle));
        // Distinct patterns: every lane is a chip query, all in one pass.
        let distinct: std::collections::HashSet<_> = patterns.iter().collect();
        assert_eq!(oracle.queries(), distinct.len() as u64);
    }

    #[test]
    fn oracle_as_source_is_infallible() {
        let lc = locked(false);
        let mut oracle = Oracle::new(&lc).unwrap();
        let w = OracleSource::input_width(&oracle);
        let bits = vec![false; w];
        let via_trait = oracle.try_query(&bits).unwrap();
        assert_eq!(via_trait.len(), OracleSource::output_width(&oracle));
        assert_eq!(oracle.generation(), None);
    }

    #[test]
    fn attacker_view_hides_se_behaviour() {
        let lc = locked(true);
        let view = attacker_view(&lc);
        view.validate().unwrap();
        // Same I/O widths as the locked netlist (SE pin still declared).
        assert_eq!(view.inputs().len(), lc.netlist.inputs().len());
        // Under the correct key the view equals the functional circuit even
        // with SE pin driven high — the XOR stages are tied off.
        let mut sim_view = CompiledSim::new(&view).unwrap();
        let mut sim_orig = CompiledSim::new(&lc.original).unwrap();
        let kw = lc.keys.as_words();
        let n = lc.original.data_inputs().len();
        for pattern in [1u64, 77, 1023] {
            let data: Vec<u64> = (0..n)
                .map(|i| if (pattern >> i) & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            let mut dv = data.clone();
            dv.push(u64::MAX); // SE pin high — must not matter in the view
            let o1 = sim_orig.eval_words(&data, &[]);
            let o2 = sim_view.eval_words(&dv, &kw);
            assert_eq!(o1, o2);
        }
    }
}
