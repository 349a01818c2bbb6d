//! Logarithmic banyan (butterfly) routing networks.
//!
//! An `N×N` banyan has `log2 N` stages of `N/2` two-line switch boxes —
//! `(N/2)·log2 N` boxes total, exactly the count the paper quotes. Each
//! box holds **one key bit and two MUXes** (straight or crossed); the
//! FullLock-style baseline box with its extra inverter and second key bit
//! is provided for the overhead/redundancy comparison of Section III-A.
//!
//! Stages are ordered from the most-significant pairing bit down to bit 0,
//! so the *last* stage pairs adjacent lines `(2j, 2j+1)` — the pair feeding
//! LUT `j` in a RIL-Block, which is what makes the cheap "swap + truth-table
//! -swap" dynamic-morphing move always available.

use rand::Rng;
use ril_netlist::{GateKind, NetId, Netlist, NetlistError};

/// Structural description of an `N×N` banyan network.
///
/// # Examples
///
/// ```
/// use ril_core::banyan::BanyanNetwork;
///
/// let net = BanyanNetwork::new(8);
/// assert_eq!(net.num_stages(), 3);
/// assert_eq!(net.num_keys(), 12); // (8/2) · log2 8
/// // All-straight keys realize the identity permutation.
/// assert_eq!(net.route(&vec![false; 12]), (0..8).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BanyanNetwork {
    n: usize,
    stage_bits: Vec<usize>,
}

impl BanyanNetwork {
    /// Creates an `n × n` network.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two and at least 2.
    pub fn new(n: usize) -> BanyanNetwork {
        assert!(n >= 2 && n.is_power_of_two(), "banyan size must be 2^k ≥ 2");
        let stages = n.trailing_zeros() as usize;
        // MSB-first so the final stage pairs adjacent lines.
        let stage_bits = (0..stages).rev().collect();
        BanyanNetwork { n, stage_bits }
    }

    /// Line count.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Stage count (`log2 N`).
    pub fn num_stages(&self) -> usize {
        self.stage_bits.len()
    }

    /// Switch boxes per stage (`N/2`).
    pub fn boxes_per_stage(&self) -> usize {
        self.n / 2
    }

    /// Total key bits (= total switch boxes for RIL boxes).
    pub fn num_keys(&self) -> usize {
        self.num_stages() * self.boxes_per_stage()
    }

    /// The two line indices joined by `switchbox` in `stage`.
    pub fn box_lines(&self, stage: usize, switchbox: usize) -> (usize, usize) {
        let bit = self.stage_bits[stage];
        // Boxes are ordered by the line index with `bit` removed.
        let low_mask = (1usize << bit) - 1;
        let lo_part = switchbox & low_mask;
        let hi_part = (switchbox & !low_mask) << 1;
        let i = hi_part | lo_part;
        (i, i | (1 << bit))
    }

    /// Key-vector index of the box at (`stage`, `switchbox`).
    pub fn key_index(&self, stage: usize, switchbox: usize) -> usize {
        stage * self.boxes_per_stage() + switchbox
    }

    /// Key index of the last-stage box feeding the adjacent pair
    /// `(2*pair, 2*pair + 1)`.
    pub fn last_stage_key_for_pair(&self, pair: usize) -> usize {
        self.key_index(self.num_stages() - 1, pair)
    }

    /// Computes the permutation realized by `keys`: `perm[input] = output`.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != self.num_keys()`.
    pub fn route(&self, keys: &[bool]) -> Vec<usize> {
        assert_eq!(keys.len(), self.num_keys(), "key width mismatch");
        // contents[line] = input currently riding on the line.
        let mut contents: Vec<usize> = (0..self.n).collect();
        for stage in 0..self.num_stages() {
            for b in 0..self.boxes_per_stage() {
                if keys[self.key_index(stage, b)] {
                    let (i, j) = self.box_lines(stage, b);
                    contents.swap(i, j);
                }
            }
        }
        let mut perm = vec![0; self.n];
        for (line, &input) in contents.iter().enumerate() {
            perm[input] = line;
        }
        perm
    }

    /// Searches for a key vector realizing `perm` (`perm[input] = output`).
    /// Exhaustive for ≤ 20 key bits, randomized otherwise. Banyan networks
    /// are "almost non-blocking": not every permutation is routable, in
    /// which case `None` is returned.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != self.width()`.
    pub fn find_keys<R: Rng>(
        &self,
        perm: &[usize],
        rng: &mut R,
        tries: usize,
    ) -> Option<Vec<bool>> {
        assert_eq!(perm.len(), self.n, "permutation width mismatch");
        let k = self.num_keys();
        if k <= 20 {
            for mask in 0u64..(1u64 << k) {
                let keys: Vec<bool> = (0..k).map(|i| (mask >> i) & 1 == 1).collect();
                if self.route(&keys) == perm {
                    return Some(keys);
                }
            }
            None
        } else {
            for _ in 0..tries {
                let keys: Vec<bool> = (0..k).map(|_| rng.gen()).collect();
                if self.route(&keys) == perm {
                    return Some(keys);
                }
            }
            None
        }
    }

    /// Materializes the network in a netlist with the paper's RIL switch
    /// boxes: per box one key net and **two MUXes** (straight/cross).
    /// Returns the output nets (line order).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn materialize(
        &self,
        nl: &mut Netlist,
        inputs: &[NetId],
        key_nets: &[NetId],
    ) -> Result<Vec<NetId>, NetlistError> {
        assert_eq!(inputs.len(), self.n, "input width mismatch");
        assert_eq!(key_nets.len(), self.num_keys(), "key width mismatch");
        let mut lines = inputs.to_vec();
        for stage in 0..self.num_stages() {
            for b in 0..self.boxes_per_stage() {
                let (i, j) = self.box_lines(stage, b);
                let k = key_nets[self.key_index(stage, b)];
                let oi = nl.add_gate_fresh(GateKind::Mux, &[k, lines[i], lines[j]], "swb")?;
                let oj = nl.add_gate_fresh(GateKind::Mux, &[k, lines[j], lines[i]], "swb")?;
                lines[i] = oi;
                lines[j] = oj;
            }
        }
        Ok(lines)
    }

    /// Materializes the network with FullLock-style switch boxes: **two key
    /// bits per box**, 3 MUXes plus an inverter. The second key optionally
    /// inverts one output — the redundancy the paper criticizes (a wrong
    /// inversion can be undone by a later box, multiplying correct keys).
    /// `key_nets` must hold `2 · num_keys()` nets (route keys then invert
    /// keys, stage-major).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn materialize_fulllock(
        &self,
        nl: &mut Netlist,
        inputs: &[NetId],
        key_nets: &[NetId],
    ) -> Result<Vec<NetId>, NetlistError> {
        assert_eq!(inputs.len(), self.n, "input width mismatch");
        assert_eq!(key_nets.len(), 2 * self.num_keys(), "key width mismatch");
        let mut lines = inputs.to_vec();
        for stage in 0..self.num_stages() {
            for b in 0..self.boxes_per_stage() {
                let (i, j) = self.box_lines(stage, b);
                let kr = key_nets[self.key_index(stage, b)];
                let ki = key_nets[self.num_keys() + self.key_index(stage, b)];
                let m1 = nl.add_gate_fresh(GateKind::Mux, &[kr, lines[i], lines[j]], "flb")?;
                let m2 = nl.add_gate_fresh(GateKind::Mux, &[kr, lines[j], lines[i]], "flb")?;
                let inv = nl.add_gate_fresh(GateKind::Not, &[m2], "flbi")?;
                let oj = nl.add_gate_fresh(GateKind::Mux, &[ki, m2, inv], "flb")?;
                lines[i] = m1;
                lines[j] = oj;
            }
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ril_netlist::CompiledSim;

    #[test]
    fn sizes_and_counts() {
        for (n, stages, keys) in [(2usize, 1usize, 1usize), (4, 2, 4), (8, 3, 12), (16, 4, 32)] {
            let net = BanyanNetwork::new(n);
            assert_eq!(net.num_stages(), stages);
            assert_eq!(net.num_keys(), keys, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_rejected() {
        BanyanNetwork::new(6);
    }

    #[test]
    fn all_straight_is_identity() {
        for n in [2, 4, 8] {
            let net = BanyanNetwork::new(n);
            let id: Vec<usize> = (0..n).collect();
            assert_eq!(net.route(&vec![false; net.num_keys()]), id);
        }
    }

    #[test]
    fn last_stage_pairs_adjacent_lines() {
        let net = BanyanNetwork::new(8);
        let last = net.num_stages() - 1;
        for b in 0..4 {
            assert_eq!(net.box_lines(last, b), (2 * b, 2 * b + 1));
        }
    }

    #[test]
    fn single_last_stage_key_swaps_pair() {
        let net = BanyanNetwork::new(8);
        let mut keys = vec![false; net.num_keys()];
        keys[net.last_stage_key_for_pair(1)] = true;
        let perm = net.route(&keys);
        assert_eq!(perm[2], 3);
        assert_eq!(perm[3], 2);
        assert_eq!(perm[0], 0);
    }

    #[test]
    fn route_is_always_a_permutation() {
        let net = BanyanNetwork::new(8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let keys: Vec<bool> = (0..net.num_keys()).map(|_| rng.gen()).collect();
            let mut perm = net.route(&keys);
            perm.sort_unstable();
            assert_eq!(perm, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn find_keys_inverts_route() {
        let net = BanyanNetwork::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let keys: Vec<bool> = (0..net.num_keys()).map(|_| rng.gen()).collect();
            let perm = net.route(&keys);
            let found = net
                .find_keys(&perm, &mut rng, 0)
                .expect("own perm routable");
            assert_eq!(net.route(&found), perm);
        }
    }

    #[test]
    fn some_permutation_is_blocked() {
        // Banyans are not rearrangeable: some permutation of 4 lines must
        // be unroutable with only 4 key bits (16 settings < 24 perms).
        let net = BanyanNetwork::new(4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut blocked = 0;
        let perms4: Vec<Vec<usize>> = permutations(&[0, 1, 2, 3]);
        for p in &perms4 {
            if net.find_keys(p, &mut rng, 0).is_none() {
                blocked += 1;
            }
        }
        assert!(blocked > 0, "every permutation routable?");
        assert!(blocked < 24, "no permutation routable?");
    }

    fn permutations(xs: &[usize]) -> Vec<Vec<usize>> {
        if xs.len() <= 1 {
            return vec![xs.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            let rest: Vec<usize> = xs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, &v)| v)
                .collect();
            for mut p in permutations(&rest) {
                p.insert(0, x);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn materialized_network_matches_route_model() {
        let net = BanyanNetwork::new(4);
        let mut nl = Netlist::new("banyan4");
        let inputs: Vec<NetId> = (0..4)
            .map(|i| nl.add_input(format!("in{i}")).unwrap())
            .collect();
        let keys: Vec<NetId> = (0..net.num_keys())
            .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
            .collect();
        let outs = net.materialize(&mut nl, &inputs, &keys).unwrap();
        for &o in &outs {
            nl.mark_output(o);
        }
        nl.validate().unwrap();
        let mut sim = CompiledSim::new(&nl).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let keybits: Vec<bool> = (0..net.num_keys()).map(|_| rng.gen()).collect();
            let perm = net.route(&keybits);
            // One-hot input marking: input i high, rest low → appears at
            // output perm[i].
            for (i, &target) in perm.iter().enumerate() {
                let data: Vec<bool> = (0..4).map(|x| x == i).collect();
                let outbits = sim.eval_pattern(&data, &keybits);
                for (o, &bit) in outbits.iter().enumerate() {
                    assert_eq!(bit, o == target, "input {i} key {keybits:?}");
                }
            }
        }
    }

    #[test]
    fn ril_box_is_half_the_muxes_of_fulllock() {
        let net = BanyanNetwork::new(8);
        let mut nl1 = Netlist::new("ril");
        let ins: Vec<NetId> = (0..8)
            .map(|i| nl1.add_input(format!("i{i}")).unwrap())
            .collect();
        let ks: Vec<NetId> = (0..net.num_keys())
            .map(|i| nl1.add_key_input(format!("k{i}")).unwrap())
            .collect();
        net.materialize(&mut nl1, &ins, &ks).unwrap();
        let ril_gates = nl1.gate_count();

        let mut nl2 = Netlist::new("fulllock");
        let ins2: Vec<NetId> = (0..8)
            .map(|i| nl2.add_input(format!("i{i}")).unwrap())
            .collect();
        let ks2: Vec<NetId> = (0..2 * net.num_keys())
            .map(|i| nl2.add_key_input(format!("k{i}")).unwrap())
            .collect();
        net.materialize_fulllock(&mut nl2, &ins2, &ks2).unwrap();
        let fl_gates = nl2.gate_count();
        assert_eq!(ril_gates, 24); // 12 boxes × 2 MUXes
        assert_eq!(fl_gates, 48); // 12 boxes × (3 MUXes + inverter)
        assert!(nl2.transistor_estimate() > nl1.transistor_estimate());
    }

    #[test]
    fn fulllock_inversion_key_flips_one_output() {
        let net = BanyanNetwork::new(2);
        let mut nl = Netlist::new("fl2");
        let ins: Vec<NetId> = (0..2)
            .map(|i| nl.add_input(format!("i{i}")).unwrap())
            .collect();
        let ks: Vec<NetId> = (0..2)
            .map(|i| nl.add_key_input(format!("k{i}")).unwrap())
            .collect();
        let outs = net.materialize_fulllock(&mut nl, &ins, &ks).unwrap();
        for o in outs {
            nl.mark_output(o);
        }
        let mut sim = CompiledSim::new(&nl).unwrap();
        // route straight, no invert: (a, b) -> (a, b)
        let o = sim.eval_pattern(&[true, false], &[false, false]);
        assert_eq!(o, vec![true, false]);
        // invert key flips line 1.
        let o = sim.eval_pattern(&[true, false], &[false, true]);
        assert_eq!(o, vec![true, true]);
    }
}
