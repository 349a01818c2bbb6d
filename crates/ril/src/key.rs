//! Key bookkeeping for locked netlists.
//!
//! Every key bit of an obfuscated design — LUT configuration bits, banyan
//! routing bits, Scan-Enable bits — is tracked in a [`KeyStore`] in the
//! same order as the locked netlist's `KEYINPUT` declarations, together
//! with its provenance and correct value. The store models the
//! tamper-proof memory of the threat model: the defender holds it, the
//! attacker does not.

use rand::Rng;
use std::fmt;

/// Provenance of one key bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyBitKind {
    /// LUT configuration bit (Table II "K" bits).
    LutConfig {
        /// Block index.
        block: usize,
        /// LUT index within the block.
        lut: usize,
        /// Truth-table bit position (0–3, minterm `a + 2b`).
        bit: u8,
    },
    /// Banyan switch-box routing bit.
    Routing {
        /// Block index.
        block: usize,
        /// 0 = input-side network, 1 = output-side network.
        network: u8,
        /// Stage within the network.
        stage: usize,
        /// Switch box within the stage.
        switchbox: usize,
    },
    /// Scan-Enable obfuscation bit (`MTJ_SE`).
    ScanEnable {
        /// Block index.
        block: usize,
        /// LUT index within the block.
        lut: usize,
    },
    /// Key bit of a baseline locking scheme (XOR lock, Anti-SAT, SFLL…).
    Baseline,
}

impl fmt::Display for KeyBitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyBitKind::LutConfig { block, lut, bit } => {
                write!(f, "blk{block}.lut{lut}.k{bit}")
            }
            KeyBitKind::Routing {
                block,
                network,
                stage,
                switchbox,
            } => write!(f, "blk{block}.net{network}.s{stage}.b{switchbox}"),
            KeyBitKind::ScanEnable { block, lut } => write!(f, "blk{block}.lut{lut}.se"),
            KeyBitKind::Baseline => write!(f, "baseline"),
        }
    }
}

/// The correct key of a locked design, bit-ordered to match the locked
/// netlist's key inputs.
///
/// # Examples
///
/// ```
/// use ril_core::key::{KeyStore, KeyBitKind};
///
/// let mut keys = KeyStore::new();
/// keys.push(KeyBitKind::Baseline, true);
/// keys.push(KeyBitKind::Baseline, false);
/// assert_eq!(keys.bits(), &[true, false]);
/// assert_eq!(keys.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyStore {
    bits: Vec<bool>,
    kinds: Vec<KeyBitKind>,
}

impl KeyStore {
    /// Creates an empty store.
    pub fn new() -> KeyStore {
        KeyStore::default()
    }

    /// Appends a key bit; returns its index.
    pub fn push(&mut self, kind: KeyBitKind, value: bool) -> usize {
        self.bits.push(value);
        self.kinds.push(kind);
        self.bits.len() - 1
    }

    /// Number of key bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The correct key bits, netlist key-input order.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The provenance of each bit.
    pub fn kinds(&self) -> &[KeyBitKind] {
        &self.kinds
    }

    /// Mutable access to bit `i` (used by dynamic morphing).
    pub fn set_bit(&mut self, i: usize, value: bool) {
        self.bits[i] = value;
    }

    /// The key as bit-parallel simulation words (all 64 lanes equal).
    pub fn as_words(&self) -> Vec<u64> {
        self.bits
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect()
    }

    /// A uniformly random *wrong-or-right* key of the same width (used by
    /// attack experiments and corruption measurements).
    pub fn random_key<R: Rng>(&self, rng: &mut R) -> Vec<bool> {
        (0..self.bits.len()).map(|_| rng.gen()).collect()
    }

    /// Serializes the key as a `0`/`1` string (netlist key-input order) —
    /// the on-disk format of the `rilock` CLI.
    pub fn to_bit_string(&self) -> String {
        self.bits
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    /// Parses a `0`/`1` string (whitespace ignored) into a key-bit vector.
    ///
    /// # Errors
    ///
    /// Returns the offending character if anything but `0`/`1`/whitespace
    /// appears.
    pub fn parse_bit_string(text: &str) -> Result<Vec<bool>, char> {
        text.chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(other),
            })
            .collect()
    }
}

#[cfg(test)]
impl KeyStore {
    /// Hamming distance between the correct key and `other`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    fn hamming_to(&self, other: &[bool]) -> usize {
        assert_eq!(other.len(), self.bits.len(), "key width mismatch");
        self.bits.iter().zip(other).filter(|(a, b)| a != b).count()
    }

    /// Indices of bits with a given predicate on kind.
    pub(crate) fn indices_where(&self, mut pred: impl FnMut(&KeyBitKind) -> bool) -> Vec<usize> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| pred(k))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_and_query() {
        let mut ks = KeyStore::new();
        assert!(ks.is_empty());
        let i0 = ks.push(
            KeyBitKind::LutConfig {
                block: 0,
                lut: 1,
                bit: 2,
            },
            true,
        );
        let i1 = ks.push(
            KeyBitKind::Routing {
                block: 0,
                network: 0,
                stage: 1,
                switchbox: 3,
            },
            false,
        );
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(ks.bits(), &[true, false]);
        assert_eq!(ks.len(), 2);
    }

    #[test]
    fn words_replicate_bits() {
        let mut ks = KeyStore::new();
        ks.push(KeyBitKind::Baseline, true);
        ks.push(KeyBitKind::Baseline, false);
        assert_eq!(ks.as_words(), vec![u64::MAX, 0]);
    }

    #[test]
    fn indices_filter_by_kind() {
        let mut ks = KeyStore::new();
        ks.push(KeyBitKind::Baseline, true);
        ks.push(KeyBitKind::ScanEnable { block: 0, lut: 0 }, false);
        ks.push(KeyBitKind::Baseline, true);
        let se = ks.indices_where(|k| matches!(k, KeyBitKind::ScanEnable { .. }));
        assert_eq!(se, vec![1]);
    }

    #[test]
    fn hamming_distance() {
        let mut ks = KeyStore::new();
        for b in [true, false, true] {
            ks.push(KeyBitKind::Baseline, b);
        }
        assert_eq!(ks.hamming_to(&[true, false, true]), 0);
        assert_eq!(ks.hamming_to(&[false, true, false]), 3);
    }

    #[test]
    fn random_key_has_same_width() {
        let mut ks = KeyStore::new();
        for _ in 0..10 {
            ks.push(KeyBitKind::Baseline, false);
        }
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ks.random_key(&mut rng).len(), 10);
    }

    #[test]
    fn bit_string_round_trip() {
        let mut ks = KeyStore::new();
        for b in [true, false, false, true, true] {
            ks.push(KeyBitKind::Baseline, b);
        }
        let s = ks.to_bit_string();
        assert_eq!(s, "10011");
        assert_eq!(KeyStore::parse_bit_string(&s).unwrap(), ks.bits());
        assert_eq!(KeyStore::parse_bit_string("1 0\n0 11").unwrap(), ks.bits());
        assert_eq!(KeyStore::parse_bit_string("10x1"), Err('x'));
    }

    #[test]
    fn kind_display_is_informative() {
        let k = KeyBitKind::Routing {
            block: 2,
            network: 1,
            stage: 0,
            switchbox: 3,
        };
        assert_eq!(k.to_string(), "blk2.net1.s0.b3");
    }
}
