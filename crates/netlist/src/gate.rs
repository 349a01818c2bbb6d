//! Gate primitives and truth-table evaluation.
//!
//! The gate alphabet covers everything found in ISCAS-85/89 `.bench` files
//! (n-ary AND/OR/NAND/NOR/XOR/XNOR, BUF, NOT, DFF) plus the extensions the
//! RIL-Blocks flow needs: 2-to-1 `MUX` (the SAT-simulation primitive of the
//! paper's Fig. 1), constants, and a configured 2-input `LUT2` carrying its
//! 4-bit truth table (the materialized form of a programmed MRAM LUT).

use std::fmt;

/// The kind of a logic gate.
///
/// Word-level (bit-parallel) evaluation is provided by [`GateKind::eval_words`];
/// single-bit evaluation by [`GateKind::eval_bits`].
///
/// # Examples
///
/// ```
/// use ril_netlist::GateKind;
///
/// assert_eq!(GateKind::Nand.eval_bits(&[true, true]), false);
/// assert_eq!(GateKind::Mux.eval_bits(&[false, true, false]), true); // s=0 -> a
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Buffer: single input, passes through.
    Buf,
    /// Inverter: single input, negated.
    Not,
    /// N-ary AND (n >= 1).
    And,
    /// N-ary OR (n >= 1).
    Or,
    /// N-ary NAND (n >= 1).
    Nand,
    /// N-ary NOR (n >= 1).
    Nor,
    /// N-ary XOR (parity, n >= 1).
    Xor,
    /// N-ary XNOR (inverted parity, n >= 1).
    Xnor,
    /// 2-to-1 multiplexer. Inputs ordered `[s, a, b]`; output is `a` when
    /// `s = 0` and `b` when `s = 1`.
    Mux,
    /// Constant logic 0 (no inputs).
    Const0,
    /// Constant logic 1 (no inputs).
    Const1,
    /// D flip-flop (single input). Only meaningful in sequential netlists;
    /// [`crate::Netlist::to_combinational`] converts these to pseudo-I/O
    /// under the full-scan threat model.
    Dff,
    /// A configured 2-input look-up table. Inputs ordered `[a, b]`; the
    /// output for the input pair `(a, b)` is bit `a + 2*b` of the stored
    /// 4-bit truth table (only the low 4 bits are significant).
    Lut2(u8),
}

impl GateKind {
    /// All fixed-arity basic kinds (excludes `Lut2`, which is parameterized).
    pub const BASIC: [GateKind; 12] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Dff,
    ];

    /// The canonical `.bench` mnemonic for this gate.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux => "MUX",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Dff => "DFF",
            GateKind::Lut2(_) => "LUT2",
        }
    }

    /// Parses a `.bench` mnemonic (case-insensitive). `LUT2` tables are
    /// handled by the bench parser, not here.
    pub fn from_mnemonic(s: &str) -> Option<GateKind> {
        Some(match s.to_ascii_uppercase().as_str() {
            "BUF" | "BUFF" => GateKind::Buf,
            "NOT" | "INV" => GateKind::Not,
            "AND" => GateKind::And,
            "OR" => GateKind::Or,
            "NAND" => GateKind::Nand,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "MUX" => GateKind::Mux,
            "CONST0" | "GND" => GateKind::Const0,
            "CONST1" | "VDD" => GateKind::Const1,
            "DFF" => GateKind::Dff,
            _ => return None,
        })
    }

    /// The exact number of inputs this kind requires, or `None` for n-ary
    /// kinds (which accept 1 or more).
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Buf | GateKind::Not | GateKind::Dff => Some(1),
            GateKind::Mux => Some(3),
            GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Lut2(_) => Some(2),
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => None,
        }
    }

    /// Whether `n` inputs is a legal fan-in for this kind.
    pub fn accepts_arity(self, n: usize) -> bool {
        match self.arity() {
            Some(k) => n == k,
            None => n >= 1,
        }
    }

    /// Returns `true` if this is a combinational kind (everything but DFF).
    pub fn is_combinational(self) -> bool {
        !matches!(self, GateKind::Dff)
    }

    /// Evaluates the gate on single-bit inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for this kind.
    pub fn eval_bits(self, inputs: &[bool]) -> bool {
        assert!(
            self.accepts_arity(inputs.len()),
            "gate {self:?} does not accept {} inputs",
            inputs.len()
        );
        match self {
            GateKind::Buf | GateKind::Dff => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Lut2(tt) => {
                let idx = (inputs[0] as u8) | ((inputs[1] as u8) << 1);
                (tt >> idx) & 1 == 1
            }
        }
    }

    /// Evaluates the gate on 64-way bit-parallel words (one simulation
    /// pattern per bit lane).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for this kind.
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        assert!(
            self.accepts_arity(inputs.len()),
            "gate {self:?} does not accept {} inputs",
            inputs.len()
        );
        match self {
            GateKind::Buf | GateKind::Dff => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Nand => !inputs.iter().fold(u64::MAX, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Nor => !inputs.iter().fold(0, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0, |acc, &w| acc ^ w),
            GateKind::Mux => (!inputs[0] & inputs[1]) | (inputs[0] & inputs[2]),
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
            GateKind::Lut2(tt) => {
                let a = inputs[0];
                let b = inputs[1];
                let m0 = if tt & 1 != 0 { u64::MAX } else { 0 };
                let m1 = if tt & 2 != 0 { u64::MAX } else { 0 };
                let m2 = if tt & 4 != 0 { u64::MAX } else { 0 };
                let m3 = if tt & 8 != 0 { u64::MAX } else { 0 };
                (m0 & !a & !b) | (m1 & a & !b) | (m2 & !a & b) | (m3 & a & b)
            }
        }
    }

    /// An estimate of the transistor count of a static-CMOS realization of
    /// this gate with `fanin` inputs. Used by the overhead model
    /// (paper Section IV-E).
    pub fn transistor_count(self, fanin: usize) -> usize {
        match self {
            GateKind::Buf => 4,
            GateKind::Not => 2,
            GateKind::Nand | GateKind::Nor => 2 * fanin,
            GateKind::And | GateKind::Or => 2 * fanin + 2,
            // XOR/XNOR trees: ~10T per 2-input stage.
            GateKind::Xor | GateKind::Xnor => 10 * fanin.saturating_sub(1).max(1),
            // Transmission-gate 2:1 MUX.
            GateKind::Mux => 6,
            GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Dff => 20,
            // Select-tree of a 2-input LUT (paper: 3 MUXes), storage excluded.
            GateKind::Lut2(_) => 18,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::Lut2(tt) => write!(f, "LUT2(0x{:x})", tt & 0xf),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// Names the 16 two-input boolean functions by their 4-bit truth table,
/// matching the paper's Table II vocabulary.
///
/// Truth-table bit `i` corresponds to the input pair `(a, b)` with
/// `i = a + 2*b`.
///
/// # Examples
///
/// ```
/// use ril_netlist::gate::function_name;
///
/// assert_eq!(function_name(0b1000), "A AND B");
/// assert_eq!(function_name(0b0110), "A XOR B");
/// ```
pub fn function_name(tt: u8) -> &'static str {
    match tt & 0xf {
        0b0000 => "0",
        0b1111 => "1",
        0b0001 => "A NOR B",
        0b1110 => "A OR B",
        0b0100 => "NOT A AND B",
        0b1011 => "A OR NOT B",
        0b0011 => "NOT A",
        0b1100 => "A",
        0b0010 => "A AND NOT B",
        0b1101 => "NOT A OR B",
        0b0101 => "NOT B",
        0b1010 => "B",
        0b0110 => "A XOR B",
        0b1001 => "A XNOR B",
        0b0111 => "A NAND B",
        0b1000 => "A AND B",
        _ => unreachable!(),
    }
}

/// Returns the 4-bit truth table of a 2-input gate kind, or `None` if the
/// kind is not a 2-input boolean function.
///
/// # Examples
///
/// ```
/// use ril_netlist::{GateKind, gate::truth_table_of};
///
/// assert_eq!(truth_table_of(GateKind::And), Some(0b1000));
/// assert_eq!(truth_table_of(GateKind::Mux), None);
/// ```
pub fn truth_table_of(kind: GateKind) -> Option<u8> {
    Some(match kind {
        GateKind::And => 0b1000,
        GateKind::Or => 0b1110,
        GateKind::Nand => 0b0111,
        GateKind::Nor => 0b0001,
        GateKind::Xor => 0b0110,
        GateKind::Xnor => 0b1001,
        GateKind::Lut2(tt) => tt & 0xf,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nary_gate_bit_semantics() {
        assert!(GateKind::And.eval_bits(&[true, true, true]));
        assert!(!GateKind::And.eval_bits(&[true, false, true]));
        assert!(GateKind::Or.eval_bits(&[false, false, true]));
        assert!(!GateKind::Or.eval_bits(&[false, false, false]));
        assert!(!GateKind::Nand.eval_bits(&[true, true]));
        assert!(GateKind::Nor.eval_bits(&[false, false]));
        assert!(GateKind::Xor.eval_bits(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bits(&[true, true]));
        assert!(GateKind::Xnor.eval_bits(&[true, true]));
    }

    #[test]
    fn unary_and_const_semantics() {
        assert!(GateKind::Buf.eval_bits(&[true]));
        assert!(!GateKind::Not.eval_bits(&[true]));
        assert!(!GateKind::Const0.eval_bits(&[]));
        assert!(GateKind::Const1.eval_bits(&[]));
        assert!(GateKind::Dff.eval_bits(&[true]));
    }

    #[test]
    fn mux_select_semantics() {
        // inputs [s, a, b]
        assert!(GateKind::Mux.eval_bits(&[false, true, false]));
        assert!(!GateKind::Mux.eval_bits(&[false, false, true]));
        assert!(GateKind::Mux.eval_bits(&[true, false, true]));
        assert!(!GateKind::Mux.eval_bits(&[true, true, false]));
    }

    #[test]
    fn lut2_covers_all_sixteen_functions() {
        for tt in 0u8..16 {
            let kind = GateKind::Lut2(tt);
            for a in [false, true] {
                for b in [false, true] {
                    let idx = (a as u8) | ((b as u8) << 1);
                    let expect = (tt >> idx) & 1 == 1;
                    assert_eq!(kind.eval_bits(&[a, b]), expect, "tt={tt:04b} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn words_agree_with_bits() {
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for pattern in 0u8..8 {
                let bits: Vec<bool> = (0..3).map(|i| (pattern >> i) & 1 == 1).collect();
                let words: Vec<u64> = bits.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
                let expect = if kind.eval_bits(&bits) { u64::MAX } else { 0 };
                assert_eq!(kind.eval_words(&words), expect, "{kind:?} {pattern:03b}");
            }
        }
        for pattern in 0u8..8 {
            let bits: Vec<bool> = (0..3).map(|i| (pattern >> i) & 1 == 1).collect();
            let words: Vec<u64> = bits.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
            let expect = if GateKind::Mux.eval_bits(&bits) {
                u64::MAX
            } else {
                0
            };
            assert_eq!(GateKind::Mux.eval_words(&words), expect);
        }
        for tt in 0u8..16 {
            for pattern in 0u8..4 {
                let bits: Vec<bool> = (0..2).map(|i| (pattern >> i) & 1 == 1).collect();
                let words: Vec<u64> = bits.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
                let kind = GateKind::Lut2(tt);
                let expect = if kind.eval_bits(&bits) { u64::MAX } else { 0 };
                assert_eq!(kind.eval_words(&words), expect);
            }
        }
    }

    #[test]
    fn mnemonic_round_trip() {
        for kind in GateKind::BASIC {
            assert_eq!(GateKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(GateKind::from_mnemonic("buff"), Some(GateKind::Buf));
        assert_eq!(GateKind::from_mnemonic("inv"), Some(GateKind::Not));
        assert_eq!(GateKind::from_mnemonic("FROB"), None);
    }

    #[test]
    fn arity_checks() {
        assert_eq!(GateKind::Mux.arity(), Some(3));
        assert_eq!(GateKind::Not.arity(), Some(1));
        assert_eq!(GateKind::And.arity(), None);
        assert!(GateKind::And.accepts_arity(5));
        assert!(!GateKind::And.accepts_arity(0));
        assert!(!GateKind::Mux.accepts_arity(2));
        assert!(GateKind::Const0.accepts_arity(0));
    }

    #[test]
    fn function_names_match_tables() {
        assert_eq!(function_name(0b0001), "A NOR B");
        assert_eq!(function_name(0b1110), "A OR B");
        assert_eq!(function_name(0b1000), "A AND B");
        assert_eq!(function_name(0b0111), "A NAND B");
        assert_eq!(function_name(0b1001), "A XNOR B");
    }

    #[test]
    fn truth_tables_of_two_input_kinds() {
        for (kind, tt) in [
            (GateKind::And, 0b1000u8),
            (GateKind::Or, 0b1110),
            (GateKind::Nand, 0b0111),
            (GateKind::Nor, 0b0001),
            (GateKind::Xor, 0b0110),
            (GateKind::Xnor, 0b1001),
        ] {
            assert_eq!(truth_table_of(kind), Some(tt));
            // And Lut2 with the same table computes the same function.
            for a in [false, true] {
                for b in [false, true] {
                    assert_eq!(
                        kind.eval_bits(&[a, b]),
                        GateKind::Lut2(tt).eval_bits(&[a, b])
                    );
                }
            }
        }
        assert_eq!(truth_table_of(GateKind::Buf), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(GateKind::Nand.to_string(), "NAND");
        assert_eq!(GateKind::Lut2(0x8).to_string(), "LUT2(0x8)");
    }
}
