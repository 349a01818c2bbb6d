//! Variables, literals and the three-valued assignment domain.

use std::fmt;
use std::ops::Not;

/// A propositional variable (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from its 0-based index.
    pub fn new(index: usize) -> Var {
        Var(index as u32)
    }

    /// The 0-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given sign (`true` = negated).
    pub fn lit(self, negated: bool) -> Lit {
        Lit((self.0 << 1) | negated as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation. Encoded as `var*2 + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Creates a literal over the 0-based variable index.
    pub fn new(var: usize, negated: bool) -> Lit {
        Var::new(var).lit(negated)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is negated.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index usable for watch lists (`var*2 + sign`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The truth value this literal requires of its variable.
    pub fn target(self) -> bool {
        !self.is_negated()
    }

    /// Converts from DIMACS convention (non-zero, sign = polarity,
    /// 1-based).
    ///
    /// # Panics
    ///
    /// Panics if `dimacs == 0`.
    pub fn from_dimacs(dimacs: i64) -> Lit {
        assert!(dimacs != 0, "DIMACS literal must be non-zero");
        Lit::new((dimacs.unsigned_abs() - 1) as usize, dimacs < 0)
    }

    /// Converts to DIMACS convention.
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().index() as i64 + 1;
        if self.is_negated() {
            -v
        } else {
            v
        }
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "!x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

/// Three-valued assignment domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Unassigned.
    #[default]
    Undef,
}

#[cfg(test)]
impl LBool {
    /// Lifts a `bool`.
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Lowers to `Option<bool>`.
    fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
impl Lit {
    /// Reconstructs a literal from its dense index.
    fn from_index(index: usize) -> Lit {
        Lit(index as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var::new(3);
        assert_eq!(v.positive().index(), 6);
        assert_eq!(v.negative().index(), 7);
        assert_eq!(v.positive().var(), v);
        assert!(!v.positive().is_negated());
        assert!(v.negative().is_negated());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(Lit::from_index(7), v.negative());
    }

    #[test]
    fn dimacs_round_trip() {
        for d in [1i64, -1, 5, -17] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
        assert_eq!(Lit::from_dimacs(1), Var::new(0).positive());
        assert_eq!(Lit::from_dimacs(-2), Var::new(1).negative());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn dimacs_zero_panics() {
        Lit::from_dimacs(0);
    }

    #[test]
    fn lbool_conversions() {
        assert_eq!(LBool::from_bool(true).to_bool(), Some(true));
        assert_eq!(LBool::from_bool(false).to_bool(), Some(false));
        assert_eq!(LBool::Undef.to_bool(), None);
        assert_eq!(LBool::default(), LBool::Undef);
    }

    #[test]
    fn target_matches_sign() {
        assert!(Var::new(0).positive().target());
        assert!(!Var::new(0).negative().target());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Var::new(2).positive().to_string(), "x2");
        assert_eq!(Var::new(2).negative().to_string(), "!x2");
        assert_eq!(Var::new(2).to_string(), "x2");
    }
}
