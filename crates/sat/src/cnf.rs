//! CNF formulas and DIMACS I/O.

use crate::lit::{Lit, Var};
use std::error::Error;
use std::fmt;

/// A CNF formula: a variable pool plus a list of clauses.
///
/// # Examples
///
/// ```
/// use ril_sat::{Cnf, Lit};
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var();
/// let b = cnf.new_var();
/// cnf.add_clause([a.positive(), b.positive()]);
/// cnf.add_clause([a.negative()]);
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause. Grows the variable pool if the clause mentions
    /// variables beyond it.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            if l.var().index() >= self.num_vars {
                self.num_vars = l.var().index() + 1;
            }
        }
        self.clauses.push(clause);
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Checks a full assignment (`model[v]` = value of variable `v`).
    /// Returns `true` iff every clause is satisfied.
    ///
    /// # Panics
    ///
    /// Panics if `model.len() < self.num_vars()`.
    pub fn is_satisfied_by(&self, model: &[bool]) -> bool {
        assert!(model.len() >= self.num_vars, "model too short");
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| model[l.var().index()] == l.target()))
    }

    /// Serializes to DIMACS `cnf` format.
    pub fn to_dimacs(&self) -> String {
        let mut out = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for clause in &self.clauses {
            for l in clause {
                out.push_str(&l.to_dimacs().to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses DIMACS `cnf` text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed headers or tokens.
    pub fn from_dimacs(text: &str) -> Result<Cnf, ParseDimacsError> {
        let mut cnf = Cnf::new();
        let mut declared_vars = 0usize;
        let mut header_seen = false;
        let mut current: Vec<Lit> = Vec::new();
        for (lineno0, line) in text.lines().enumerate() {
            let lineno = lineno0 + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 || parts[0] != "cnf" {
                    return Err(ParseDimacsError {
                        line: lineno,
                        msg: "expected `p cnf <vars> <clauses>`".into(),
                    });
                }
                declared_vars = parts[1].parse().map_err(|_| ParseDimacsError {
                    line: lineno,
                    msg: "bad variable count".into(),
                })?;
                header_seen = true;
                continue;
            }
            for tok in line.split_whitespace() {
                let v: i64 = tok.parse().map_err(|_| ParseDimacsError {
                    line: lineno,
                    msg: format!("bad literal `{tok}`"),
                })?;
                if v == 0 {
                    cnf.add_clause(std::mem::take(&mut current));
                } else {
                    current.push(Lit::from_dimacs(v));
                }
            }
        }
        if !current.is_empty() {
            cnf.add_clause(current);
        }
        if !header_seen {
            return Err(ParseDimacsError {
                line: 0,
                msg: "missing `p cnf` header".into(),
            });
        }
        if declared_vars > cnf.num_vars {
            cnf.num_vars = declared_vars;
        }
        Ok(cnf)
    }
}

/// Error parsing DIMACS text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number (0 if global).
    pub line: usize,
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dimacs line {}: {}", self.line, self.msg)
    }
}

impl Error for ParseDimacsError {}

#[cfg(test)]
impl Cnf {
    /// Total literal occurrences across all clauses.
    fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// The clause-to-variable ratio — the SAT-hardness proxy the paper's
    /// Section III-A discusses (FullLock pushes it toward 3–6).
    fn clause_to_var_ratio(&self) -> f64 {
        if self.num_vars == 0 {
            return 0.0;
        }
        self.clauses.len() as f64 / self.num_vars as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_check() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([a.positive(), b.positive()]);
        cnf.add_clause([a.negative(), b.positive()]);
        assert!(cnf.is_satisfied_by(&[false, true]));
        assert!(cnf.is_satisfied_by(&[true, true]));
        assert!(!cnf.is_satisfied_by(&[true, false]));
    }

    #[test]
    fn clause_grows_var_pool() {
        let mut cnf = Cnf::new();
        cnf.add_clause([Lit::new(9, false)]);
        assert_eq!(cnf.num_vars(), 10);
    }

    #[test]
    fn dimacs_round_trip() {
        let mut cnf = Cnf::new();
        let vars = cnf.new_vars(3);
        cnf.add_clause([vars[0].positive(), vars[1].negative()]);
        cnf.add_clause([vars[2].positive()]);
        cnf.add_clause([]); // empty clause survives
        let text = cnf.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(back, cnf);
    }

    #[test]
    fn dimacs_parses_comments_and_multiline() {
        let text = "c hello\np cnf 3 2\n1 -2 0 3\n0\n";
        let cnf = Cnf::from_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clauses()[1], vec![Lit::new(2, false)]);
    }

    #[test]
    fn dimacs_errors() {
        assert!(Cnf::from_dimacs("1 2 0\n").is_err()); // no header
        assert!(Cnf::from_dimacs("p cnf x y\n").is_err());
        assert!(Cnf::from_dimacs("p cnf 2 1\n1 foo 0\n").is_err());
    }

    #[test]
    fn ratio_and_counts() {
        let mut cnf = Cnf::new();
        let v = cnf.new_vars(2);
        cnf.add_clause([v[0].positive(), v[1].positive()]);
        cnf.add_clause([v[0].negative()]);
        cnf.add_clause([v[1].negative()]);
        assert_eq!(cnf.num_literals(), 4);
        assert!((cnf.clause_to_var_ratio() - 1.5).abs() < 1e-12);
    }
}
