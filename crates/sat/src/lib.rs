//! # ril-sat — CDCL SAT solver substrate
//!
//! A from-scratch conflict-driven clause-learning solver ([`Solver`]) with
//! the architecture of the CaDiCaL-class solvers the paper attacks with:
//! two-watched-literal propagation, first-UIP learning, a VMTF decision
//! queue (CaDiCaL's focused-mode order) with phase saving, Luby restarts,
//! learnt-database reduction, and root-level clause collection for
//! incremental use. Companion modules provide CNF formulas with DIMACS
//! I/O ([`Cnf`]), Tseitin encoding of gate-level netlists
//! ([`encode_netlist`]) into a [`Cnf`] or straight into a live
//! [`Session`] (both are a [`ClauseSink`]), and SAT-based combinational
//! equivalence checking ([`EquivSession`]).
//!
//! There is one search engine: a [`Session`] owns one sequential
//! [`Solver`] in its full-strength default configuration, as the paper
//! runs one CaDiCaL solve per query ([`SolverConfig`]'s toggles exist for
//! the solver-ablation experiment). A solve is bounded only by a
//! [`Budget`]. Short of a wall-clock budget cutting it off, the same
//! formula and assumptions always replay the same search.
//!
//! ## Quickstart
//!
//! ```
//! use ril_sat::{Cnf, Solver, Outcome};
//!
//! let mut cnf = Cnf::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([a.positive(), b.positive()]);
//! cnf.add_clause([a.negative(), b.negative()]);
//! let mut solver = Solver::from_cnf(&cnf);
//! assert_eq!(solver.solve(), Outcome::Sat);
//! assert_ne!(solver.model()[a.index()], solver.model()[b.index()]);
//! ```

#![warn(missing_docs)]

pub mod cnf;
pub mod equiv;
pub mod lit;
pub mod session;
pub mod solver;
pub mod tseitin;

pub use cnf::{Cnf, ParseDimacsError};
pub use equiv::{check_equivalence, EquivError, EquivOptions, EquivResult, EquivSession};
pub use lit::{LBool, Lit, Var};
pub use session::{Session, SolveRecord};
pub use solver::{Budget, BudgetError, Outcome, Solver, SolverConfig, SolverStats};
pub use tseitin::{
    encode_gate, encode_netlist, encode_netlist_into, CircuitVars, ClauseSink, TseitinError,
};
