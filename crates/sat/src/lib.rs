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
//! [`Session`] (both are a [`ClauseSink`]), and the attack-side
//! preprocessing passes (BVA and one-layer one-hot routing encoding,
//! [`bva`]).
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

pub mod bva;
pub mod cnf;
pub mod equiv;
pub mod lit;
pub mod portfolio;
pub mod session;
pub mod solver;
pub mod tseitin;

pub use cnf::{Cnf, ParseDimacsError};
pub use equiv::{
    check_equivalence, check_equivalence_in, EquivError, EquivOptions, EquivResult, EquivSession,
    IncrementalEquivSession,
};
pub use lit::{LBool, Lit, Var};
pub use portfolio::{Portfolio, PortfolioStats};
pub use session::{Session, SolveRecord};
pub use solver::{
    Budget, BudgetError, Outcome, Solver, SolverConfig, SolverConfigError, SolverStats,
    MAX_SOLVER_THREADS,
};
pub use tseitin::{
    encode_gate, encode_netlist, encode_netlist_into, CircuitVars, ClauseSink, TseitinError,
};
