//! Incremental solving sessions.
//!
//! A [`Session`] is a long-lived [`Solver`] plus per-call accounting: the
//! oracle-guided attack loop appends each DIP's I/O constraint to a *live*
//! solver — keeping learned clauses, the decision order and watch lists warm
//! across iterations — instead of re-reading a growing CNF from scratch
//! every iteration. Each `solve*` call is recorded as a [`SolveRecord`]
//! (outcome, wall time, and the [`SolverStats`] delta for just that call),
//! which is what the bench tables surface as per-DIP solver statistics.
//!
//! ## Assumption-literal protocol
//!
//! Clauses added to a session are permanent. Retractable constraints are
//! expressed through *assumption literals* passed to
//! [`Session::solve_under`]: the solver decides them first and reports
//! UNSAT-under-assumptions without poisoning the clause database. To make
//! a whole clause retractable, guard it with a fresh activation variable
//! `a` (`clause ∨ ¬a`) and assume `a` while the clause should hold — the
//! pattern [`crate::EquivSession`] uses to give each queried output subset
//! its own difference clause in one live miter.

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use crate::solver::{Budget, Outcome, Solver, SolverStats};
use crate::tseitin::ClauseSink;
use std::time::{Duration, Instant};

/// Accounting for one `solve*` call on a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveRecord {
    /// The call's outcome.
    pub outcome: Outcome,
    /// Wall-clock time of the call.
    pub wall: Duration,
    /// Search statistics for *this call only* (delta of the solver's
    /// cumulative stats).
    pub stats: SolverStats,
    /// Clauses appended to the session since the previous solve call.
    pub clauses_added: usize,
}

/// A persistent incremental SAT solving session.
///
/// # Examples
///
/// ```
/// use ril_sat::{Lit, Outcome, Session};
///
/// let mut s = Session::new();
/// s.add_clause([Lit::new(0, false), Lit::new(1, false)]);
/// assert_eq!(s.solve(), Outcome::Sat);
/// // Appending clauses keeps the solver (and everything it learned) warm.
/// s.add_clause([Lit::new(0, true)]);
/// assert_eq!(s.solve(), Outcome::Sat);
/// assert!(s.model()[1]);
/// assert_eq!(s.solve_count(), 2);
/// ```
#[derive(Debug)]
pub struct Session {
    solver: Solver,
    records: Vec<SolveRecord>,
    clauses_since_solve: usize,
    stats_snapshot: SolverStats,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// An empty session over a full-strength [`Solver`] with no budget;
    /// bound its solves with [`Session::set_budget`].
    pub fn new() -> Session {
        Session {
            solver: Solver::new(),
            records: Vec::new(),
            clauses_since_solve: 0,
            stats_snapshot: SolverStats::default(),
        }
    }

    /// A session pre-loaded with the clauses of `cnf`.
    pub fn from_cnf(cnf: &Cnf) -> Session {
        let mut s = Session::new();
        s.append_cnf(cnf);
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        self.solver.reserve_vars(n);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Appends a clause to the live solver. Returns `false` if the
    /// formula became trivially unsatisfiable at the root.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        self.clauses_since_solve += 1;
        self.solver.add_clause(lits)
    }

    /// Appends every clause of `cnf` (growing the variable pool to match).
    /// Returns `false` if the formula became trivially unsatisfiable.
    pub fn append_cnf(&mut self, cnf: &Cnf) -> bool {
        self.reserve_vars(cnf.num_vars());
        let mut ok = true;
        for clause in cnf.clauses() {
            ok = self.add_clause(clause.iter().copied());
            if !ok {
                break;
            }
        }
        ok
    }

    /// Solves the current formula with no assumptions, recording a
    /// [`SolveRecord`].
    pub fn solve(&mut self) -> Outcome {
        self.solve_under(&[])
    }

    /// Solves under assumption literals (see the module docs for the
    /// assumption protocol), recording a [`SolveRecord`]. When a
    /// `ril-trace` context is installed on the current thread, the call is
    /// wrapped in a `solve` span carrying this call's [`SolverStats`]
    /// delta (decisions/conflicts/propagations/learned).
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> Outcome {
        let mut span = ril_trace::span("solve", ril_trace::Phase::Solve);
        let start = Instant::now();
        let outcome = self.solver.solve_with_assumptions(assumptions);
        let after = self.solver.stats();
        let wall = start.elapsed();
        let delta = after.since(&self.stats_snapshot);
        if span.is_active() {
            span.record_str(
                "outcome",
                match outcome {
                    Outcome::Sat => "sat",
                    Outcome::Unsat => "unsat",
                    Outcome::Unknown => "unknown",
                },
            );
            span.record_u64("decisions", delta.decisions);
            span.record_u64("conflicts", delta.conflicts);
            span.record_u64("propagations", delta.propagations);
            span.record_u64("learned", delta.learned);
            span.record_u64("clauses_added", self.clauses_since_solve as u64);
            span.record_u64("vars", self.num_vars() as u64);
            ril_trace::counter("sat.solves", 1);
            ril_trace::counter("sat.conflicts", delta.conflicts);
            ril_trace::counter("sat.propagations", delta.propagations);
            ril_trace::timing("sat.solve_wall", wall);
        }
        self.records.push(SolveRecord {
            outcome,
            wall,
            stats: delta,
            clauses_added: self.clauses_since_solve,
        });
        self.stats_snapshot = after;
        self.clauses_since_solve = 0;
        outcome
    }

    /// The most recent satisfying model. Only meaningful directly after a
    /// solve call returned [`Outcome::Sat`].
    pub fn model(&self) -> &[bool] {
        self.solver.model()
    }

    /// Cumulative statistics over the session's lifetime.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Per-call records, oldest first.
    pub fn records(&self) -> &[SolveRecord] {
        &self.records
    }

    /// The record of the most recent solve call.
    pub fn last_record(&self) -> Option<&SolveRecord> {
        self.records.last()
    }

    /// Number of solve calls so far.
    pub fn solve_count(&self) -> usize {
        self.records.len()
    }

    /// Whether the clause database is still consistent at the root. Once
    /// `false`, every future solve returns [`Outcome::Unsat`].
    pub fn root_consistent(&self) -> bool {
        self.solver.root_consistent()
    }

    /// Applies `budget` to subsequent solve calls, replacing any earlier
    /// budget (conflict limits count from now; wall-clock limits are
    /// measured per call). [`Budget::unlimited`] removes both limits.
    pub fn set_budget(&mut self, budget: Budget) {
        self.solver.set_budget(budget);
    }

    /// Solves under `assumptions` within `budget`, recording a
    /// [`SolveRecord`].
    pub fn solve_within(&mut self, assumptions: &[Lit], budget: Budget) -> Outcome {
        self.set_budget(budget);
        self.solve_under(assumptions)
    }
}

/// Encoders write straight into the live solver: no intermediate [`Cnf`].
impl ClauseSink for Session {
    fn new_var(&mut self) -> Var {
        Session::new_var(self)
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        Session::add_clause(self, lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, neg: bool) -> Lit {
        Lit::new(v, neg)
    }

    #[test]
    fn incremental_additions_flip_outcome() {
        let mut s = Session::new();
        s.add_clause([lit(0, false), lit(1, false)]);
        assert_eq!(s.solve(), Outcome::Sat);
        s.add_clause([lit(0, true)]);
        assert_eq!(s.solve(), Outcome::Sat);
        assert!(s.model()[1]);
        s.add_clause([lit(1, true)]);
        assert_eq!(s.solve(), Outcome::Unsat);
        assert!(!s.root_consistent());
        // Root inconsistency is permanent.
        assert_eq!(s.solve(), Outcome::Unsat);
    }

    #[test]
    fn records_track_each_call() {
        let mut s = Session::new();
        s.add_clause([lit(0, false), lit(1, false)]);
        s.add_clause([lit(0, true), lit(1, false)]);
        s.solve();
        s.add_clause([lit(1, true), lit(2, false)]);
        s.solve();
        assert_eq!(s.solve_count(), 2);
        assert_eq!(s.records()[0].clauses_added, 2);
        assert_eq!(s.records()[1].clauses_added, 1);
        assert_eq!(s.records()[1].outcome, Outcome::Sat);
        // Deltas sum to the cumulative stats.
        let sum = s.records()[0].stats.plus(&s.records()[1].stats);
        assert_eq!(sum, s.stats());
    }

    #[test]
    fn assumptions_do_not_poison_the_session() {
        let mut s = Session::new();
        s.add_clause([lit(0, false), lit(1, false)]);
        assert_eq!(s.solve_under(&[lit(0, true), lit(1, true)]), Outcome::Unsat);
        assert!(s.root_consistent());
        assert_eq!(s.solve(), Outcome::Sat);
    }

    #[test]
    fn activation_literal_protocol_retracts_clauses() {
        let mut s = Session::new();
        let x = s.new_var();
        let act = s.new_var();
        // Guarded unit clause: x ∨ ¬act.
        s.add_clause([x.positive(), act.negative()]);
        // A hard clause contradicting x.
        s.add_clause([x.negative()]);
        // With the guard asserted the formula is UNSAT…
        assert_eq!(s.solve_under(&[act.positive()]), Outcome::Unsat);
        // …but the session survives and the clause is retracted without it.
        assert!(s.root_consistent());
        assert_eq!(s.solve(), Outcome::Sat);
        assert!(!s.model()[x.index()]);
    }

    #[test]
    fn append_cnf_matches_from_scratch() {
        let mut cnf = Cnf::new();
        let v = cnf.new_vars(3);
        cnf.add_clause([v[0].positive(), v[1].positive()]);
        cnf.add_clause([v[1].negative(), v[2].positive()]);
        cnf.add_clause([v[2].negative()]);
        let mut scratch = Solver::from_cnf(&cnf);
        let mut session = Session::from_cnf(&cnf);
        assert_eq!(session.solve(), scratch.solve());
        assert!(cnf.is_satisfied_by(session.model()));
    }

    fn pigeonhole_into(s: &mut Session, holes: usize) {
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
    }

    #[test]
    fn conflict_budget_is_per_call() {
        // A formula hard enough to need conflicts (pigeonhole 5→4).
        let mut s = Session::new();
        pigeonhole_into(&mut s, 4);
        s.set_budget(Budget::conflicts(2).unwrap());
        assert_eq!(s.solve(), Outcome::Unknown);
        // A fresh per-call budget counts from the current total, so the
        // second call gets real work done rather than dying instantly.
        s.set_budget(Budget::conflicts(1_000_000).unwrap());
        assert_eq!(s.solve(), Outcome::Unsat);
    }
}
