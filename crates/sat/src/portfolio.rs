//! Portfolio solving: race diversified CDCL workers, share short clauses.
//!
//! A [`Portfolio`] keeps K [`Solver`] workers loaded with the *same*
//! formula but diversified configurations (restart cadence, restarts on/off,
//! phase saving, default polarity — see [`Portfolio::diversified`]).
//! Each solve call races all workers on fresh threads; the first
//! definitive [`Outcome`] (`Sat`/`Unsat`) wins and the losers are stopped
//! cooperatively through the solver's budget hooks ([`Solver::set_stop_flag`]).
//! During a race, workers publish short learnt clauses (≤ [`EXPORT_MAX_LEN`]
//! literals, LBD ≤ [`EXPORT_MAX_LBD`]) into a bounded mutex-guarded ring
//! buffer and import their peers' clauses at restart boundaries, so the
//! portfolio is cooperative rather than merely redundant.
//!
//! Worker 0 always runs the caller's base configuration unchanged, which
//! keeps the portfolio's *answers* identical to a single-threaded run:
//! soundness of `Sat`/`Unsat` does not depend on which worker finishes
//! first, and with every worker budget-bound the race degrades to the
//! same `Unknown` a lone solver would report.
//!
//! [`crate::Session`] builds a portfolio automatically when
//! [`SolverConfig::threads`] > 1, which is how the SAT-attack DIP loop,
//! AppSAT, ScanSAT and the equivalence checker all pick this layer up
//! without code changes.

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use crate::solver::{Budget, Outcome, Solver, SolverConfig, SolverStats, MAX_SOLVER_THREADS};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Longest learnt clause (in literals) a worker will publish.
pub const EXPORT_MAX_LEN: usize = 8;

/// Highest LBD ("glue") a published clause may have.
pub const EXPORT_MAX_LBD: u32 = 4;

/// Ring-buffer capacity of the per-race clause exchange.
pub const EXCHANGE_CAPACITY: usize = 4096;

/// Static per-worker win-counter names (`ril_trace` counters take
/// `&'static str`, so the names are enumerated up to
/// [`MAX_SOLVER_THREADS`]).
const WIN_COUNTERS: [&str; MAX_SOLVER_THREADS] = [
    "portfolio.win.w0",
    "portfolio.win.w1",
    "portfolio.win.w2",
    "portfolio.win.w3",
    "portfolio.win.w4",
    "portfolio.win.w5",
    "portfolio.win.w6",
    "portfolio.win.w7",
    "portfolio.win.w8",
    "portfolio.win.w9",
    "portfolio.win.w10",
    "portfolio.win.w11",
    "portfolio.win.w12",
    "portfolio.win.w13",
    "portfolio.win.w14",
    "portfolio.win.w15",
];

/// The bounded clause exchange shared by one race: a mutex-guarded ring
/// of `(sequence, publisher, literals)`. Publishing past capacity drops
/// the oldest entry; importers track how far they have read via a
/// sequence cursor, so a slow importer simply misses overwritten clauses
/// (which only costs pruning, never soundness).
#[derive(Debug)]
pub(crate) struct ClauseExchange {
    capacity: usize,
    inner: Mutex<ExchangeRing>,
}

#[derive(Debug, Default)]
struct ExchangeRing {
    clauses: VecDeque<(u64, usize, Vec<Lit>)>,
    next_seq: u64,
}

impl ClauseExchange {
    fn new(capacity: usize) -> ClauseExchange {
        ClauseExchange {
            capacity,
            inner: Mutex::new(ExchangeRing::default()),
        }
    }

    fn publish(&self, from: usize, lits: &[Lit]) {
        let mut ring = self.inner.lock().expect("clause exchange");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.clauses.len() == self.capacity {
            ring.clauses.pop_front();
        }
        ring.clauses.push_back((seq, from, lits.to_vec()));
    }

    /// All clauses with sequence ≥ `cursor` not published by `reader`,
    /// plus the new cursor position.
    fn collect_since(&self, cursor: u64, reader: usize) -> (u64, Vec<Vec<Lit>>) {
        let ring = self.inner.lock().expect("clause exchange");
        let fresh = ring
            .clauses
            .iter()
            .filter(|(seq, from, _)| *seq >= cursor && *from != reader)
            .map(|(_, _, lits)| lits.clone())
            .collect();
        (ring.next_seq, fresh)
    }
}

/// One worker's endpoint of a [`ClauseExchange`]: publishes with the
/// worker's identity, imports everything new from its peers.
#[derive(Debug)]
pub(crate) struct ExchangeHandle {
    shared: Arc<ClauseExchange>,
    worker: usize,
    cursor: u64,
}

impl ExchangeHandle {
    fn new(shared: Arc<ClauseExchange>, worker: usize) -> ExchangeHandle {
        ExchangeHandle {
            shared,
            worker,
            cursor: 0,
        }
    }

    /// Whether a learnt clause of this shape is worth sharing.
    pub(crate) fn accepts(&self, len: usize, lbd: u32) -> bool {
        len <= EXPORT_MAX_LEN && lbd <= EXPORT_MAX_LBD
    }

    /// Publishes a learnt clause to the peers.
    pub(crate) fn publish(&self, lits: &[Lit]) {
        self.shared.publish(self.worker, lits);
    }

    /// Drains every clause published by peers since the last call.
    pub(crate) fn take_pending(&mut self) -> Vec<Vec<Lit>> {
        let (cursor, fresh) = self.shared.collect_since(self.cursor, self.worker);
        self.cursor = cursor;
        fresh
    }
}

/// Aggregated portfolio accounting (what the bench manifests surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Number of workers raced per solve call.
    pub workers: usize,
    /// Solve races run so far.
    pub races: u64,
    /// Definitive outcomes won, per worker.
    pub wins: Vec<u64>,
    /// Workers stopped because a peer answered first.
    pub cancelled: u64,
    /// Shared clauses imported across all workers.
    pub clauses_imported: u64,
    /// Shared clauses exported across all workers.
    pub clauses_exported: u64,
}

/// A portfolio of diversified CDCL workers racing on one formula.
///
/// # Examples
///
/// ```
/// use ril_sat::{Lit, Outcome, Portfolio, SolverConfig};
///
/// let cfg = SolverConfig::default().with_threads(2).unwrap();
/// let mut p = Portfolio::new(&cfg);
/// p.add_clause([Lit::new(0, false), Lit::new(1, false)]);
/// p.add_clause([Lit::new(0, true)]);
/// assert_eq!(p.solve(), Outcome::Sat);
/// assert!(p.model()[1]);
/// ```
#[derive(Debug)]
pub struct Portfolio {
    workers: Vec<Solver>,
    budget: Budget,
    wins: Vec<u64>,
    races: u64,
    cancelled: u64,
    last_winner: Option<usize>,
}

impl Portfolio {
    /// A portfolio of `base.threads` workers (clamped to
    /// `1..=MAX_SOLVER_THREADS`), worker 0 running `base` unchanged and
    /// the rest running [`Portfolio::diversified`] variants.
    pub fn new(base: &SolverConfig) -> Portfolio {
        let n = base.threads.clamp(1, MAX_SOLVER_THREADS);
        let workers = (0..n)
            .map(|i| Solver::with_config(Portfolio::diversified(base, i)))
            .collect();
        Portfolio {
            workers,
            budget: Budget::unlimited(),
            wins: vec![0; n],
            races: 0,
            cancelled: 0,
            last_winner: None,
        }
    }

    /// The configuration worker `worker` runs: worker 0 is `base`
    /// verbatim (the determinism anchor); higher indices vary restart
    /// cadence, restarts on/off, phase saving and default polarity.
    /// Budget fields are never varied. See DESIGN.md §10 for the table.
    pub fn diversified(base: &SolverConfig, worker: usize) -> SolverConfig {
        let mut cfg = base.clone();
        cfg.threads = 1;
        match worker {
            0 => {}
            1 => cfg.default_phase = !base.default_phase,
            2 => {
                cfg.restart_interval = match base.restart_interval {
                    1 => 2,
                    b => b / 2,
                }
            }
            3 => {
                cfg.phase_saving = false;
                cfg.restart_interval = base.restart_interval.saturating_mul(2);
            }
            4 => {
                cfg.default_phase = !base.default_phase;
                cfg.restart_interval = base.restart_interval.saturating_mul(4);
            }
            5 => cfg.restarts = false,
            6 => {
                cfg.default_phase = !base.default_phase;
                cfg.restart_interval = base.restart_interval / 3 + 1;
            }
            7 => {
                cfg.phase_saving = false;
                cfg.default_phase = !base.default_phase;
            }
            _ => {
                // Deterministic jitter for wide portfolios: Knuth hash of
                // the worker index picks restart cadence, polarity and
                // phase saving. The cadence never equals the base's, so
                // the worker always differs from worker 0.
                let h = (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let interval = 30 + (h >> 8) % 300;
                cfg.restart_interval = interval + u64::from(interval == base.restart_interval);
                cfg.default_phase = (h >> 16) & 1 == 1;
                cfg.phase_saving = !(h >> 24).is_multiple_of(4);
            }
        }
        cfg
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Allocates a fresh variable in every worker (all workers share one
    /// variable numbering, which is what makes clause exchange sound).
    pub fn new_var(&mut self) -> Var {
        let mut var = None;
        for w in &mut self.workers {
            var = Some(w.new_var());
        }
        var.expect("portfolio has at least one worker")
    }

    /// Ensures at least `n` variables exist in every worker.
    pub fn reserve_vars(&mut self, n: usize) {
        for w in &mut self.workers {
            w.reserve_vars(n);
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.workers[0].num_vars()
    }

    /// Adds a clause to every worker. Returns `false` if any worker
    /// derived root-level unsatisfiability (a sound UNSAT proof for all).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        let clause: Vec<Lit> = lits.into_iter().collect();
        let mut ok = true;
        for w in &mut self.workers {
            ok &= w.add_clause(clause.iter().copied());
        }
        ok
    }

    /// Appends every clause of `cnf` to every worker.
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

    /// Applies `budget` to every subsequent race (re-applied per call, so
    /// a conflict limit is per-call for each worker).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Races the workers with no assumptions.
    pub fn solve(&mut self) -> Outcome {
        self.solve_with_assumptions(&[])
    }

    /// Races the workers under assumption literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> Outcome {
        self.solve_traced(assumptions, None)
    }

    /// Races the workers, attaching one `solve_worker` span per worker
    /// under `parent` when a tracer is supplied (the form
    /// [`crate::Session`] uses so worker spans nest under its `solve`
    /// span).
    pub fn solve_traced(
        &mut self,
        assumptions: &[Lit],
        trace: Option<(ril_trace::Tracer, ril_trace::SpanId)>,
    ) -> Outcome {
        self.races += 1;
        if !self.workers.iter().all(Solver::root_consistent) {
            return Outcome::Unsat;
        }
        let budget = self.budget;
        if self.workers.len() == 1 {
            let outcome = self.workers[0].solve_within(assumptions, budget);
            if outcome != Outcome::Unknown {
                self.wins[0] += 1;
                self.last_winner = Some(0);
            } else {
                self.last_winner = None;
            }
            return outcome;
        }

        let shared_before = self.shared_totals();
        let exchange = Arc::new(ClauseExchange::new(EXCHANGE_CAPACITY));
        let stop = Arc::new(AtomicBool::new(false));
        let first: Mutex<Option<(usize, Outcome)>> = Mutex::new(None);
        let cancelled = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for (i, w) in self.workers.iter_mut().enumerate() {
                w.set_stop_flag(Some(Arc::clone(&stop)));
                w.set_exchange(Some(ExchangeHandle::new(Arc::clone(&exchange), i)));
                w.set_budget(budget);
                let stop = Arc::clone(&stop);
                let first = &first;
                let cancelled = &cancelled;
                let trace = trace.clone();
                scope.spawn(move || {
                    let mut span = match &trace {
                        Some((tracer, parent)) => {
                            tracer.span_under(*parent, "solve_worker", ril_trace::Phase::Solve)
                        }
                        None => ril_trace::Span::noop(),
                    };
                    let stats_before = w.stats();
                    let (imp_before, exp_before) = w.shared_clause_counts();
                    let outcome = w.solve_with_assumptions(assumptions);
                    let won = {
                        let mut slot = first.lock().expect("race result");
                        match outcome {
                            Outcome::Sat | Outcome::Unsat if slot.is_none() => {
                                *slot = Some((i, outcome));
                                stop.store(true, Ordering::SeqCst);
                                true
                            }
                            _ => false,
                        }
                    };
                    let was_cancelled =
                        !won && outcome == Outcome::Unknown && stop.load(Ordering::SeqCst);
                    if was_cancelled {
                        cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    if span.is_active() {
                        let delta = w.stats().since(&stats_before);
                        let (imp, exp) = w.shared_clause_counts();
                        span.record_u64("worker", i as u64);
                        span.record_str(
                            "outcome",
                            match outcome {
                                Outcome::Sat => "sat",
                                Outcome::Unsat => "unsat",
                                Outcome::Unknown => "unknown",
                            },
                        );
                        span.record_bool("winner", won);
                        span.record_bool("cancelled", was_cancelled);
                        span.record_u64("conflicts", delta.conflicts);
                        span.record_u64("decisions", delta.decisions);
                        span.record_u64("propagations", delta.propagations);
                        span.record_u64("imported", imp - imp_before);
                        span.record_u64("exported", exp - exp_before);
                        // span_under installed this thread's context, so the
                        // free-function counters attribute correctly.
                        if was_cancelled {
                            ril_trace::counter("portfolio.cancelled", 1);
                        }
                    }
                });
            }
        });

        for w in &mut self.workers {
            w.set_stop_flag(None);
            w.set_exchange(None);
        }
        self.cancelled += cancelled.load(Ordering::Relaxed);
        let shared_after = self.shared_totals();
        ril_trace::counter("portfolio.races", 1);
        ril_trace::counter(
            "portfolio.clauses_imported",
            shared_after.0 - shared_before.0,
        );
        ril_trace::counter(
            "portfolio.clauses_exported",
            shared_after.1 - shared_before.1,
        );
        match first.into_inner().expect("race result") {
            Some((winner, outcome)) => {
                self.wins[winner] += 1;
                self.last_winner = Some(winner);
                ril_trace::counter(WIN_COUNTERS[winner], 1);
                outcome
            }
            None => {
                // Every worker exhausted its budget.
                self.last_winner = None;
                Outcome::Unknown
            }
        }
    }

    /// `(imported, exported)` totals across workers.
    fn shared_totals(&self) -> (u64, u64) {
        self.workers.iter().fold((0, 0), |(i, e), w| {
            let (wi, we) = w.shared_clause_counts();
            (i + wi, e + we)
        })
    }

    /// The winning worker's model after a `Sat` race.
    pub fn model(&self) -> &[bool] {
        self.workers[self.last_winner.unwrap_or(0)].model()
    }

    /// Summed statistics across all workers (monotone over time, so
    /// session records based on deltas stay consistent).
    pub fn stats(&self) -> SolverStats {
        self.workers
            .iter()
            .fold(SolverStats::default(), |acc, w| acc.plus(&w.stats()))
    }

    /// Whether every worker's clause database is still root-consistent.
    pub fn root_consistent(&self) -> bool {
        self.workers.iter().all(Solver::root_consistent)
    }

    /// The worker that won the most recent race (`None` after `Unknown`).
    pub fn last_winner(&self) -> Option<usize> {
        self.last_winner
    }

    /// Portfolio accounting so far.
    pub fn portfolio_stats(&self) -> PortfolioStats {
        let (imported, exported) = self.shared_totals();
        PortfolioStats {
            workers: self.workers.len(),
            races: self.races,
            wins: self.wins.clone(),
            cancelled: self.cancelled,
            clauses_imported: imported,
            clauses_exported: exported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn lit(v: usize, neg: bool) -> Lit {
        Lit::new(v, neg)
    }

    fn pigeonhole(holes: usize) -> Cnf {
        let pigeons = holes + 1;
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for _ in 0..pigeons * holes {
            cnf.new_var();
        }
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        cnf
    }

    fn portfolio_of(workers: usize) -> Portfolio {
        Portfolio::new(&SolverConfig::default().with_threads(workers).unwrap())
    }

    #[test]
    fn worker_zero_is_the_base_config() {
        let base = SolverConfig::default();
        let w0 = Portfolio::diversified(&base, 0);
        assert_eq!(w0.restart_interval, base.restart_interval);
        assert_eq!(w0.phase_saving, base.phase_saving);
        assert_eq!(w0.default_phase, base.default_phase);
        assert_eq!(w0.restarts, base.restarts);
    }

    #[test]
    fn diversified_configs_differ_and_keep_budgets() {
        let base = SolverConfig {
            timeout: Some(Duration::from_secs(7)),
            max_conflicts: Some(123),
            ..SolverConfig::default()
        };
        for i in 1..MAX_SOLVER_THREADS {
            let cfg = Portfolio::diversified(&base, i);
            assert_eq!(cfg.timeout, base.timeout, "worker {i} keeps timeout");
            assert_eq!(
                cfg.max_conflicts, base.max_conflicts,
                "worker {i} keeps conflicts"
            );
            assert!(
                cfg.restart_interval != base.restart_interval
                    || cfg.phase_saving != base.phase_saving
                    || cfg.default_phase != base.default_phase
                    || cfg.restarts != base.restarts,
                "worker {i} must differ from base"
            );
            assert!(cfg.restart_interval >= 1);
        }
    }

    #[test]
    fn race_agrees_sat_and_unsat() {
        let unsat = pigeonhole(4);
        let mut p = portfolio_of(4);
        p.append_cnf(&unsat);
        assert_eq!(p.solve(), Outcome::Unsat);
        assert!(p.last_winner().is_some());
        assert_eq!(p.portfolio_stats().wins.iter().sum::<u64>(), 1);

        let mut p = portfolio_of(4);
        p.add_clause([lit(0, false), lit(1, false)]);
        p.add_clause([lit(0, true)]);
        assert_eq!(p.solve(), Outcome::Sat);
        assert!(p.model()[1]);
    }

    #[test]
    fn assumptions_race() {
        let mut p = portfolio_of(3);
        p.add_clause([lit(0, false), lit(1, false)]);
        p.add_clause([lit(0, true), lit(2, false)]);
        assert_eq!(p.solve_with_assumptions(&[lit(0, false)]), Outcome::Sat);
        assert!(p.model()[0] && p.model()[2]);
        assert_eq!(
            p.solve_with_assumptions(&[lit(1, true), lit(0, true)]),
            Outcome::Unsat
        );
        // The session survives UNSAT-under-assumptions.
        assert!(p.root_consistent());
        assert_eq!(p.solve(), Outcome::Sat);
    }

    #[test]
    fn budget_bound_race_returns_unknown() {
        let mut p = portfolio_of(2);
        p.append_cnf(&pigeonhole(8));
        p.set_budget(Budget::conflicts(5).unwrap());
        assert_eq!(p.solve(), Outcome::Unknown);
        assert_eq!(p.last_winner(), None);
        // Budget is per race: a generous second budget finishes the job.
        p.set_budget(Budget::conflicts(10_000_000).unwrap());
        assert_eq!(p.solve(), Outcome::Unsat);
    }

    #[test]
    fn incremental_race_keeps_workers_in_lockstep() {
        let mut p = portfolio_of(3);
        p.add_clause([lit(0, false), lit(1, false)]);
        assert_eq!(p.solve(), Outcome::Sat);
        p.add_clause([lit(0, true)]);
        p.add_clause([lit(1, true)]);
        assert_eq!(p.solve(), Outcome::Unsat);
        assert!(!p.root_consistent());
        assert_eq!(p.solve(), Outcome::Unsat);
        let stats = p.portfolio_stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.races, 3);
    }

    #[test]
    fn exchange_ring_is_bounded_and_skips_own_clauses() {
        let ex = ClauseExchange::new(4);
        for i in 0..10u64 {
            ex.publish(0, &[Lit::new(i as usize, false)]);
        }
        // Reader 0 published everything: nothing to import.
        let (cursor, own) = ex.collect_since(0, 0);
        assert_eq!(cursor, 10);
        assert!(own.is_empty());
        // Reader 1 sees at most the ring capacity.
        let (_, fresh) = ex.collect_since(0, 1);
        assert_eq!(fresh.len(), 4);
        assert_eq!(fresh[0], vec![Lit::new(6, false)]);
        // A caught-up reader gets nothing new.
        let (cursor2, fresh2) = ex.collect_since(cursor, 1);
        assert_eq!(cursor2, 10);
        assert!(fresh2.is_empty());
    }

    #[test]
    fn stats_sum_over_workers_monotonically() {
        let mut p = portfolio_of(2);
        p.append_cnf(&pigeonhole(4));
        let before = p.stats();
        p.solve();
        let after = p.stats();
        assert!(after.conflicts >= before.conflicts);
        assert!(after.decisions > 0);
    }
}
