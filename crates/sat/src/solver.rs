//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! A MiniSat-style architecture: two-watched-literal propagation, first-UIP
//! conflict analysis with non-chronological backjumping, a VMTF decision
//! queue (CaDiCaL's focused-mode order) with phase saving, Luby-sequence
//! restarts and LBD/activity-based learnt-clause database reduction — the
//! same algorithm family as the CaDiCaL solver the paper uses (Section IV,
//! \[18\]). Feature toggles in [`SolverConfig`] support the solver-ablation
//! experiment; solve calls are bounded by a [`Budget`].
//!
//! ## Incremental use
//!
//! One solver lives as long as its formula: the oracle-guided attack
//! appends each DIP's I/O constraint to the *live* solver, keeping learned
//! clauses, the decision order and watch lists warm across iterations,
//! instead of re-reading a growing CNF every iteration. Encoders write
//! straight into it, since a [`Solver`] is a [`ClauseSink`].
//!
//! Clauses are permanent. Retractable constraints are expressed through
//! *assumption literals* passed to [`Solver::solve_with_assumptions`]: the
//! solver decides them first and reports UNSAT-under-assumptions without
//! poisoning the clause database. To make a whole clause retractable,
//! guard it with a fresh activation variable `a` (`clause ∨ ¬a`) and
//! assume `a` while the clause should hold — the pattern the attack miter
//! uses to switch its difference clause on for DIP solves and off for key
//! extraction.

use crate::cnf::Cnf;
use crate::lit::{LBool, Lit, Var};
use crate::tseitin::ClauseSink;
use std::time::{Duration, Instant};

const NO_REASON: u32 = u32::MAX;

/// Base Luby restart interval in conflicts (the sequence is scaled by
/// this).
const RESTART_INTERVAL: u64 = 100;

/// Polarity decided for a variable that has no saved phase yet (and, with
/// phase saving off, for every decision).
const DEFAULT_PHASE: bool = false;

/// Result of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A satisfying assignment was found (read it with [`Solver::model`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource budget (time or conflicts) expired first. This is how the
    /// paper's tables report `∞`.
    Unknown,
}

/// The solver's heuristic switches. They exist for the solver-ablation
/// experiment; the defaults are the full-strength configuration. Solve
/// calls are bounded by a [`Budget`], not by the configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Dynamic decision order: the VMTF queue, which moves the variables
    /// of every conflict to the front. When false, decisions pick the
    /// lowest-index unassigned variable (DPLL-style static order).
    pub dynamic_order: bool,
    /// Enable Luby restarts.
    pub restarts: bool,
    /// Enable phase saving.
    pub phase_saving: bool,
    /// Enable learnt-clause minimization.
    pub clause_minimization: bool,
    /// Enable learnt-database reduction.
    pub reduce_db: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            dynamic_order: true,
            restarts: true,
            phase_saving: true,
            clause_minimization: true,
            reduce_db: true,
        }
    }
}

impl SolverConfig {
    /// A deliberately weakened configuration resembling older DPLL-era
    /// solvers (static order, no restarts/phase saving/minimization) —
    /// the "lingeling-class vs CaDiCaL-class" ablation baseline.
    pub fn weakened() -> SolverConfig {
        SolverConfig {
            dynamic_order: false,
            restarts: false,
            phase_saving: false,
            clause_minimization: false,
            reduce_db: false,
        }
    }
}

/// A validated resource budget for solve calls: optional conflict and
/// wall-clock limits. Zero limits are rejected at construction (a zero
/// budget is always a caller bug — it would silently turn every solve
/// into [`Outcome::Unknown`]).
///
/// # Examples
///
/// ```
/// use ril_sat::Budget;
/// use std::time::Duration;
///
/// let b = Budget::wall(Duration::from_secs(5)).unwrap().and_conflicts(10_000).unwrap();
/// assert_eq!(b.max_conflicts(), Some(10_000));
/// assert!(Budget::conflicts(0).is_err());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    conflicts: Option<u64>,
    wall: Option<Duration>,
}

/// A rejected [`Budget`] limit (zero conflicts or zero duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetError {
    /// Which limit was rejected (`"conflicts"` or `"wall"`).
    pub limit: &'static str,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "zero {} budget rejected (use Budget::unlimited to remove a limit)",
            self.limit
        )
    }
}

impl std::error::Error for BudgetError {}

impl Budget {
    /// No limits: solves run to completion.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A conflict-count budget; `n` must be ≥ 1.
    pub fn conflicts(n: u64) -> Result<Budget, BudgetError> {
        Budget::unlimited().and_conflicts(n)
    }

    /// A wall-clock budget; `d` must be non-zero.
    pub fn wall(d: Duration) -> Result<Budget, BudgetError> {
        Budget::unlimited().and_wall(d)
    }

    /// Adds a conflict limit to an existing budget; `n` must be ≥ 1.
    pub fn and_conflicts(mut self, n: u64) -> Result<Budget, BudgetError> {
        if n == 0 {
            return Err(BudgetError { limit: "conflicts" });
        }
        self.conflicts = Some(n);
        Ok(self)
    }

    /// Adds a wall-clock limit to an existing budget; `d` must be non-zero.
    pub fn and_wall(mut self, d: Duration) -> Result<Budget, BudgetError> {
        if d.is_zero() {
            return Err(BudgetError { limit: "wall" });
        }
        self.wall = Some(d);
        Ok(self)
    }

    /// Adapts the `Option<Duration>` timeout shape the attack configs and
    /// [`crate::EquivOptions`] carry. `None` means unlimited; a zero
    /// duration (an already-spent budget) is clamped up to 1 ms,
    /// preserving its "no time left" meaning instead of silently becoming
    /// unlimited.
    pub fn from_timeout(timeout: Option<Duration>) -> Budget {
        Budget {
            conflicts: None,
            wall: timeout.map(|t| t.max(Duration::from_millis(1))),
        }
    }

    /// The conflict limit, if any.
    pub fn max_conflicts(&self) -> Option<u64> {
        self.conflicts
    }

    /// The wall-clock limit, if any.
    pub fn timeout(&self) -> Option<Duration> {
        self.wall
    }
}

/// Search statistics.
///
/// Statistics are cumulative over a solver's lifetime; use
/// [`SolverStats::since`] to express one solve call as a delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Decision count.
    pub decisions: u64,
    /// Conflict count (≈ DPLL backtracks; the quantity the paper's
    /// SAT-hardness argument is about).
    pub conflicts: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learned: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted: u64,
}

impl SolverStats {
    /// The per-field difference `self - earlier` (saturating): the work
    /// done between two cumulative snapshots.
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learned: self.learned.saturating_sub(earlier.learned),
            deleted: self.deleted.saturating_sub(earlier.deleted),
        }
    }

    /// The per-field sum `self + other` (saturating): aggregate work of
    /// several solve calls, e.g. an attack's key extractions.
    pub fn plus(&self, other: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_add(other.decisions),
            conflicts: self.conflicts.saturating_add(other.conflicts),
            propagations: self.propagations.saturating_add(other.propagations),
            restarts: self.restarts.saturating_add(other.restarts),
            learned: self.learned.saturating_add(other.learned),
            deleted: self.deleted.saturating_add(other.deleted),
        }
    }
}

/// A clause header; its literals are `arena[start..start + len]`.
#[derive(Debug, Clone)]
struct Clause {
    start: u32,
    len: u32,
    lbd: u32,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

const NONE: u32 = u32::MAX;

/// One variable's neighbours in the [`VarQueue`] (`NONE` at either end,
/// and both `NONE` while unlinked).
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// The VMTF (variable move-to-front) decision queue of CaDiCaL's focused
/// mode (Biere & Fröhlich, "Evaluating CDCL Variable Scoring Schemes",
/// SAT 2015). The decision variables sit in a doubly linked list in
/// bump-stamp order, from `first` (oldest) to `last` (newest: the front of
/// the decision order). `search` marks the point past which every
/// variable is assigned, so a decision walks back from it. Bumping and
/// unassigning are O(1), a decision amortized O(1).
#[derive(Debug, Clone)]
struct VarQueue {
    links: Vec<Link>,
    /// Per variable: the bump that last moved it to the front.
    stamp: Vec<u64>,
    first: u32,
    last: u32,
    search: u32,
    bumps: u64,
}

impl Default for VarQueue {
    fn default() -> VarQueue {
        VarQueue {
            links: Vec::new(),
            stamp: Vec::new(),
            first: NONE,
            last: NONE,
            search: NONE,
            bumps: 0,
        }
    }
}

impl VarQueue {
    /// Makes room for one more (unlinked) variable.
    fn grow(&mut self) {
        self.links.push(Link {
            prev: NONE,
            next: NONE,
        });
        self.stamp.push(0);
    }

    /// Links `v` at the front with a fresh stamp. An unassigned `v` is then
    /// the newest unassigned variable, so the search starts from it.
    fn push(&mut self, v: Var, unassigned: bool) {
        let i = v.0;
        self.bumps += 1;
        self.stamp[i as usize] = self.bumps;
        self.links[i as usize] = Link {
            prev: self.last,
            next: NONE,
        };
        match self.last {
            NONE => self.first = i,
            last => self.links[last as usize].next = i,
        }
        self.last = i;
        if unassigned {
            self.search = i;
        }
    }

    /// Unlinks `v`, stepping the search pointer back past it.
    fn remove(&mut self, v: Var) {
        let i = v.0;
        let Link { prev, next } = self.links[i as usize];
        match prev {
            NONE => self.first = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NONE => self.last = prev,
            n => self.links[n as usize].prev = prev,
        }
        if self.search == i {
            self.search = prev;
        }
        self.links[i as usize] = Link {
            prev: NONE,
            next: NONE,
        };
    }

    /// Moves the assigned variable `v` to the front.
    fn bump(&mut self, v: Var) {
        self.remove(v);
        self.push(v, false);
    }

    /// `v` was just unassigned: the search restarts from it if it is newer
    /// than the current search point.
    fn unassigned(&mut self, v: Var) {
        let newer = match self.search {
            NONE => true,
            s => self.stamp[v.index()] > self.stamp[s as usize],
        };
        if newer {
            self.search = v.0;
        }
    }

    /// The newest unassigned variable, walking back from the search point
    /// (which moves there); `None` when every linked variable is assigned.
    fn next_unassigned(&mut self, assigned: impl Fn(usize) -> bool) -> Option<Var> {
        let mut i = self.search;
        while i != NONE && assigned(i as usize) {
            i = self.links[i as usize].prev;
        }
        self.search = i;
        (i != NONE).then_some(Var(i))
    }
}

/// A CDCL SAT solver instance.
///
/// # Examples
///
/// ```
/// use ril_sat::{Cnf, Solver, Outcome};
///
/// let mut cnf = Cnf::new();
/// let a = cnf.new_var();
/// let b = cnf.new_var();
/// cnf.add_clause([a.positive(), b.positive()]);
/// cnf.add_clause([a.negative()]);
/// let mut solver = Solver::from_cnf(&cnf);
/// assert_eq!(solver.solve(), Outcome::Sat);
/// assert_eq!(solver.model()[b.index()], true);
/// ```
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back. Deleted clauses leave holes
    /// until the next compaction.
    arena: Vec<Lit>,
    watches: Vec<Vec<Watcher>>,
    /// Per literal (indexed by [`Lit::index`]): its current value.
    values: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    cla_inc: f64,
    queue: VarQueue,
    /// Per variable: may the search branch on it (is it in `queue`)?
    /// Cleared when the variable is fixed at the root, or when the last
    /// live clause naming it is deleted (it then reads `false` in the
    /// model); attaching a clause that names it sets it again.
    decision: Vec<bool>,
    /// Per variable: live clauses naming it.
    occurs: Vec<u32>,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    /// Reused buffer [`Solver::add_clause`] simplifies a clause in.
    add_buf: Vec<Lit>,
    /// Reused buffers of [`Solver::analyze`]: the learnt clause, the
    /// variables it marked `seen`, and the learnt clause's levels.
    learnt: Vec<Lit>,
    analyzed: Vec<Var>,
    levels: Vec<u32>,
    ok: bool,
    model: Vec<bool>,
    stats: SolverStats,
    start: Option<Instant>,
    /// Absolute conflict count at which a solve gives up, set by
    /// [`Solver::set_budget`].
    conflict_limit: Option<u64>,
    /// Wall-clock limit of each solve call, set by [`Solver::set_budget`].
    wall_limit: Option<Duration>,
    learnt_limit: f64,
    /// Live (undeleted) problem clauses; sizes the learnt budget.
    live_problem: usize,
    /// Deleted clauses still holding a slot in `clauses`.
    tombstones: usize,
    /// Root trail length at the last root simplification.
    simplified_trail: usize,
    /// Statistics at the end of the previous solve call: a solve's `solve`
    /// trace span reports the work done since then.
    solve_snapshot: SolverStats,
    /// [`Solver::add_clause`] calls since the previous solve call.
    clauses_since_solve: usize,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with default configuration.
    pub fn new() -> Solver {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            config,
            clauses: Vec::new(),
            arena: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            cla_inc: 1.0,
            queue: VarQueue::default(),
            decision: Vec::new(),
            occurs: Vec::new(),
            saved_phase: Vec::new(),
            seen: Vec::new(),
            add_buf: Vec::new(),
            learnt: Vec::new(),
            analyzed: Vec::new(),
            levels: Vec::new(),
            ok: true,
            model: Vec::new(),
            stats: SolverStats::default(),
            start: None,
            conflict_limit: None,
            wall_limit: None,
            learnt_limit: 2000.0,
            live_problem: 0,
            tombstones: 0,
            simplified_trail: 0,
            solve_snapshot: SolverStats::default(),
            clauses_since_solve: 0,
        }
    }

    /// Creates a solver loaded with the clauses of `cnf`.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        Solver::from_cnf_with_config(cnf, SolverConfig::default())
    }

    /// Creates a configured solver loaded with the clauses of `cnf`.
    pub fn from_cnf_with_config(cnf: &Cnf, config: SolverConfig) -> Solver {
        let mut s = Solver::with_config(config);
        s.reserve_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            s.add_clause(clause.iter().copied());
        }
        s
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars());
        self.values.extend([LBool::Undef; 2]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.decision.push(true);
        self.occurs.push(0);
        self.saved_phase.push(DEFAULT_PHASE);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.queue.grow();
        self.queue.push(v, true);
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Whether the clause database is still consistent at the root level.
    /// Once `false` (an empty clause was derived), every future solve
    /// returns [`Outcome::Unsat`] regardless of assumptions.
    pub fn root_consistent(&self) -> bool {
        self.ok
    }

    /// Applies `budget` to subsequent solve calls, replacing any earlier
    /// budget entirely: the conflict limit counts *from now* (on top of
    /// the cumulative statistics) and the wall-clock limit is measured
    /// from the start of each call. [`Budget::unlimited`] removes both
    /// limits.
    pub fn set_budget(&mut self, budget: Budget) {
        self.conflict_limit = budget
            .max_conflicts()
            .map(|b| self.stats.conflicts.saturating_add(b));
        self.wall_limit = budget.timeout();
    }

    /// [`Solver::add_clause`] calls since the previous solve call: the
    /// clauses the next solve is the first to search with.
    ///
    /// # Examples
    ///
    /// ```
    /// use ril_sat::{Lit, Outcome, Solver};
    ///
    /// let mut s = Solver::new();
    /// s.add_clause([Lit::new(0, false), Lit::new(1, false)]);
    /// assert_eq!(s.solve(), Outcome::Sat);
    /// // Appending clauses keeps the solver (and everything it learned) warm.
    /// s.add_clause([Lit::new(0, true)]);
    /// assert_eq!(s.clauses_since_solve(), 1);
    /// assert_eq!(s.solve(), Outcome::Sat);
    /// assert!(s.model()[1]);
    /// assert_eq!(s.clauses_since_solve(), 0);
    /// ```
    pub fn clauses_since_solve(&self) -> usize {
        self.clauses_since_solve
    }

    /// Adds a clause. Tautologies are dropped, duplicate literals removed,
    /// and literals already false at the top level deleted. Returns `false`
    /// if the formula became trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        self.clauses_since_solve += 1;
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0, "add_clause at root only");
        // Sort, dedup and root-simplify in a reused buffer.
        let mut clause = std::mem::take(&mut self.add_buf);
        clause.clear();
        clause.extend(lits);
        if let Some(top) = clause.iter().map(|l| l.var().index()).max() {
            self.reserve_vars(top + 1);
        }
        clause.sort_unstable();
        clause.dedup();
        // Sorted, so `l` and `!l` are neighbours: a tautology or a root-true
        // literal satisfies the clause; root-false literals drop out.
        let satisfied = clause.windows(2).any(|w| w[0].var() == w[1].var())
            || clause.iter().any(|&l| self.value_lit(l) == LBool::True);
        clause.retain(|&l| self.value_lit(l) == LBool::Undef);
        let ok = if satisfied {
            true
        } else {
            match clause.len() {
                0 => {
                    self.ok = false;
                    false
                }
                1 => {
                    self.enqueue(clause[0], NO_REASON);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                    self.ok
                }
                _ => {
                    self.attach_clause(&clause, false, 0);
                    true
                }
            }
        };
        self.add_buf = clause;
        ok
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> u32 {
        for &l in lits {
            let v = l.var();
            self.occurs[v.index()] += 1;
            if !self.decision[v.index()] {
                debug_assert!(
                    self.value_var(v) == LBool::Undef || self.level[v.index()] > 0,
                    "a root-fixed variable is never named again"
                );
                self.decision[v.index()] = true;
                self.queue.push(v, self.value_var(v) == LBool::Undef);
            }
        }
        if !learnt {
            self.live_problem += 1;
        }
        let idx = self.clauses.len() as u32;
        let w0 = Watcher {
            clause: idx,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: idx,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).index()].push(w0);
        self.watches[(!lits[1]).index()].push(w1);
        self.clauses.push(Clause {
            start: self.arena.len() as u32,
            len: lits.len() as u32,
            lbd,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        self.arena.extend_from_slice(lits);
        idx
    }

    /// Arena slots of clause `ci`'s literals.
    fn slots(&self, ci: usize) -> std::ops::Range<usize> {
        let c = &self.clauses[ci];
        c.start as usize..(c.start + c.len) as usize
    }

    fn lits(&self, ci: usize) -> &[Lit] {
        &self.arena[self.slots(ci)]
    }

    fn value_var(&self, v: Var) -> LBool {
        self.values[v.positive().index()]
    }

    fn value_lit(&self, l: Lit) -> LBool {
        self.values[l.index()]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var();
        self.values[l.index()] = LBool::True;
        self.values[(!l).index()] = LBool::False;
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Watchers are filed under the *negation* of the watched
            // literal, so `watches[p]` holds clauses whose watched literal
            // `!p` was just falsified.
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.values[w.blocker.index()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let c = &self.clauses[w.clause as usize];
                if c.deleted {
                    continue; // drop watcher of deleted clause
                }
                let lits = &mut self.arena[c.start as usize..(c.start + c.len) as usize];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let w_new = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.values[first.index()] == LBool::True {
                    ws[j] = w_new;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if self.values[lk.index()] != LBool::False {
                        lits[1] = lk;
                        lits[k] = false_lit;
                        self.watches[(!lk).index()].push(w_new);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = w_new;
                j += 1;
                if self.values[first.index()] == LBool::False {
                    conflict = Some(w.clause);
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    break;
                }
                self.enqueue(first, w.clause);
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_clause(&mut self, ci: usize) {
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis into `self.learnt` (asserting literal
    /// first); returns (backjump level, LBD). Allocation-free: every buffer
    /// is reused across conflicts.
    fn analyze(&mut self, mut confl: u32) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt);
        let mut analyzed = std::mem::take(&mut self.analyzed);
        learnt.clear();
        analyzed.clear();
        learnt.push(Lit::new(0, false)); // slot 0 = UIP
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();
        loop {
            debug_assert_ne!(confl, NO_REASON);
            let ci = confl as usize;
            if self.clauses[ci].learnt {
                self.bump_clause(ci);
            }
            let slots = self.slots(ci);
            let skip = usize::from(p.is_some());
            for j in slots.start + skip..slots.end {
                let q = self.arena[j];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    analyzed.push(v);
                    if self.level[v.index()] >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next trail literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            confl = self.reason[pl.var().index()];
        }
        learnt[0] = !p.expect("UIP found");

        // Optional clause minimization (basic self-subsumption), compacting
        // in place. Removing a literal clears no `seen` flag, so each
        // literal is judged exactly as against the unminimized clause.
        if self.config.clause_minimization {
            let mut kept = 1;
            for i in 1..learnt.len() {
                let l = learnt[i];
                let r = self.reason[l.var().index()];
                let redundant = r != NO_REASON
                    && self.lits(r as usize).iter().all(|&q| {
                        q.var() == l.var()
                            || self.seen[q.var().index()]
                            || self.level[q.var().index()] == 0
                    });
                if !redundant {
                    learnt[kept] = l;
                    kept += 1;
                }
            }
            learnt.truncate(kept);
        }

        // LBD = distinct decision levels among learnt literals.
        self.levels.clear();
        self.levels
            .extend(learnt.iter().map(|l| self.level[l.var().index()]));
        self.levels.sort_unstable();
        self.levels.dedup();
        let lbd = self.levels.len() as u32;

        // Clear seen flags (everything set during this analysis), and
        // move the analyzed variables to the front of the decision queue
        // in their old order.
        for &v in &analyzed {
            self.seen[v.index()] = false;
        }
        if self.config.dynamic_order {
            analyzed.sort_unstable_by_key(|v| self.queue.stamp[v.index()]);
            for &v in &analyzed {
                self.queue.bump(v);
            }
        }

        // Backjump level: highest level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        self.learnt = learnt;
        self.analyzed = analyzed;
        (bt, lbd)
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if self.config.phase_saving {
                self.saved_phase[v.index()] = l.target();
            }
            self.values[l.index()] = LBool::Undef;
            self.values[(!l).index()] = LBool::Undef;
            if self.decision[v.index()] {
                self.queue.unassigned(v);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        if self.config.dynamic_order {
            let values = &self.values;
            self.queue
                .next_unassigned(|v| values[Var::new(v).positive().index()] != LBool::Undef)
        } else {
            (0..self.num_vars())
                .map(Var::new)
                .find(|&v| self.decision[v.index()] && self.value_var(v) == LBool::Undef)
        }
    }

    /// Takes `v` out of the decision queue for good, until a clause
    /// naming it is attached.
    fn demote(&mut self, v: Var) {
        if self.decision[v.index()] {
            self.decision[v.index()] = false;
            self.queue.remove(v);
        }
    }

    /// Marks clause `ci` deleted, demoting every variable it was the last
    /// live clause to name. Its literals stay in the arena, and its
    /// watchers in their lists, until root simplification or compaction
    /// drops them (propagation also drops watchers lazily).
    fn delete_clause(&mut self, ci: usize) {
        self.clauses[ci].deleted = true;
        for slot in self.slots(ci) {
            let v = self.arena[slot].var();
            self.occurs[v.index()] -= 1;
            if self.occurs[v.index()] == 0 {
                self.demote(v);
            }
        }
        if self.clauses[ci].learnt {
            self.stats.deleted += 1;
        } else {
            self.live_problem -= 1;
        }
        self.tombstones += 1;
    }

    /// Root-level garbage collection (MiniSat's `simplify`), run at the
    /// start of every solve. Once the root trail has grown, every clause
    /// it satisfies is deleted, original and learnt alike, so a variable
    /// no live clause names any more stops being a decision variable. A
    /// constraint group guarded by `¬g` therefore costs nothing once a
    /// unit `¬g` retires it. The arena is compacted when tombstones
    /// outnumber live clauses. Returns `false` on a root conflict.
    fn simplify(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        let mut dirty = Vec::new();
        if self.trail.len() > self.simplified_trail {
            dirty = self.collect_satisfied();
        }
        if self.mostly_tombstones() {
            self.compact();
        } else {
            let clauses = &self.clauses;
            for w in dirty {
                self.watches[w].retain(|w| !clauses[w.clause as usize].deleted);
            }
        }
        true
    }

    /// Deletes the clauses satisfied at the root. Returns the (sorted,
    /// deduplicated) watch lists that held their watchers.
    fn collect_satisfied(&mut self) -> Vec<usize> {
        let mut dirty = Vec::new();
        for ci in 0..self.clauses.len() {
            let lits = self.lits(ci);
            if !self.clauses[ci].deleted && lits.iter().any(|&l| self.value_lit(l) == LBool::True) {
                dirty.push((!lits[0]).index());
                dirty.push((!lits[1]).index());
                self.delete_clause(ci);
            }
        }
        // A root reason is never expanded, and it is satisfied by the
        // literal it implied, so it was just deleted. A root-fixed
        // variable is never decided again either.
        for i in self.simplified_trail..self.trail.len() {
            let v = self.trail[i].var();
            self.reason[v.index()] = NO_REASON;
            self.demote(v);
        }
        self.simplified_trail = self.trail.len();
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Whether deleted clauses outnumber live ones (time to compact).
    fn mostly_tombstones(&self) -> bool {
        self.tombstones > self.clauses.len() - self.tombstones
    }

    /// Drops deleted clauses and their literals from the arena, remapping
    /// the clause indices held by watchers and reasons.
    fn compact(&mut self) {
        let mut remap = vec![NO_REASON; self.clauses.len()];
        let mut next = 0u32;
        let mut arena = Vec::with_capacity(self.arena.len() / 2);
        for (slot, c) in remap.iter_mut().zip(&mut self.clauses) {
            if !c.deleted {
                *slot = next;
                next += 1;
                let start = arena.len() as u32;
                arena.extend_from_slice(&self.arena[c.start as usize..(c.start + c.len) as usize]);
                c.start = start;
            }
        }
        self.arena = arena;
        self.clauses.retain(|c| !c.deleted);
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                w.clause = remap[w.clause as usize];
                w.clause != NO_REASON
            });
        }
        for &l in &self.trail {
            let r = &mut self.reason[l.var().index()];
            if *r != NO_REASON {
                *r = remap[*r as usize];
            }
        }
        self.tombstones = 0;
    }

    fn reduce_db(&mut self) {
        let mut learnt_idx: Vec<usize> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(i, c)| c.learnt && !c.deleted && c.len > 2 && !self.is_locked(*i))
            .map(|(i, _)| i)
            .collect();
        // Worst first: high LBD, then low activity.
        learnt_idx.sort_by(|&a, &b| {
            let ca = &self.clauses[a];
            let cb = &self.clauses[b];
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.partial_cmp(&cb.activity).expect("finite"))
        });
        let to_delete = learnt_idx.len() / 2;
        for &i in learnt_idx.iter().take(to_delete) {
            self.delete_clause(i);
        }
        // Deleted clauses' watchers are dropped lazily during propagation,
        // or all at once by a compaction.
        if self.mostly_tombstones() {
            self.compact();
        }
        self.learnt_limit *= 1.5;
    }

    fn is_locked(&self, ci: usize) -> bool {
        let first = self.arena[self.clauses[ci].start as usize];
        self.value_lit(first) == LBool::True && self.reason[first.var().index()] == ci as u32
    }

    fn luby(mut x: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    fn budget_exhausted(&self) -> bool {
        if let Some(max_c) = self.conflict_limit {
            if self.stats.conflicts >= max_c {
                return true;
            }
        }
        if let Some(timeout) = self.wall_limit {
            if let Some(start) = self.start {
                // Cheap check: only probe the clock periodically.
                if self.stats.conflicts.is_multiple_of(256) && start.elapsed() >= timeout {
                    return true;
                }
            }
        }
        false
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> Outcome {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals (see the module docs
    /// for the assumption protocol).
    ///
    /// On [`Outcome::Sat`] the model (including assumptions) is available
    /// via [`Solver::model`]. Assumptions do not persist between calls.
    /// When a `ril-trace` context is installed on the current thread, the
    /// call is wrapped in a `solve` span carrying the work done since the
    /// previous call (decisions, conflicts, propagations, learned) and
    /// the clauses added since then.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> Outcome {
        let mut span = ril_trace::span("solve", ril_trace::Phase::Solve);
        let start = Instant::now();
        let outcome = self.search(assumptions);
        if span.is_active() {
            let delta = self.stats.since(&self.solve_snapshot);
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
            ril_trace::timing("sat.solve_wall", start.elapsed());
        }
        self.solve_snapshot = self.stats;
        self.clauses_since_solve = 0;
        outcome
    }

    /// The CDCL search behind [`Solver::solve_with_assumptions`].
    fn search(&mut self, assumptions: &[Lit]) -> Outcome {
        if !self.ok {
            return Outcome::Unsat;
        }
        for l in assumptions {
            self.reserve_vars(l.var().index() + 1);
        }
        self.start = Some(Instant::now());
        self.backtrack_to(0);
        if !self.simplify() {
            return Outcome::Unsat;
        }
        // Scale the learnt-clause budget to the instance (MiniSat keeps
        // roughly a third of the problem size; undersizing makes the solver
        // throw away everything it learns and thrash).
        self.learnt_limit = self
            .learnt_limit
            .max(self.live_problem as f64 / 3.0)
            .max(2000.0);

        let mut restart_count = 0u64;
        let mut conflicts_until_restart = Self::luby(restart_count) * RESTART_INTERVAL;
        let mut conflicts_this_restart = 0u64;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Outcome::Unsat;
                }
                // Analyze and backjump normally; assumptions cancelled by a
                // deep backjump are re-decided on the way back up, and an
                // assumption found false at its decision point reports
                // UNSAT-under-assumptions (MiniSat semantics).
                let (bt, lbd) = self.analyze(confl);
                let learnt = std::mem::take(&mut self.learnt);
                self.learn_and_jump(&learnt, bt, lbd);
                self.learnt = learnt;
                self.cla_inc /= 0.999;
                if self.budget_exhausted() {
                    self.backtrack_to(0);
                    return Outcome::Unknown;
                }
                if self.config.reduce_db {
                    let learnt_live = self.stats.learned - self.stats.deleted;
                    if learnt_live as f64 > self.learnt_limit {
                        self.reduce_db();
                    }
                }
            } else {
                if self.config.restarts && conflicts_this_restart >= conflicts_until_restart {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_this_restart = 0;
                    conflicts_until_restart = Self::luby(restart_count) * RESTART_INTERVAL;
                    let keep = (assumptions.len() as u32).min(self.decision_level());
                    self.backtrack_to(keep);
                }
                // Assumption decisions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied: open an empty level for it.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.backtrack_to(0);
                            return Outcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        debug_assert!(
                            (0..self.num_vars()).all(|i| !self.decision[i]
                                || self.value_var(Var::new(i)) != LBool::Undef),
                            "an unassigned decision variable was missing from the queue"
                        );
                        // Full assignment: record model (non-decision
                        // variables read `false`).
                        self.model.clear();
                        self.model
                            .extend(self.values.chunks_exact(2).map(|v| v[0] == LBool::True));
                        self.backtrack_to(0);
                        return Outcome::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        let phase = if self.config.phase_saving {
                            self.saved_phase[v.index()]
                        } else {
                            DEFAULT_PHASE
                        };
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(v.lit(!phase), NO_REASON);
                    }
                }
            }
        }
    }

    fn learn_and_jump(&mut self, learnt: &[Lit], bt: u32, lbd: u32) {
        self.backtrack_to(bt);
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.enqueue(asserting, NO_REASON);
        } else {
            let ci = self.attach_clause(learnt, true, lbd);
            self.stats.learned += 1;
            self.enqueue(asserting, ci);
        }
    }

    /// The most recent satisfying model (`model()[v]` = value of variable
    /// index `v`). Only meaningful after [`Outcome::Sat`].
    pub fn model(&self) -> &[bool] {
        &self.model
    }
}

/// Encoders write straight into the live solver: no intermediate [`Cnf`].
impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        Solver::add_clause(self, lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lit(v: usize, neg: bool) -> Lit {
        Lit::new(v, neg)
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false)]);
        assert_eq!(s.solve(), Outcome::Sat);
        assert!(s.model()[0]);
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false)]);
        assert!(!s.add_clause([lit(0, true)]));
        assert_eq!(s.solve(), Outcome::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), Outcome::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause([]);
        assert_eq!(s.solve(), Outcome::Unsat);
    }

    #[test]
    fn xor_chain_sat_and_model_valid() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x2 ^ x0 = 0 — consistent.
        let mut cnf = Cnf::new();
        let v = cnf.new_vars(3);
        let xor_true = |cnf: &mut Cnf, a: Var, b: Var| {
            cnf.add_clause([a.positive(), b.positive()]);
            cnf.add_clause([a.negative(), b.negative()]);
        };
        let xor_false = |cnf: &mut Cnf, a: Var, b: Var| {
            cnf.add_clause([a.positive(), b.negative()]);
            cnf.add_clause([a.negative(), b.positive()]);
        };
        xor_true(&mut cnf, v[0], v[1]);
        xor_true(&mut cnf, v[1], v[2]);
        xor_false(&mut cnf, v[2], v[0]);
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), Outcome::Sat);
        assert!(cnf.is_satisfied_by(s.model()));
    }

    fn pigeonhole(holes: usize) -> Cnf {
        // holes+1 pigeons into `holes` holes: UNSAT.
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

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=5 {
            let cnf = pigeonhole(holes);
            let mut s = Solver::from_cnf(&cnf);
            assert_eq!(s.solve(), Outcome::Unsat, "php({holes})");
            assert!(s.stats().conflicts > 0);
        }
    }

    #[test]
    fn pigeonhole_unsat_weakened_config() {
        let cnf = pigeonhole(4);
        let mut s = Solver::from_cnf_with_config(&cnf, SolverConfig::weakened());
        assert_eq!(s.solve(), Outcome::Unsat);
    }

    #[test]
    fn exactly_one_hole_per_pigeon_sat() {
        // holes pigeons into holes holes: SAT (a perfect matching exists).
        let holes = 4;
        let mut cnf2 = Cnf::new();
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for _ in 0..holes * holes {
            cnf2.new_var();
        }
        for p in 0..holes {
            cnf2.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        for h in 0..holes {
            for p1 in 0..holes {
                for p2 in p1 + 1..holes {
                    cnf2.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let mut s = Solver::from_cnf(&cnf2);
        assert_eq!(s.solve(), Outcome::Sat);
        assert!(cnf2.is_satisfied_by(s.model()));
    }

    fn brute_force_sat(cnf: &Cnf) -> bool {
        let n = cnf.num_vars();
        assert!(n <= 20);
        (0u64..(1 << n)).any(|m| {
            let model: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            cnf.is_satisfied_by(&model)
        })
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..60 {
            let n = rng.gen_range(3..10usize);
            let m = rng.gen_range(2..(n * 5));
            let mut cnf = Cnf::new();
            cnf.new_vars(n);
            for _ in 0..m {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    lits.push(Lit::new(rng.gen_range(0..n), rng.gen()));
                }
                cnf.add_clause(lits);
            }
            let expect = brute_force_sat(&cnf);
            let mut s = Solver::from_cnf(&cnf);
            let got = s.solve();
            match (expect, got) {
                (true, Outcome::Sat) => assert!(cnf.is_satisfied_by(s.model())),
                (false, Outcome::Unsat) => {}
                other => panic!("trial {trial}: mismatch {other:?}"),
            }
        }
    }

    /// A random clause of 1–3 literals over variables `0..n`.
    fn random_clause(rng: &mut StdRng, n: usize) -> Vec<Lit> {
        let len = rng.gen_range(1..=3);
        (0..len)
            .map(|_| Lit::new(rng.gen_range(0..n), rng.gen()))
            .collect()
    }

    #[test]
    fn incremental_solves_agree_with_brute_force() {
        // One solver per trial, driven through clause additions, solves
        // under assumptions and guarded groups retired by a unit `¬g`.
        // Every verdict is checked against enumeration of the live
        // clauses and every model against them. Variables `a` and `b` are
        // named only by the first guarded group, so its retirement demotes
        // them (unlinking them from the decision queue), and a later
        // clause `a ∨ b` must link them back.
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..40 {
            let n = rng.gen_range(4..9usize);
            let (a, b) = (Var::new(n), Var::new(n + 1));
            let mut s = Solver::new();
            let mut live = Cnf::new();
            let add = |s: &mut Solver, live: &mut Cnf, clause: Vec<Lit>| {
                s.add_clause(clause.iter().copied());
                live.add_clause(clause);
            };
            for _ in 0..rng.gen_range(1..2 * n) {
                let c = random_clause(&mut rng, n);
                add(&mut s, &mut live, c);
            }
            let mut guard = Var::new(n + 2);
            let mut next_var = n + 3;
            for c in [
                vec![a.positive(), b.positive()],
                vec![a.negative(), b.negative()],
            ] {
                let x = Lit::new(rng.gen_range(0..n), rng.gen());
                add(&mut s, &mut live, [c, vec![x, guard.negative()]].concat());
            }
            for step in 0..14 {
                match step {
                    // Retire the first group; `a` and `b` lose every clause.
                    4 => {
                        add(&mut s, &mut live, vec![guard.negative()]);
                        guard = Var::new(next_var);
                        next_var += 1;
                    }
                    // Name the demoted pair again.
                    7 => {
                        let x = Lit::new(rng.gen_range(0..n), rng.gen());
                        add(&mut s, &mut live, vec![a.positive(), b.positive()]);
                        add(&mut s, &mut live, vec![a.negative(), b.negative(), x]);
                    }
                    // A retirement of whatever the live guard covers.
                    10 => {
                        add(&mut s, &mut live, vec![guard.negative()]);
                        guard = Var::new(next_var);
                        next_var += 1;
                    }
                    _ => {
                        let mut c = random_clause(&mut rng, n);
                        if rng.gen() {
                            c.push(guard.negative());
                        }
                        add(&mut s, &mut live, c);
                    }
                }
                let mut assumptions = vec![guard.positive()];
                for _ in 0..rng.gen_range(0..3) {
                    assumptions.push(Lit::new(rng.gen_range(0..n), rng.gen()));
                }
                // The unit `guard` clause grows the pool to `next_var`.
                let mut constrained = live.clone();
                for &l in &assumptions {
                    constrained.add_clause([l]);
                }
                let expect = brute_force_sat(&constrained);
                match (expect, s.solve_with_assumptions(&assumptions)) {
                    (true, Outcome::Sat) => assert!(
                        constrained.is_satisfied_by(&s.model()[..constrained.num_vars()]),
                        "trial {trial}, step {step}: model violates a live clause"
                    ),
                    (false, Outcome::Unsat) => {}
                    other => panic!("trial {trial}, step {step}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn assumptions_work() {
        let mut s = Solver::new();
        // (a | b) & (!a | c)
        s.add_clause([lit(0, false), lit(1, false)]);
        s.add_clause([lit(0, true), lit(2, false)]);
        assert_eq!(s.solve_with_assumptions(&[lit(0, false)]), Outcome::Sat);
        assert!(s.model()[0] && s.model()[2]);
        // Conflicting assumptions.
        s.add_clause([lit(2, true)]); // force c = 0
        assert_eq!(s.solve_with_assumptions(&[lit(0, false)]), Outcome::Unsat);
        // Still SAT without that assumption.
        assert_eq!(s.solve_with_assumptions(&[lit(0, true)]), Outcome::Sat);
        assert!(s.model()[1]);
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false), lit(1, false)]);
        assert_eq!(s.solve_with_assumptions(&[lit(0, true)]), Outcome::Sat);
        assert_eq!(s.solve_with_assumptions(&[lit(0, false)]), Outcome::Sat);
        assert_eq!(s.solve(), Outcome::Sat);
    }

    #[test]
    fn assumptions_do_not_poison_the_solver() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false), lit(1, false)]);
        assert_eq!(
            s.solve_with_assumptions(&[lit(0, true), lit(1, true)]),
            Outcome::Unsat
        );
        assert!(s.root_consistent());
        assert_eq!(s.solve(), Outcome::Sat);
    }

    #[test]
    fn incremental_additions_flip_outcome() {
        let mut s = Solver::new();
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
    fn clauses_since_solve_counts_each_addition() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false), lit(1, false)]);
        s.add_clause([lit(0, true), lit(1, false)]);
        assert_eq!(s.clauses_since_solve(), 2);
        s.solve();
        assert_eq!(s.clauses_since_solve(), 0);
        // A clause the root already satisfies still counts as added.
        s.add_clause([lit(1, false), lit(2, false)]);
        assert_eq!(s.clauses_since_solve(), 1);
        assert_eq!(s.solve(), Outcome::Sat);
    }

    #[test]
    fn activation_literal_protocol_retracts_clauses() {
        let mut s = Solver::new();
        let x = s.new_var();
        let act = s.new_var();
        // Guarded unit clause: x ∨ ¬act.
        s.add_clause([x.positive(), act.negative()]);
        // A hard clause contradicting x.
        s.add_clause([x.negative()]);
        // With the guard asserted the formula is UNSAT…
        assert_eq!(s.solve_with_assumptions(&[act.positive()]), Outcome::Unsat);
        // …but the solver survives and the clause is retracted without it.
        assert!(s.root_consistent());
        assert_eq!(s.solve(), Outcome::Sat);
        assert!(!s.model()[x.index()]);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        let cnf = pigeonhole(7); // hard enough to exceed 10 conflicts
        let mut s = Solver::from_cnf(&cnf);
        s.set_budget(Budget::conflicts(10).unwrap());
        assert_eq!(s.solve(), Outcome::Unknown);
    }

    #[test]
    fn conflict_budget_is_per_call() {
        let mut s = Solver::from_cnf(&pigeonhole(4));
        s.set_budget(Budget::conflicts(2).unwrap());
        assert_eq!(s.solve(), Outcome::Unknown);
        // A fresh per-call budget counts from the current total, so the
        // second call gets real work done rather than dying instantly.
        s.set_budget(Budget::conflicts(1_000_000).unwrap());
        assert_eq!(s.solve(), Outcome::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn stats_are_recorded() {
        let cnf = pigeonhole(5);
        let mut s = Solver::from_cnf(&cnf);
        s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.decisions > 0);
        assert!(st.propagations > 0);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false), lit(0, false), lit(1, false)]);
        s.add_clause([lit(1, false), lit(1, true)]); // tautology dropped
        assert_eq!(s.solve(), Outcome::Sat);
    }

    #[test]
    fn many_solves_reusable() {
        let mut s = Solver::new();
        s.add_clause([lit(0, false), lit(1, false)]);
        for _ in 0..5 {
            assert_eq!(s.solve(), Outcome::Sat);
        }
        // Incremental clause addition after solving.
        s.add_clause([lit(0, true)]);
        s.add_clause([lit(1, true)]);
        assert_eq!(s.solve(), Outcome::Unsat);
    }
}
