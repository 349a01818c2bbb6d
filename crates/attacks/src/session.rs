//! The shared oracle-guided attack driver.
//!
//! The exact SAT attack, AppSAT and (through the SAT attack) ScanSAT all
//! run the same inner machine: solve the persistent miter for a
//! distinguishing input, query the oracle, append the I/O constraint, and
//! eventually extract a key from the same miter with its difference
//! switched off. [`AttackSession`] owns that machine — the incremental
//! [`AttackInstance`], the wall-clock and iteration budgets, and the
//! oracle-query baseline — so the attack entry points reduce to policy
//! around [`AttackSession::step`]. It is also the single place where the
//! miter session's [`ril_sat::SolveRecord`]s are split into per-iteration
//! DIP statistics and key-extraction statistics for the
//! [`AttackReport`].

use crate::miter::AttackInstance;
use crate::oracle::{OracleError, OracleSource};
use crate::report::{AttackReport, AttackResult, IterationStats};
use ril_netlist::{Netlist, PatternBlock, MAX_LANES};
use ril_sat::{Budget, Outcome, SolverStats};
use std::time::{Duration, Instant};

/// Outcome of one DIP iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DipStep {
    /// One or more DIPs were found, queried, and their constraints
    /// appended (a batched step records up to `dip_batch` per call).
    Distinguished,
    /// Miter UNSAT: every surviving key is I/O-equivalent.
    Converged,
    /// The wall-clock or iteration budget ran out.
    Budget,
    /// The oracle's response contradicts key-independent logic — no key can
    /// explain the oracle (the Scan-Enable defense manifests here).
    OracleInconsistent,
    /// The oracle access itself failed (remote transport/protocol error).
    OracleFailed(OracleError),
}

/// One long-lived oracle-guided attack over a persistent
/// [`AttackInstance`].
pub(crate) struct AttackSession {
    pub(crate) inst: AttackInstance,
    start: Instant,
    queries_before: u64,
    timeout: Option<Duration>,
    max_iterations: Option<usize>,
    /// DIPs to accumulate per step before one lane-packed oracle flush
    /// (`1` = the classic strictly sequential loop).
    dip_batch: usize,
    pub(crate) iterations: usize,
}

impl AttackSession {
    /// Builds the miter session (exactly once for the whole attack) and
    /// starts the clocks.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no key inputs, is sequential, or its
    /// data-input count does not match the oracle.
    pub(crate) fn new(
        nl: &Netlist,
        oracle: &dyn OracleSource,
        timeout: Option<Duration>,
        max_iterations: Option<usize>,
        dip_batch: usize,
    ) -> AttackSession {
        let mut inst = AttackInstance::new(nl);
        assert_eq!(
            inst.oracle_positions.len(),
            oracle.input_width(),
            "oracle/netlist input mismatch"
        );
        // Start from the oracle's current key generation (a no-op retire:
        // nothing is recorded yet).
        if let Some(g) = oracle.generation() {
            inst.observe_generation(g);
        }
        AttackSession {
            inst,
            start: Instant::now(),
            queries_before: oracle.queries(),
            timeout,
            max_iterations,
            dip_batch: dip_batch.clamp(1, MAX_LANES),
            iterations: 0,
        }
    }

    /// Time left in the attack's wall-clock budget (`None` = unbounded).
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.timeout.map(|t| t.saturating_sub(self.start.elapsed()))
    }

    /// Runs one DIP iteration: budget check, miter solve on the warm
    /// session, oracle query, constraint append. With `dip_batch > 1` the
    /// solve's model yields up to that many distinct DIPs, which are
    /// flushed to the oracle as one lane-packed [`PatternBlock`] — every
    /// lane still counts as one query and one iteration. Each step is an
    /// `iteration` trace span carrying the miter size and the cumulative
    /// DIP count (= I/O constraints pruning the key space so far).
    pub(crate) fn step(&mut self, oracle: &mut dyn OracleSource) -> DipStep {
        let mut span = ril_trace::span("iteration", ril_trace::Phase::Iteration);
        let before = self.iterations;
        let step = self.step_inner(oracle);
        if span.is_active() {
            span.record_str(
                "step",
                match step {
                    DipStep::Distinguished => "distinguished",
                    DipStep::Converged => "converged",
                    DipStep::Budget => "budget",
                    DipStep::OracleInconsistent => "oracle_inconsistent",
                    DipStep::OracleFailed(_) => "oracle_failed",
                },
            );
            span.record_u64("iteration", self.iterations as u64);
            span.record_u64("dips_recorded", self.iterations as u64);
            span.record_u64("miter_vars", self.inst.miter.num_vars() as u64);
            if step == DipStep::Distinguished {
                ril_trace::counter("attack.dips", (self.iterations - before) as u64);
            }
        }
        step
    }

    fn step_inner(&mut self, oracle: &mut dyn OracleSource) -> DipStep {
        match self.remaining() {
            Some(left) if left.is_zero() => return DipStep::Budget,
            left => self.inst.miter.set_budget(Budget::from_timeout(left)),
        }
        if self.max_iterations.is_some_and(|m| self.iterations >= m) {
            return DipStep::Budget;
        }
        // A morphing target bumps its key generation; constraints recorded
        // against the previous generation are retired before this round's
        // miter solve so a stale convergence (or contradiction) cannot
        // leak through.
        if let Some(g) = oracle.generation() {
            self.inst.observe_generation(g);
        }
        let dips = match self.inst.solve_miter() {
            Outcome::Unknown => return DipStep::Budget,
            Outcome::Unsat => return DipStep::Converged,
            Outcome::Sat => self.collect_dips(),
        };
        self.iterations += dips.len();
        let responses = {
            let _q = ril_trace::span("oracle_query", ril_trace::Phase::Oracle);
            if dips.len() == 1 {
                match oracle.try_query(&self.inst.oracle_dip(&dips[0])) {
                    Ok(r) => vec![r],
                    Err(e) => return DipStep::OracleFailed(e),
                }
            } else {
                let rows: Vec<Vec<bool>> = dips.iter().map(|d| self.inst.oracle_dip(d)).collect();
                match oracle.try_query_batch(&PatternBlock::pack(&rows)) {
                    Ok(block) => block.unpack(),
                    Err(e) => return DipStep::OracleFailed(e),
                }
            }
        };
        // The flush itself may have raced a morph; the whole block was
        // answered under the generation the source reports now, so every
        // lane's constraint is tagged with it.
        if let Some(g) = oracle.generation() {
            self.inst.observe_generation(g);
        }
        match self.inst.add_dips(&dips, &responses) {
            Ok(()) => DipStep::Distinguished,
            Err(()) => DipStep::OracleInconsistent,
        }
    }

    /// Harvests this round's DIPs from the miter's model: its DIP and,
    /// for `dip_batch > 1`, single-pin flips of it that the model's two
    /// keys still tell apart (see [`AttackInstance::dips_from_model`]), so
    /// a batch costs one miter solve and one simulation of each key. The
    /// batch stops at `dip_batch`, at the iteration cap, or when no flip
    /// distinguishes the keys (the DIPs in hand still flush).
    fn collect_dips(&mut self) -> Vec<Vec<bool>> {
        let cap = self
            .max_iterations
            .map_or(self.dip_batch, |m| self.dip_batch.min(m - self.iterations))
            .max(1);
        self.inst.dips_from_model(cap)
    }

    /// Appends externally chosen I/O constraints (AppSAT's random-query
    /// reinforcements), in order. `Err(())` on oracle inconsistency.
    pub(crate) fn reinforce(
        &mut self,
        dips: &[Vec<bool>],
        responses: &[Vec<bool>],
    ) -> Result<(), ()> {
        self.inst.add_dips(dips, responses)
    }

    /// Solves the warm miter, difference switched off, for a key
    /// consistent with everything recorded so far and with `assumptions`
    /// (`Ok(None)` = no such key; the caller may retry with fewer
    /// assumptions), under the remaining budget (floored at 100 ms so a
    /// nearly-expired attack still gets a token extraction attempt).
    pub(crate) fn extract_key(
        &mut self,
        assumptions: &[ril_sat::Lit],
    ) -> Result<Option<Vec<bool>>, ()> {
        let budget = self.remaining().map(|d| d.max(Duration::from_millis(100)));
        self.inst.extract_key(assumptions, budget)
    }

    /// Finalizes the attack into an [`AttackReport`]. The miter session's
    /// per-solve records split into per-iteration DIP statistics and the
    /// key extractions' `finder_stats`; `miter_stats` excludes the
    /// extractions.
    pub(crate) fn report(&self, oracle: &dyn OracleSource, result: AttackResult) -> AttackReport {
        let mut finder_stats = SolverStats::default();
        let mut iteration_stats = Vec::new();
        // Clauses appended before an extraction count toward the next DIP
        // solve, the first to search with them.
        let mut carried = 0;
        for (i, r) in self.inst.miter.records().iter().enumerate() {
            if self.inst.is_extraction(i) {
                finder_stats = finder_stats.plus(&r.stats);
                carried += r.clauses_added;
            } else {
                iteration_stats.push(IterationStats {
                    iteration: iteration_stats.len() + 1,
                    wall: r.wall,
                    stats: r.stats,
                    clauses_added: r.clauses_added + std::mem::take(&mut carried),
                });
            }
        }
        AttackReport {
            result,
            wall: self.start.elapsed(),
            iterations: self.iterations,
            oracle_queries: oracle.queries() - self.queries_before,
            functionally_correct: None,
            miter_stats: self.inst.miter.stats().since(&finder_stats),
            finder_stats,
            iteration_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{attacker_view, Oracle, OracleError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ril_core::{morph_all, LockedCircuit, Obfuscator, RilBlockSpec};
    use ril_netlist::generators;

    /// An activated chip that morphs itself: after `morph_after` chip
    /// accesses the key is re-burned (function preserved) and the exposed
    /// generation bumps, like `ril-serve`'s dynamic-morphing scheduler.
    struct MorphingOracle {
        inner: Oracle,
        locked: LockedCircuit,
        rng: StdRng,
        generation: u64,
        morph_after: Option<u64>,
        morph_every_query: bool,
    }

    impl MorphingOracle {
        fn new(locked: LockedCircuit) -> MorphingOracle {
            let inner = Oracle::new(&locked).unwrap();
            MorphingOracle {
                inner,
                locked,
                rng: StdRng::seed_from_u64(0x4D0),
                generation: 0,
                morph_after: None,
                morph_every_query: false,
            }
        }

        fn morph(&mut self) {
            morph_all(&mut self.locked, &mut self.rng);
            self.inner.rekey(&self.locked);
            self.generation += 1;
        }
    }

    impl OracleSource for MorphingOracle {
        fn input_width(&self) -> usize {
            self.inner.input_width()
        }

        fn output_width(&self) -> usize {
            self.inner.output_width()
        }

        fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
            // Morph *before* answering: the response is then computed under
            // the generation this source reports afterwards, matching a
            // remote chip whose responses are stamped with the generation
            // that produced them.
            if self.morph_every_query || self.morph_after == Some(self.inner.queries()) {
                self.morph();
            }
            Ok(self.inner.query(inputs))
        }

        fn queries(&self) -> u64 {
            self.inner.queries()
        }

        fn generation(&self) -> Option<u64> {
            Some(self.generation)
        }
    }

    fn locked_adder() -> LockedCircuit {
        let host = generators::adder(8);
        Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&host)
            .unwrap()
    }

    #[test]
    fn generation_bump_retires_dips_and_attack_still_converges() {
        // Without the scan defense a morph preserves even the observable
        // function, so retiring is conservative — the attack must re-gather
        // its constraints and still land a functionally correct key.
        let locked = locked_adder();
        let view = attacker_view(&locked);
        let mut oracle = MorphingOracle::new(locked.clone());
        oracle.morph_after = Some(3);
        // dip_batch = 1: the retire-count assertion below depends on the
        // strictly sequential query order.
        let mut sess = AttackSession::new(&view, &oracle, Some(Duration::from_secs(60)), None, 1);
        loop {
            match sess.step(&mut oracle) {
                DipStep::Distinguished => {}
                DipStep::Converged => break,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        }
        let key = sess
            .extract_key(&[])
            .expect("budget not exhausted")
            .expect("a key consistent with the current generation exists");
        assert!(locked.equivalent_under_key(&key, 32).unwrap());
        assert!(
            sess.inst.retired_dips() >= 3,
            "the generation bump must retire the DIPs recorded before it \
             (retired {})",
            sess.inst.retired_dips()
        );
    }

    #[test]
    fn morph_every_query_starves_the_attack() {
        // The dynamic-defense limit case: every response belongs to a new
        // generation, so each round's constraint retires before the next
        // miter solve and the attack never accumulates progress.
        let locked = locked_adder();
        let view = attacker_view(&locked);
        let mut oracle = MorphingOracle::new(locked);
        oracle.morph_every_query = true;
        // dip_batch = 1: starvation is a property of the one-query-per-
        // round economics this test pins down exactly.
        let mut sess =
            AttackSession::new(&view, &oracle, Some(Duration::from_secs(60)), Some(6), 1);
        loop {
            match sess.step(&mut oracle) {
                DipStep::Distinguished => {}
                DipStep::Budget => break,
                other => panic!("expected iteration starvation, got {other:?}"),
            }
        }
        assert_eq!(sess.iterations, 6, "every round must yield a fresh DIP");
        // The morph behind round k's response only becomes visible when
        // that response arrives, so round k-1's constraint retires after
        // round k's query: 5 of the 6 recorded DIPs are retired, the last
        // one never saw a newer generation.
        assert_eq!(sess.inst.retired_dips(), 5);
    }

    #[test]
    fn retired_generations_stop_costing_propagations() {
        // Every response retires the previous generation, so only the
        // live generation's constraint (plus the base miter) is left to
        // propagate: per-solve work must stay flat across the attack
        // instead of growing with every dead generation.
        let locked = locked_adder();
        let view = attacker_view(&locked);
        let mut oracle = MorphingOracle::new(locked);
        oracle.morph_every_query = true;
        let mut sess =
            AttackSession::new(&view, &oracle, Some(Duration::from_secs(60)), Some(80), 1);
        while sess.step(&mut oracle) == DipStep::Distinguished {}
        let report = sess.report(&oracle, AttackResult::Timeout);
        let stats = &report.iteration_stats;
        assert_eq!(stats.len(), 80, "one miter solve per DIP");
        let mean_props = |window: &[IterationStats]| {
            window.iter().map(|it| it.stats.propagations).sum::<u64>() as f64 / window.len() as f64
        };
        let (first, last) = (mean_props(&stats[..10]), mean_props(&stats[70..]));
        assert!(
            last <= 1.5 * first,
            "propagations per solve grew from {first:.0} to {last:.0}"
        );
    }

    #[test]
    fn static_oracle_keeps_all_dips() {
        let locked = locked_adder();
        let view = attacker_view(&locked);
        let mut oracle = Oracle::new(&locked).unwrap();
        let mut sess = AttackSession::new(&view, &oracle, Some(Duration::from_secs(60)), None, 1);
        loop {
            match sess.step(&mut oracle) {
                DipStep::Distinguished => {}
                DipStep::Converged => break,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        }
        assert_eq!(sess.inst.retired_dips(), 0);
        let key = sess.extract_key(&[]).unwrap().unwrap();
        assert!(locked.equivalent_under_key(&key, 32).unwrap());
    }

    #[test]
    fn batched_steps_converge_to_a_correct_key() {
        // Same attack as `static_oracle_keeps_all_dips`, but flushing
        // lane-packed DIP batches: every collected DIP is a genuine
        // distinguishing constraint, so convergence and correctness are
        // unchanged while steps shrink and queries ride one block each.
        let locked = locked_adder();
        let view = attacker_view(&locked);
        let mut oracle = Oracle::new(&locked).unwrap();
        let mut sess = AttackSession::new(&view, &oracle, Some(Duration::from_secs(60)), None, 8);
        let mut steps = 0usize;
        loop {
            match sess.step(&mut oracle) {
                DipStep::Distinguished => steps += 1,
                DipStep::Converged => break,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        }
        assert_eq!(sess.inst.retired_dips(), 0);
        assert_eq!(sess.iterations as u64, oracle.queries());
        assert!(
            steps <= sess.iterations,
            "a batched step records at least one DIP"
        );
        let key = sess.extract_key(&[]).unwrap().unwrap();
        assert!(locked.equivalent_under_key(&key, 32).unwrap());
    }

    #[test]
    fn batched_collection_respects_the_iteration_cap() {
        let locked = locked_adder();
        let view = attacker_view(&locked);
        let mut oracle = Oracle::new(&locked).unwrap();
        let mut sess =
            AttackSession::new(&view, &oracle, Some(Duration::from_secs(60)), Some(3), 64);
        loop {
            match sess.step(&mut oracle) {
                DipStep::Distinguished => {}
                DipStep::Budget | DipStep::Converged => break,
                other => panic!("unexpected step outcome: {other:?}"),
            }
        }
        assert!(
            sess.iterations <= 3,
            "collection must not overshoot the iteration budget (got {})",
            sess.iterations
        );
    }
}
