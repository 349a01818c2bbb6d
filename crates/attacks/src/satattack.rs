//! The oracle-guided SAT attack (Subramanyan et al., HOST 2015), updated
//! with a CaDiCaL-class CDCL backend — the adversary of the paper's
//! Tables I and III.
//!
//! The attack builds a structure-sharing *miter*: two key-dependent-cone
//! copies of the locked netlist over shared data inputs and shared
//! key-independent logic, constrained to disagree on at least one output.
//! Each satisfying assignment yields a Distinguishing Input Pattern (DIP);
//! the oracle's response is recorded as an I/O constraint on both key
//! vectors, pruning every key inconsistent with the activated chip. When
//! the miter goes UNSAT, all surviving keys are I/O-equivalent and one is
//! extracted. The loop itself is `AttackSession::run`;
//! this module is its plain policy.

use crate::oracle::OracleSource;
use crate::report::AttackReport;
use crate::session::{AttackSession, FREE};
use ril_netlist::Netlist;
use std::time::Duration;

/// The library's default attack budget. Drivers set their own; the bench
/// harness reads `RIL_TIMEOUT_SECS`.
pub(crate) const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// SAT-attack configuration.
#[derive(Debug, Clone)]
pub struct SatAttackConfig {
    /// Total wall-clock budget (the paper uses 5 days; the default is
    /// 60 s).
    pub timeout: Option<Duration>,
    /// Maximum DIP iterations.
    pub max_iterations: Option<usize>,
    /// DIPs flushed to the oracle per round as one lane-packed block
    /// (clamped to `1..=64`, the simulator's lane width). `1` restores
    /// the classic strictly sequential DIP loop. A larger batch still
    /// costs one miter solve: the solve's DIP is followed by single-pin
    /// flips of it on which the solve's two keys disagree, found by
    /// simulation, so a round takes one 64-way oracle evaluation and one
    /// wire round trip against remote oracles. Every lane still counts
    /// as one query and one iteration.
    pub dip_batch: usize,
}

impl Default for SatAttackConfig {
    fn default() -> SatAttackConfig {
        SatAttackConfig {
            timeout: Some(DEFAULT_TIMEOUT),
            max_iterations: None,
            dip_batch: 8,
        }
    }
}

/// Runs the SAT attack against an attacker-view netlist and an oracle
/// source (in-process [`crate::Oracle`] or a remote one).
///
/// The report's `functionally_correct` is left `None` (the attacker cannot
/// check it); use [`crate::run_attack`] for the full harness flow.
///
/// # Panics
///
/// Panics if the netlist has no key inputs or its data-input count does not
/// match the oracle.
pub fn sat_attack(
    nl: &Netlist,
    oracle: &mut dyn OracleSource,
    cfg: &SatAttackConfig,
) -> AttackReport {
    AttackSession::run("satattack", nl, oracle, cfg, &[FREE], |_, _| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{attacker_view, Oracle};
    use crate::report::AttackResult;
    use crate::{run_attack, AttackConfig, AttackKind};
    use ril_core::baselines::{antisat_lock, sfll_lock, xor_lock};
    use ril_core::{Obfuscator, RilBlockSpec};
    use ril_netlist::generators;

    /// The SAT attack through the full harness, key check included.
    fn run_sat(
        locked: &ril_core::LockedCircuit,
        cfg: &SatAttackConfig,
    ) -> Result<AttackReport, ril_netlist::NetlistError> {
        let cfg = AttackConfig {
            timeout: cfg.timeout,
            max_iterations: cfg.max_iterations,
            dip_batch: cfg.dip_batch,
            ..AttackConfig::default()
        };
        Ok(run_attack(AttackKind::Sat, locked, &cfg)?.report)
    }

    fn fast_cfg() -> SatAttackConfig {
        SatAttackConfig {
            timeout: Some(Duration::from_secs(30)),
            ..SatAttackConfig::default()
        }
    }

    #[test]
    fn breaks_xor_lock() {
        let host = generators::adder(8);
        let locked = xor_lock(&host, 12, 3).unwrap();
        let report = run_sat(&locked, &fast_cfg()).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert_eq!(report.functionally_correct, Some(true), "{report}");
    }

    #[test]
    fn breaks_small_ril_blocks_without_scan_defense() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&host)
            .unwrap();
        let report = run_sat(&locked, &fast_cfg()).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert_eq!(report.functionally_correct, Some(true), "{report}");
        assert!(report.iterations >= 1);
    }

    #[test]
    fn report_carries_per_iteration_solver_stats() {
        let host = generators::adder(8);
        let locked = xor_lock(&host, 12, 3).unwrap();
        // dip_batch = 1: the solve-count invariant below (one miter solve
        // per DIP) only holds for the strictly sequential loop; a batched
        // solve records up to `dip_batch` DIPs.
        let cfg = SatAttackConfig {
            dip_batch: 1,
            ..fast_cfg()
        };
        let report = run_sat(&locked, &cfg).unwrap();
        assert!(report.result.succeeded(), "{report}");
        // One miter solve per DIP plus the final UNSAT convergence proof.
        assert_eq!(report.iteration_stats.len(), report.iterations + 1);
        assert!(report
            .iteration_stats
            .iter()
            .enumerate()
            .all(|(i, it)| it.iteration == i + 1));
        // Per-iteration deltas add back up to the cumulative miter stats.
        let summed = report
            .iteration_stats
            .iter()
            .fold(ril_sat::SolverStats::default(), |acc, it| {
                acc.plus(&it.stats)
            });
        assert_eq!(summed, report.miter_stats);
        // The key extraction did real work and is reported separately.
        assert!(report.finder_stats.propagations > 0);
        let json = report.to_json();
        assert!(
            json.contains(r#""per_iteration":[{"iteration":1"#),
            "{json}"
        );
    }

    #[test]
    fn breaks_2x2_blocks_on_large_multiplier_host() {
        // The structure-sharing miter keeps big hosts tractable: hardness
        // must come from the key logic, not the host (Section III-A).
        let host = generators::benchmark("c7552").unwrap();
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(1001)
            .obfuscate(&host)
            .unwrap();
        let report = run_sat(&locked, &fast_cfg()).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert_eq!(report.functionally_correct, Some(true), "{report}");
    }

    #[test]
    fn breaks_antisat_with_enough_iterations() {
        let host = generators::adder(8);
        let locked = antisat_lock(&host, 4, 7).unwrap();
        let report = run_sat(&locked, &fast_cfg()).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert_eq!(report.functionally_correct, Some(true));
    }

    #[test]
    fn breaks_sfll_point_function() {
        let host = generators::adder(8);
        let locked = sfll_lock(&host, 6, 9).unwrap();
        let report = run_sat(&locked, &fast_cfg()).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert_eq!(report.functionally_correct, Some(true));
    }

    #[test]
    fn scan_defense_defeats_the_attack() {
        for seed in 0..20 {
            let host = generators::adder(8);
            let locked = Obfuscator::new(RilBlockSpec::size_2x2())
                .blocks(2)
                .scan_obfuscation(true)
                .seed(seed)
                .obfuscate(&host)
                .unwrap();
            let any_se = locked
                .keys
                .kinds()
                .iter()
                .zip(locked.keys.bits())
                .any(|(k, &v)| matches!(k, ril_core::KeyBitKind::ScanEnable { .. }) && v);
            if !any_se {
                continue;
            }
            let report = run_sat(&locked, &fast_cfg()).unwrap();
            match report.result {
                AttackResult::Failed(_) | AttackResult::Timeout => return,
                _ => {
                    assert_eq!(
                        report.functionally_correct,
                        Some(false),
                        "seed {seed}: attack recovered a truly-correct key through the SE defense: {report}"
                    );
                    return;
                }
            }
        }
        panic!("no seed set an SE key");
    }

    #[test]
    fn timeout_reports_infinity() {
        let host = generators::multiplier(6);
        let locked = Obfuscator::new(RilBlockSpec::size_8x8x8())
            .blocks(2)
            .seed(11)
            .obfuscate(&host)
            .unwrap();
        let cfg = SatAttackConfig {
            timeout: Some(Duration::from_millis(50)),
            ..SatAttackConfig::default()
        };
        let report = run_sat(&locked, &cfg).unwrap();
        assert_eq!(report.result, AttackResult::Timeout);
        assert_eq!(report.table_cell(), "∞");
    }

    #[test]
    fn iteration_cap_respected() {
        let host = generators::adder(8);
        let locked = antisat_lock(&host, 8, 13).unwrap();
        let cfg = SatAttackConfig {
            max_iterations: Some(3),
            timeout: Some(Duration::from_secs(30)),
            ..SatAttackConfig::default()
        };
        let report = run_sat(&locked, &cfg).unwrap();
        assert_eq!(report.result, AttackResult::Timeout);
        assert!(report.iterations <= 3);
    }

    #[test]
    fn batched_and_sequential_paths_reach_identical_verdicts() {
        // The acceptance bar for the batched pipeline: on the smoke
        // designs the lane-packed DIP loop must land exactly where the
        // pre-refactor single-query loop did — same verdict kind, same
        // functional correctness.
        let hosts: Vec<(&str, ril_core::LockedCircuit)> = vec![
            ("xor_lock", xor_lock(&generators::adder(8), 12, 3).unwrap()),
            (
                "ril_2x2",
                Obfuscator::new(RilBlockSpec::size_2x2())
                    .blocks(2)
                    .seed(5)
                    .obfuscate(&generators::adder(8))
                    .unwrap(),
            ),
            (
                "antisat",
                antisat_lock(&generators::adder(8), 4, 7).unwrap(),
            ),
            ("sfll", sfll_lock(&generators::adder(8), 6, 9).unwrap()),
        ];
        for (name, locked) in &hosts {
            let sequential = run_sat(
                locked,
                &SatAttackConfig {
                    dip_batch: 1,
                    ..fast_cfg()
                },
            )
            .unwrap();
            let batched = run_sat(
                locked,
                &SatAttackConfig {
                    dip_batch: 64,
                    ..fast_cfg()
                },
            )
            .unwrap();
            assert_eq!(
                sequential.result.kind(),
                batched.result.kind(),
                "{name}: verdicts diverge"
            );
            assert_eq!(
                sequential.functionally_correct, batched.functionally_correct,
                "{name}: functional correctness diverges"
            );
        }
    }

    /// An in-process oracle that logs every pattern it answers.
    struct Recording {
        inner: Oracle,
        seen: Vec<Vec<bool>>,
    }

    impl OracleSource for Recording {
        fn input_width(&self) -> usize {
            self.inner.input_width()
        }

        fn output_width(&self) -> usize {
            self.inner.output_width()
        }

        fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, crate::OracleError> {
            self.seen.push(inputs.to_vec());
            self.inner.try_query(inputs)
        }

        fn try_query_batch(
            &mut self,
            block: &ril_netlist::PatternBlock,
        ) -> Result<ril_netlist::ResponseBlock, crate::OracleError> {
            self.seen.extend(block.unpack());
            self.inner.try_query_batch(block)
        }

        fn queries(&self) -> u64 {
            self.inner.queries()
        }
    }

    #[test]
    fn batched_attacks_replay_exactly() {
        // The batch fill reads only the model and the simulator, so two
        // batched attacks on one lock ask the same DIPs in the same order
        // and do the same solver work.
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(5)
            .obfuscate(&generators::adder(16))
            .unwrap();
        let view = attacker_view(&locked);
        let cfg = SatAttackConfig {
            dip_batch: 8,
            ..fast_cfg()
        };
        let run = || {
            let mut oracle = Recording {
                inner: Oracle::new(&locked).unwrap(),
                seen: Vec::new(),
            };
            let report = sat_attack(&view, &mut oracle, &cfg);
            (report, oracle.seen)
        };
        let (first, first_dips) = run();
        let (second, second_dips) = run();
        assert!(first.result.succeeded(), "{first}");
        // More DIPs than DIP solves: the batches carried extra DIPs.
        assert!(first.iterations >= first.iteration_stats.len(), "{first}");
        assert_eq!(first_dips.len(), first.iterations);
        assert_eq!(first_dips, second_dips);
        assert_eq!(first.result, second.result);
        assert_eq!(first.miter_stats.conflicts, second.miter_stats.conflicts);
        assert_eq!(
            first.miter_stats.propagations,
            second.miter_stats.propagations
        );
    }
}
