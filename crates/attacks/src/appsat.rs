//! AppSAT — the approximate SAT attack (Shamsi et al., HOST 2017).
//!
//! AppSAT interleaves DIP iterations with random-query error estimation:
//! once the current best key's estimated error drops below a threshold it
//! returns early with an *approximate* key instead of grinding to miter
//! UNSAT. Against low-corruptibility point-function locks this terminates
//! quickly; against RIL-Blocks' high-corruption key logic it degenerates
//! to the exact attack; and against the Scan-Enable defense its model is
//! inconsistent with the oracle and it "fails and terminates erroneously"
//! (paper Table III, ✗ column).

use crate::oracle::{attacker_view, Oracle, OracleSource};
use crate::report::{AttackReport, AttackResult};
use crate::satattack::default_timeout;
use crate::session::{AttackSession, DipStep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_core::LockedCircuit;
use ril_netlist::{CompiledSim, Netlist, PatternBlock, ResponseBlock, MAX_LANES};
use std::time::Duration;

/// AppSAT configuration ("default setting" = the published d/q/threshold).
#[derive(Debug, Clone)]
pub struct AppSatConfig {
    /// DIP iterations between error estimations.
    pub rounds_per_estimate: usize,
    /// Random queries per estimation.
    pub queries_per_estimate: usize,
    /// Accept the candidate when the estimated error is at or below this.
    pub error_threshold: f64,
    /// Wall-clock budget.
    pub timeout: Option<Duration>,
    /// Maximum DIP iterations.
    pub max_iterations: Option<usize>,
    /// RNG seed for the random queries.
    pub seed: u64,
}

impl Default for AppSatConfig {
    fn default() -> AppSatConfig {
        AppSatConfig {
            rounds_per_estimate: 4,
            queries_per_estimate: 32,
            error_threshold: 0.0,
            timeout: Some(default_timeout()),
            max_iterations: None,
            seed: 0xA995A7,
        }
    }
}

/// Runs AppSAT against an attacker-view netlist and an oracle source.
///
/// # Panics
///
/// Panics if the netlist has no key inputs or widths mismatch the oracle.
pub fn appsat_attack(
    nl: &Netlist,
    oracle: &mut dyn OracleSource,
    cfg: &AppSatConfig,
) -> AttackReport {
    let mut span = ril_trace::span("appsat", ril_trace::Phase::Attack);
    let report = appsat_attack_inner(nl, oracle, cfg);
    if span.is_active() {
        span.record_str("result", report.result.kind());
        span.record_u64("iterations", report.iterations as u64);
        span.record_u64("oracle_queries", report.oracle_queries);
        ril_trace::counter("attack.runs", 1);
    }
    report
}

fn appsat_attack_inner(
    nl: &Netlist,
    oracle: &mut dyn OracleSource,
    cfg: &AppSatConfig,
) -> AttackReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // AppSAT keeps the sequential DIP loop (its rounds_per_estimate
    // cadence is defined per single DIP); batching pays off in the
    // estimation phase below, where whole probe blocks ride one oracle
    // access each.
    let mut sess = AttackSession::new(nl, oracle, cfg.timeout, cfg.max_iterations, 1);
    let mut predict_sim = CompiledSim::new(nl).expect("combinational attacker view");

    loop {
        match sess.step(oracle) {
            DipStep::Distinguished => {}
            DipStep::Budget => return sess.report(oracle, AttackResult::Timeout),
            DipStep::OracleInconsistent => {
                return sess.report(
                    oracle,
                    AttackResult::Failed(
                        "AppSAT terminated erroneously: oracle contradicts key-independent logic"
                            .into(),
                    ),
                )
            }
            DipStep::OracleFailed(e) => {
                return sess.report(oracle, AttackResult::Failed(format!("oracle failure: {e}")))
            }
            DipStep::Converged => {
                // Converged exactly — extract like the plain SAT attack.
                return match sess.extract_key(&[]) {
                    Ok(Some(key)) => sess.report(oracle, AttackResult::ExactKey(key)),
                    Ok(None) => sess.report(
                        oracle,
                        AttackResult::Failed(
                            "AppSAT terminated erroneously: no key matches the oracle".into(),
                        ),
                    ),
                    Err(()) => sess.report(oracle, AttackResult::Timeout),
                };
            }
        }

        // Periodic error estimation with random-query reinforcement; the
        // candidate comes from the warm miter with its difference switched
        // off (no rebuild per candidate).
        if sess.iterations.is_multiple_of(cfg.rounds_per_estimate) {
            let _est = ril_trace::span("estimate_error", ril_trace::Phase::Verify);
            let candidate = match sess.extract_key(&[]) {
                Ok(Some(key)) => key,
                Ok(None) => {
                    return sess.report(
                        oracle,
                        AttackResult::Failed(
                            "AppSAT terminated erroneously: candidate-key formula is UNSAT".into(),
                        ),
                    )
                }
                Err(()) => return sess.report(oracle, AttackResult::Timeout),
            };
            let candidate_words: Vec<u64> = candidate
                .iter()
                .map(|&b| if b { u64::MAX } else { 0 })
                .collect();
            let mut wrong_bits = 0usize;
            let mut total_bits = 0usize;
            // The probes are drawn up front (same RNG order as querying
            // one at a time) and shipped as lane-packed blocks: one
            // oracle access — one wire round-trip against a remote chip —
            // answers up to 64 of them.
            let mut remaining = cfg.queries_per_estimate;
            while remaining > 0 {
                let lanes = remaining.min(MAX_LANES);
                let probes: Vec<Vec<bool>> = (0..lanes)
                    .map(|_| (0..oracle.input_width()).map(|_| rng.gen()).collect())
                    .collect();
                let truths = if lanes == 1 {
                    match oracle.try_query(&probes[0]) {
                        Ok(t) => vec![t],
                        Err(e) => {
                            return sess.report(
                                oracle,
                                AttackResult::Failed(format!("oracle failure: {e}")),
                            )
                        }
                    }
                } else {
                    match oracle.try_query_batch(&PatternBlock::pack(&probes)) {
                        Ok(block) => block.unpack(),
                        Err(e) => {
                            return sess.report(
                                oracle,
                                AttackResult::Failed(format!("oracle failure: {e}")),
                            )
                        }
                    }
                };
                // The candidate's predictions for the whole block come
                // from one lane-packed pass, and the probes it gets wrong
                // are recorded as one batch.
                let fulls: Vec<Vec<bool>> = probes
                    .iter()
                    .map(|probe| {
                        let mut full = vec![false; sess.inst.input_vars.len()];
                        for (slot, &pos) in sess.inst.oracle_positions.iter().enumerate() {
                            full[pos] = probe[slot];
                        }
                        full
                    })
                    .collect();
                let predicted = ResponseBlock::from_words(
                    predict_sim.eval_words(PatternBlock::pack(&fulls).words(), &candidate_words),
                    lanes,
                )
                .unpack();
                let (mut wrong_dips, mut wrong_truths) = (Vec::new(), Vec::new());
                for ((full, truth), predict) in fulls.into_iter().zip(truths).zip(&predicted) {
                    let diff = predict.iter().zip(&truth).filter(|(a, b)| a != b).count();
                    wrong_bits += diff;
                    total_bits += truth.len();
                    if diff > 0 {
                        wrong_dips.push(full);
                        wrong_truths.push(truth);
                    }
                }
                if !wrong_dips.is_empty() && sess.reinforce(&wrong_dips, &wrong_truths).is_err() {
                    return sess.report(
                        oracle,
                        AttackResult::Failed(
                            "AppSAT terminated erroneously: oracle contradicts key-independent logic"
                                .into(),
                        ),
                    );
                }
                remaining -= lanes;
            }
            let est_error = wrong_bits as f64 / total_bits.max(1) as f64;
            if est_error <= cfg.error_threshold {
                return sess.report(
                    oracle,
                    AttackResult::ApproxKey {
                        key: candidate,
                        est_error,
                    },
                );
            }
        }
    }
}

/// Full harness flow behind [`crate::run_attack`]: attacker view + oracle
/// from a locked circuit, with a ground-truth functional check on the
/// recovered key.
pub(crate) fn run_appsat_impl(
    locked: &LockedCircuit,
    cfg: &AppSatConfig,
) -> Result<AttackReport, ril_netlist::NetlistError> {
    let view = attacker_view(locked);
    let mut oracle = Oracle::new(locked)?;
    let mut report = appsat_attack(&view, &mut oracle, cfg);
    if let Some(key) = report.result.key() {
        let _v = ril_trace::span("verify_key", ril_trace::Phase::Verify);
        let ok = locked.equivalent_under_key(key, 32)?;
        report.functionally_correct = Some(ok);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_core::baselines::{sfll_lock, xor_lock};
    use ril_core::{Obfuscator, RilBlockSpec};
    use ril_netlist::generators;

    fn fast_cfg() -> AppSatConfig {
        AppSatConfig {
            timeout: Some(Duration::from_secs(30)),
            ..AppSatConfig::default()
        }
    }

    #[test]
    fn appsat_recovers_xor_lock_exactly_or_approximately() {
        let host = generators::adder(8);
        let locked = xor_lock(&host, 10, 4).unwrap();
        let report = run_appsat_impl(&locked, &fast_cfg()).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert_eq!(report.functionally_correct, Some(true), "{report}");
    }

    #[test]
    fn appsat_shines_on_point_functions() {
        // SFLL's wrong keys err on ~1 input pattern: a relaxed AppSAT
        // threshold accepts an approximate key quickly.
        let host = generators::adder(8);
        let locked = sfll_lock(&host, 10, 5).unwrap();
        let cfg = AppSatConfig {
            error_threshold: 0.01,
            rounds_per_estimate: 2,
            ..fast_cfg()
        };
        let report = run_appsat_impl(&locked, &cfg).unwrap();
        assert!(report.result.succeeded(), "{report}");
        match report.result {
            AttackResult::ApproxKey { est_error, .. } => assert!(est_error <= 0.01),
            AttackResult::ExactKey(_) => {}
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn appsat_breaks_unshielded_ril_blocks() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(8)
            .obfuscate(&host)
            .unwrap();
        let report = run_appsat_impl(&locked, &fast_cfg()).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert_eq!(report.functionally_correct, Some(true));
    }

    #[test]
    fn key_extractions_are_booked_apart_from_dip_solves() {
        // AppSAT extracts a candidate key every `rounds_per_estimate` DIPs
        // from the same miter it finds DIPs on. Those extractions go to
        // `finder_stats`, never into the per-iteration records.
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(2)
            .seed(8)
            .obfuscate(&host)
            .unwrap();
        let cfg = AppSatConfig {
            rounds_per_estimate: 2,
            ..fast_cfg()
        };
        let report = run_appsat_impl(&locked, &cfg).unwrap();
        assert!(report.result.succeeded(), "{report}");
        assert!(report.iterations >= cfg.rounds_per_estimate, "{report}");
        // One solve per DIP, plus the UNSAT proof of an exact convergence.
        let converged = matches!(report.result, AttackResult::ExactKey(_));
        assert_eq!(
            report.iteration_stats.len(),
            report.iterations + usize::from(converged)
        );
        let summed = report
            .iteration_stats
            .iter()
            .fold(ril_sat::SolverStats::default(), |acc, it| {
                acc.plus(&it.stats)
            });
        assert_eq!(summed, report.miter_stats);
        assert!(report.finder_stats.propagations > 0, "{report}");
    }

    #[test]
    fn appsat_fails_under_scan_defense() {
        // Table III: AppSAT ✗ for all circuits with SE circuitry active.
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
            let report = run_appsat_impl(&locked, &fast_cfg()).unwrap();
            let defeated = matches!(
                report.result,
                AttackResult::Failed(_) | AttackResult::Timeout
            ) || report.functionally_correct == Some(false);
            assert!(defeated, "seed {seed}: {report}");
            return;
        }
        panic!("no seed set an SE key");
    }

    #[test]
    fn timeout_respected() {
        let host = generators::multiplier(6);
        let locked = Obfuscator::new(RilBlockSpec::size_8x8x8())
            .blocks(2)
            .seed(12)
            .obfuscate(&host)
            .unwrap();
        let cfg = AppSatConfig {
            timeout: Some(Duration::from_millis(50)),
            ..AppSatConfig::default()
        };
        let report = run_appsat_impl(&locked, &cfg).unwrap();
        assert_eq!(report.result, AttackResult::Timeout);
    }
}
