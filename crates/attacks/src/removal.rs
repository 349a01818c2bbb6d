//! Removal / bypass attack.
//!
//! The attacker strips the key-dependent logic and tries to salvage a
//! functional circuit: every gate in the transitive fan-out of a key input
//! is deleted, and each deleted gate whose fan-ins include a *clean*
//! (key-independent) signal is bypassed to that signal (the standard
//! removal+bypass heuristic that defeats SFLL-class restore units).
//!
//! Against RIL-Blocks this cannot work: the absorbed gates' functions live
//! *inside* the key bits, so removal leaves holes where logic used to be —
//! "removal of the RIL-blocks does not benefit the attacker in any way"
//! (paper Section IV-B).

use crate::oracle::attacker_view;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ril_core::LockedCircuit;
use ril_netlist::generators::const_net;
use ril_netlist::{CompiledSim, GateId, NetId, Netlist, NetlistError, PatternBlock, ResponseBlock};
use ril_sat::{EquivOptions, EquivResult, EquivSession};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Result of a removal attack.
#[derive(Debug, Clone)]
pub struct RemovalReport {
    /// Gates deleted (the key cone).
    pub removed_gates: usize,
    /// Deleted gates bypassed to a clean fan-in (vs. tied to constant 0).
    pub bypassed: usize,
    /// The salvaged netlist.
    pub recovered: Netlist,
    /// Fraction of output bits that differ from the true function over the
    /// sampled patterns (0 = perfect recovery).
    pub error_rate: f64,
    /// Exact SAT verdict on the salvage, from the incremental
    /// [`EquivSession`] miter (`None` when the solve budget expired).
    /// Random sampling can miss point-function discrepancies — SFLL's
    /// stripped pattern is exactly one input — so the exact check is what
    /// separates "perfect salvage" from "merely close".
    pub exact_equivalent: Option<bool>,
}

impl RemovalReport {
    /// The paper's notion of success: the salvaged circuit is (nearly)
    /// functionally correct.
    pub fn succeeded(&self, tolerance: f64) -> bool {
        self.error_rate <= tolerance
    }
}

/// Runs the removal+bypass attack (behind [`crate::run_attack`]) on a
/// locked circuit and scores the salvaged netlist against the true
/// function over `patterns` random 64-pattern words.
pub(crate) fn removal_attack_impl(
    locked: &LockedCircuit,
    patterns: usize,
    seed: u64,
) -> Result<RemovalReport, NetlistError> {
    let mut span = ril_trace::span("removal", ril_trace::Phase::Attack);
    let report = removal_attack_inner(locked, patterns, seed)?;
    if span.is_active() {
        span.record_u64("removed_gates", report.removed_gates as u64);
        span.record_u64("bypassed", report.bypassed as u64);
        span.record_f64("error_rate", report.error_rate);
        ril_trace::counter("attack.runs", 1);
    }
    Ok(report)
}

fn removal_attack_inner(
    locked: &LockedCircuit,
    patterns: usize,
    seed: u64,
) -> Result<RemovalReport, NetlistError> {
    let mut nl = attacker_view(locked);

    // The key cone: every gate reachable from any key input, from the
    // netlist's cached per-bit key analysis.
    let key_analysis = nl.key_analysis();
    let mut cone: HashSet<GateId> = HashSet::new();
    for bit in 0..key_analysis.key_bits() {
        cone.extend(key_analysis.cone(bit).iter().copied());
    }

    // Choose a bypass replacement for each cone gate, in topological order
    // so clean fan-ins are never themselves cone outputs.
    let order = nl.topo_order()?;
    let mut replacement: HashMap<NetId, NetId> = HashMap::new();
    let zero = const_net(&mut nl, false);
    for &gid in order.iter() {
        if !cone.contains(&gid) {
            continue;
        }
        let gate = nl.gate(gid);
        let clean = gate.inputs().iter().copied().find(|&n| {
            !nl.is_key_input(n)
                && nl
                    .net(n)
                    .driver()
                    .map(|d| !cone.contains(&d))
                    .unwrap_or(true)
        });
        replacement.insert(gate.output(), clean.unwrap_or(zero));
    }

    let bypassed = replacement.values().filter(|&&r| r != zero).count();
    let removed_gates = cone.len();
    for gid in &cone {
        nl.remove_gate(*gid);
    }
    for (old, new) in &replacement {
        nl.redirect_consumers(*old, *new);
    }
    // Key inputs are now dangling; the salvaged netlist keeps them declared
    // (harmless). Dangling cone outputs that nobody redirected simply have
    // no consumers left. Normalize the salvage (fold the tied-off
    // constants, sweep unreachable debris).
    nl.set_name(format!("{}_removed", locked.netlist.name()));
    ril_netlist::opt::optimize(&mut nl)?;

    // Score against the true function (sampled + exact): one
    // `verify_salvage` span covers both checks.
    let _v = ril_trace::span("verify_salvage", ril_trace::Phase::Verify);
    let mut sim_true = CompiledSim::new(&locked.original)?;
    let mut sim_rec = CompiledSim::new(&nl)?;
    let n_data_orig = locked.original.data_inputs().len();
    let n_data_rec = nl.data_inputs().len();
    let n_keys_rec = nl.key_inputs().len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut diff = 0u64;
    let mut total = 0u64;
    let n_outputs = locked.original.outputs().len() as u64;
    for _ in 0..patterns {
        // One full 64-lane block per scoring round: both simulators
        // answer all 64 patterns in a single pass.
        let block = PatternBlock::random(&mut rng, n_data_orig);
        let mut data_rec = block.words().to_vec();
        data_rec.resize(n_data_rec, 0); // SE pin (if any) low
        let keys_rec = vec![0u64; n_keys_rec]; // dangling keys — any value
        let truth =
            ResponseBlock::from_words(sim_true.eval_words(block.words(), &[]), block.lanes());
        let salvage =
            ResponseBlock::from_words(sim_rec.eval_words(&data_rec, &keys_rec), block.lanes());
        diff += truth.diff_bits(&salvage);
        total += block.lanes() as u64 * n_outputs;
    }
    // Exact equivalence of the salvage vs. the true function, on a
    // persistent EquivSession miter. Inputs present only on the salvaged
    // side (dangling key pins, the SE pin) are left free — they no longer
    // reach any output after the bypass + optimize passes.
    let ignore_inputs: Vec<String> = nl
        .inputs()
        .iter()
        .map(|&i| nl.net(i).name().to_string())
        .filter(|name| {
            !locked
                .original
                .inputs()
                .iter()
                .any(|&o| locked.original.net(o).name() == name)
        })
        .collect();
    let options = EquivOptions {
        timeout: Some(Duration::from_secs(5)),
        ignore_inputs,
        fixed_inputs: Vec::new(),
        // The bypass re-drives outputs from differently-named nets.
        match_outputs_by_position: true,
    };
    let exact_equivalent = match EquivSession::new(&locked.original, &nl, &options) {
        Ok(mut sess) => match sess.check() {
            EquivResult::Equivalent => Some(true),
            EquivResult::Inequivalent { .. } => Some(false),
            EquivResult::Unknown => None,
        },
        Err(_) => None,
    };

    Ok(RemovalReport {
        removed_gates,
        bypassed,
        recovered: nl,
        error_rate: diff as f64 / total.max(1) as f64,
        exact_equivalent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ril_core::baselines::sfll_lock;
    use ril_core::{Obfuscator, RilBlockSpec};
    use ril_netlist::generators;

    #[test]
    fn removal_defeats_sfll_restore_unit() {
        // Bypassing the restore XOR leaves the stripped circuit: wrong on
        // (at most) one protected input pattern — near-zero error.
        let host = generators::adder(8);
        let locked = sfll_lock(&host, 8, 3).unwrap();
        let report = removal_attack_impl(&locked, 32, 1).unwrap();
        assert!(report.removed_gates > 0);
        assert!(report.bypassed > 0);
        assert!(
            report.succeeded(0.01),
            "error {} should be tiny",
            report.error_rate
        );
        // Sampling calls it a success, but the exact miter knows the
        // salvage still errs on the stripped point.
        assert_eq!(report.exact_equivalent, Some(false));
    }

    #[test]
    fn removal_fails_against_ril_blocks() {
        let host = generators::adder(8);
        let locked = Obfuscator::new(RilBlockSpec::size_8x8())
            .seed(5)
            .obfuscate(&host)
            .unwrap();
        let report = removal_attack_impl(&locked, 32, 2).unwrap();
        assert!(report.removed_gates > 0);
        assert!(
            !report.succeeded(0.01),
            "removal should not recover absorbed gates (error {})",
            report.error_rate
        );
        assert_eq!(report.exact_equivalent, Some(false));
        // The salvaged netlist is structurally valid, just wrong.
        report.recovered.validate().unwrap();
    }

    #[test]
    fn removal_fails_against_many_2x2_blocks() {
        let host = generators::multiplier(6);
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(8)
            .seed(6)
            .obfuscate(&host)
            .unwrap();
        let report = removal_attack_impl(&locked, 32, 3).unwrap();
        assert!(report.error_rate > 0.01, "error {}", report.error_rate);
    }

    #[test]
    fn report_success_threshold() {
        let host = generators::adder(6);
        let locked = sfll_lock(&host, 6, 9).unwrap();
        let report = removal_attack_impl(&locked, 16, 4).unwrap();
        assert!(report.succeeded(1.0));
    }
}
