//! Cross-crate integration: the full defender→attacker pipelines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ril_blocks::attacks::satattack::sat_attack;
use ril_blocks::attacks::{attacker_view, run_attack, AttackConfig, AttackKind, Oracle};
use ril_blocks::core::{morph_all, InsertionPolicy, KeyBitKind, Obfuscator, RilBlockSpec};
use ril_blocks::netlist::{generators, parse_bench, write_bench, CompiledSim};
use std::time::Duration;

fn fast_cfg() -> AttackConfig {
    AttackConfig {
        timeout: Some(Duration::from_secs(45)),
        ..AttackConfig::default()
    }
}

#[test]
fn lock_export_reimport_attack_verify() {
    // Lock → write .bench → parse back → attack the re-imported netlist.
    let host = generators::adder(8);
    let locked = Obfuscator::new(RilBlockSpec::size_2x2())
        .blocks(2)
        .seed(77)
        .obfuscate(&host)
        .expect("lock");
    let text = write_bench(&locked.netlist);
    let reimported = parse_bench("reimported", &text).expect("parse");
    assert_eq!(reimported.key_inputs().len(), locked.key_width());

    let mut oracle = Oracle::new(&locked).expect("oracle");
    let report = sat_attack(&reimported, &mut oracle, &fast_cfg().sat_config());
    let key = report.result.key().expect("attack succeeds on 2x2 blocks");
    assert!(locked.equivalent_under_key(key, 32).expect("sim ok"));
}

#[test]
fn every_block_shape_round_trips_through_the_full_flow() {
    for (spec, blocks) in [
        (RilBlockSpec::size_2x2(), 3usize),
        (RilBlockSpec::parse("4x4").unwrap(), 2),
        (RilBlockSpec::parse("4x4x4").unwrap(), 1),
        (RilBlockSpec::size_8x8(), 1),
        (RilBlockSpec::size_8x8x8(), 1),
    ] {
        let host = generators::multiplier(6);
        let locked = Obfuscator::new(spec)
            .blocks(blocks)
            .seed(3)
            .obfuscate(&host)
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        locked.netlist.validate().expect("valid netlist");
        assert!(locked.verify(16).expect("sim ok"), "{spec}");
        assert_eq!(locked.key_width(), blocks * spec.keys_per_block());
    }
}

#[test]
fn cone_policy_also_produces_correct_locks() {
    let host = generators::benchmark("b15").expect("known benchmark");
    let locked = Obfuscator::new(RilBlockSpec::size_8x8())
        .policy(InsertionPolicy::LargeCone)
        .seed(5)
        .obfuscate(&host)
        .expect("lock");
    assert!(locked.verify(8).expect("sim ok"));
}

#[test]
fn morph_then_attack_key_is_still_recoverable_but_different() {
    // Morphing changes the correct key; the SAT attack (against the fresh
    // oracle) recovers a key equivalent to the *morphed* one.
    let host = generators::adder(8);
    let mut locked = Obfuscator::new(RilBlockSpec::size_2x2())
        .blocks(2)
        .seed(31)
        .obfuscate(&host)
        .expect("lock");
    let before = locked.keys.bits().to_vec();
    let mut rng = StdRng::seed_from_u64(8);
    // Pair swaps are coin flips; morph until the key actually moved.
    for _ in 0..64 {
        morph_all(&mut locked, &mut rng);
        if locked.keys.bits() != before.as_slice() {
            break;
        }
    }
    assert!(locked.verify(16).expect("sim ok"));
    let report = run_attack(AttackKind::Sat, &locked, &fast_cfg())
        .expect("sim ok")
        .report;
    assert!(report.result.succeeded());
    assert_eq!(report.functionally_correct, Some(true));
    // The stored correct key differs from the pre-morph one.
    assert_ne!(locked.keys.bits(), before.as_slice());
}

#[test]
fn se_defense_blocks_sat_appsat_and_removal_together() {
    let host = generators::multiplier(5);
    let mut armed = None;
    for seed in 0..40 {
        let lc = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(3)
            .scan_obfuscation(true)
            .seed(seed)
            .obfuscate(&host)
            .expect("lock");
        if lc
            .keys
            .kinds()
            .iter()
            .zip(lc.keys.bits())
            .any(|(k, &v)| matches!(k, KeyBitKind::ScanEnable { .. }) && v)
        {
            armed = Some(lc);
            break;
        }
    }
    let locked = armed.expect("armed SE lock");

    let sat = run_attack(AttackKind::Sat, &locked, &fast_cfg())
        .expect("sim ok")
        .report;
    let sat_defended = !sat.result.succeeded() || sat.functionally_correct == Some(false);
    assert!(sat_defended, "SAT: {sat}");

    let app = run_attack(AttackKind::AppSat, &locked, &fast_cfg())
        .expect("sim ok")
        .report;
    let app_defended = !app.result.succeeded() || app.functionally_correct == Some(false);
    assert!(app_defended, "AppSAT: {app}");

    let rem = run_attack(
        AttackKind::Removal,
        &locked,
        &AttackConfig {
            patterns: 16,
            seed: 1,
            ..fast_cfg()
        },
    )
    .expect("sim ok")
    .removal
    .expect("removal outcome carries its native report");
    assert!(
        rem.error_rate > 0.01,
        "removal salvage error {}",
        rem.error_rate
    );
}

#[test]
fn attacker_view_is_simulatable_and_key_complete() {
    let host = generators::benchmark("gps").expect("known benchmark");
    let locked = Obfuscator::new(RilBlockSpec::size_8x8())
        .scan_obfuscation(true)
        .seed(4)
        .obfuscate(&host)
        .expect("lock");
    let view = attacker_view(&locked);
    view.validate().expect("valid view");
    let mut sim = CompiledSim::new(&view).expect("sim");
    let data = vec![0u64; view.data_inputs().len()];
    let keys = vec![0u64; view.key_inputs().len()];
    let outs = sim.eval_words(&data, &keys);
    assert_eq!(outs.len(), host.outputs().len());
    assert_eq!(view.key_inputs().len(), locked.key_width());
}

#[test]
fn sequential_design_locks_through_the_scan_model() {
    // The paper's threat model: full scan access turns state into pseudo
    // I/O. Unroll a DFF-based LFSR, lock it, attack it.
    let mut seq = generators::sequential_lfsr(8, &[1, 2, 3, 7]);
    let dffs = seq.to_combinational();
    assert_eq!(dffs, 8);
    seq.validate().expect("valid combinational view");
    let locked = Obfuscator::new(RilBlockSpec::size_2x2())
        .blocks(2)
        .seed(3)
        .obfuscate(&seq)
        .expect("lock");
    assert!(locked.verify(16).expect("sim ok"));
    let report = run_attack(AttackKind::Sat, &locked, &fast_cfg())
        .expect("sim ok")
        .report;
    assert!(report.result.succeeded(), "{report}");
    assert_eq!(report.functionally_correct, Some(true));
}

#[test]
fn oracle_query_accounting_matches_attack_iterations() {
    let host = generators::adder(6);
    let locked = Obfuscator::new(RilBlockSpec::size_2x2())
        .seed(13)
        .obfuscate(&host)
        .expect("lock");
    let report = run_attack(AttackKind::Sat, &locked, &fast_cfg())
        .expect("sim ok")
        .report;
    // The plain SAT attack queries exactly once per DIP iteration.
    assert_eq!(report.oracle_queries, report.iterations as u64);
}
