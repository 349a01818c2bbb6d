//! The search each oracle-guided attack runs is deterministic: given a
//! lock, a configuration and a budget no run reaches, SAT, AppSAT and
//! ScanSAT ask the same DIPs in the same order and do the same solver
//! work every time. These tests pin that search — its counts, and the
//! DIP sequence itself — so a refactor of the attack driver that changes
//! a single solve shows up here.

use ril_attacks::appsat::appsat_attack;
use ril_attacks::{
    attacker_view, run_attack, scansat_model_attack, AppSatConfig, AttackConfig, AttackKind,
    AttackReport, Oracle, OracleError, OracleSource, PatternBlock, ResponseBlock, SatAttackConfig,
};
use ril_core::baselines::{antisat_lock, sfll_lock, xor_lock};
use ril_core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::generators;
use std::time::Duration;

/// A budget none of these small attacks comes near, so wall time never
/// decides where a search stops.
const BUDGET: Duration = Duration::from_secs(120);

fn locks() -> Vec<(&'static str, LockedCircuit)> {
    let ril_2x2 = |bits: usize, blocks: usize, seed: u64| {
        Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(blocks)
            .seed(seed)
            .obfuscate(&generators::adder(bits))
            .unwrap()
    };
    vec![
        ("xor", xor_lock(&generators::adder(8), 12, 3).unwrap()),
        ("sfll", sfll_lock(&generators::adder(8), 6, 9).unwrap()),
        (
            "antisat",
            antisat_lock(&generators::adder(8), 4, 7).unwrap(),
        ),
        ("ril_2x2_adder8", ril_2x2(8, 2, 5)),
        ("ril_2x2_adder16", ril_2x2(16, 2, 5)),
    ]
}

/// One run's search, as pinned below: result kind, DIPs, oracle queries,
/// DIP solves, the clauses those solves were first to search with,
/// miter conflicts and propagations, and the key extractions'
/// `[decisions, conflicts, propagations, restarts, learned, deleted]`.
type Search = (&'static str, usize, u64, usize, usize, u64, u64, [u64; 6]);

fn search(report: &AttackReport) -> Search {
    let f = &report.finder_stats;
    (
        report.result.kind(),
        report.iterations,
        report.oracle_queries,
        report.iteration_stats.len(),
        report
            .iteration_stats
            .iter()
            .map(|it| it.clauses_added)
            .sum(),
        report.miter_stats.conflicts,
        report.miter_stats.propagations,
        [
            f.decisions,
            f.conflicts,
            f.propagations,
            f.restarts,
            f.learned,
            f.deleted,
        ],
    )
}

/// Recorded before the three attacks were folded onto one driver.
#[rustfmt::skip]
const PINS: &[(&str, &str, Search)] = &[
    ("xor", "sat", ("exact_key", 16, 16, 3, 761, 98, 2471, [22, 3, 202, 0, 3, 0])),
    ("xor", "appsat", ("approx_key", 4, 36, 4, 449, 34, 1590, [66, 3, 325, 0, 3, 0])),
    ("xor", "scansat", ("exact_key", 24, 24, 4, 1381, 215, 6732, [28, 1, 316, 0, 1, 0])),
    ("sfll", "sat", ("exact_key", 384, 384, 49, 1843, 76, 8011, [12, 0, 212, 0, 0, 0])),
    ("sfll", "appsat", ("exact_key", 4, 36, 5, 347, 8, 588, [83, 4, 329, 0, 4, 0])),
    ("sfll", "scansat", ("exact_key", 32, 32, 5, 1149, 46, 2493, [10, 0, 178, 0, 0, 0])),
    ("antisat", "sat", ("exact_key", 96, 96, 13, 849, 73, 3828, [29, 1, 236, 0, 1, 0])),
    ("antisat", "appsat", ("approx_key", 12, 107, 12, 611, 35, 2432, [137, 5, 505, 0, 5, 0])),
    ("antisat", "scansat", ("exact_key", 88, 88, 12, 2473, 104, 5807, [18, 1, 319, 0, 1, 0])),
    ("ril_2x2_adder8", "sat", ("exact_key", 24, 24, 4, 583, 110, 2508, [38, 3, 180, 0, 3, 0])),
    ("ril_2x2_adder8", "appsat", ("approx_key", 4, 36, 4, 457, 88, 2089, [35, 2, 194, 0, 2, 0])),
    ("ril_2x2_adder8", "scansat", ("exact_key", 24, 24, 4, 1097, 150, 3495, [35, 3, 243, 0, 3, 0])),
    ("ril_2x2_adder16", "sat", ("exact_key", 48, 48, 7, 964, 280, 11271, [77, 4, 497, 0, 3, 54])),
    ("ril_2x2_adder16", "appsat", ("exact_key", 4, 36, 5, 864, 246, 9299, [258, 10, 1096, 0, 9, 12])),
    ("ril_2x2_adder16", "scansat", ("exact_key", 48, 48, 7, 2600, 387, 12853, [53, 7, 490, 0, 7, 0])),
];

#[test]
fn each_attack_keeps_its_recorded_search() {
    let cfg = AttackConfig {
        timeout: Some(BUDGET),
        ..AttackConfig::default()
    };
    let mut seen = Vec::new();
    for (lock, locked) in locks() {
        for kind in [AttackKind::Sat, AttackKind::AppSat, AttackKind::ScanSat] {
            let report = run_attack(kind, &locked, &cfg).unwrap().report;
            assert!(report.result.succeeded(), "{lock} {kind}: {report}");
            seen.push((lock, kind.name(), search(&report)));
        }
    }
    let rows: Vec<String> = seen
        .iter()
        .map(|(lock, kind, s)| format!("    ({lock:?}, {kind:?}, {s:?}),"))
        .collect();
    assert_eq!(
        seen,
        PINS.iter().map(|&(l, k, s)| (l, k, s)).collect::<Vec<_>>(),
        "searches moved; this run's rows:\n{}",
        rows.join("\n")
    );
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

    fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
        self.seen.push(inputs.to_vec());
        self.inner.try_query(inputs)
    }

    fn try_query_batch(&mut self, block: &PatternBlock) -> Result<ResponseBlock, OracleError> {
        self.seen.extend(block.unpack());
        self.inner.try_query_batch(block)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// Runs `attack` twice on fresh recording oracles and asserts both runs
/// asked the same patterns in the same order and did the same work.
fn replays_exactly(
    locked: &LockedCircuit,
    attack: impl Fn(&ril_netlist::Netlist, &mut Recording) -> AttackReport,
) {
    let view = attacker_view(locked);
    let run = || {
        let mut oracle = Recording {
            inner: Oracle::new(locked).unwrap(),
            seen: Vec::new(),
        };
        let report = attack(&view, &mut oracle);
        (report, oracle.seen)
    };
    let (first, first_queries) = run();
    let (second, second_queries) = run();
    assert!(first.result.succeeded(), "{first}");
    assert_eq!(first_queries, second_queries);
    assert_eq!(first.result, second.result);
    assert_eq!(search(&first), search(&second));
    let per_solve = |r: &AttackReport| -> Vec<_> {
        r.iteration_stats
            .iter()
            .map(|it| (it.stats, it.clauses_added))
            .collect()
    };
    assert_eq!(per_solve(&first), per_solve(&second));
}

fn limits() -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(BUDGET),
        ..SatAttackConfig::default()
    }
}

#[test]
fn appsat_replays_exactly() {
    let cfg = AppSatConfig {
        timeout: Some(BUDGET),
        ..AppSatConfig::default()
    };
    for (_, locked) in locks() {
        replays_exactly(&locked, |view, oracle| appsat_attack(view, oracle, &cfg));
    }
}

#[test]
fn scansat_replays_exactly() {
    for (_, locked) in locks() {
        replays_exactly(&locked, |view, oracle| {
            scansat_model_attack(view, oracle, &limits()).unwrap()
        });
    }
}
