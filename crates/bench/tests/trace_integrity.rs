//! Trace and event stream integrity, end to end: a real experiment run
//! leaves `SPANS_*.jsonl` / `TRACE_*.json` / `EVENTS_*.jsonl` that pass
//! the checkers (every line parses, per-thread timestamps monotonic,
//! begin/end balanced, parents resolve), spans stay balanced even when
//! the experiment panics mid-span, and a multi-worker sweep keeps both
//! streams whole.

use std::path::{Path, PathBuf};
use std::time::Duration;

use ril_bench::experiment::{find, run_experiments, Experiment, RunContext};
use ril_bench::experiment::{ExperimentError, ExperimentOutput};
use ril_bench::{
    breakdown, check_chrome_trace, check_events_jsonl, check_spans_jsonl, validate_run_dir,
    LogLevel, RunConfig,
};

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ril_trace_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(out_dir: &Path) -> RunConfig {
    RunConfig {
        timeout: Duration::from_secs(2),
        threads: 4,
        out_dir: out_dir.to_path_buf(),
        table1_full: false,
        mc_instances: 10,
        smoke: true,
        use_cache: true,
        log_level: LogLevel::Off,
        trace: true,
    }
}

fn read_artifact(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn real_run_produces_valid_traced_artifacts() {
    let dir = temp_out("real");
    let cfg = test_config(&dir);
    let exps: Vec<Box<dyn Experiment>> = vec![find("scan_defense").expect("registered")];
    let records = run_experiments(&exps, &cfg);
    assert!(records[0].outcome.is_ok(), "{:?}", records[0].outcome);

    // Span stream: parses, balanced, monotonic per thread — and carries
    // the whole hierarchy (experiment root, labelled cells, solves).
    let spans = read_artifact(&dir, "SPANS_scan_defense.jsonl");
    let stats = check_spans_jsonl(&spans).unwrap_or_else(|e| panic!("spans: {e}"));
    let roots: Vec<_> = stats.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "experiment");
    let cells: Vec<_> = stats.spans.iter().filter(|s| s.name == "cell").collect();
    assert!(!cells.is_empty(), "sweep cells are traced");
    assert!(
        cells.iter().all(|c| c.label.is_some()),
        "cells carry labels"
    );
    assert!(
        stats.spans.iter().any(|s| s.name == "solve"),
        "CDCL solves are traced"
    );
    assert!(
        stats
            .counters
            .iter()
            .any(|(k, v)| k == "sat.solves" && *v > 0),
        "metrics trailer has solver counters: {:?}",
        stats.counters
    );

    // The attacks under the cells actually attribute their time: every
    // non-cached cell's subtree lands encode/solve/verify buckets.
    let (cell_breakdowns, totals) = breakdown(&stats);
    assert_eq!(cell_breakdowns.len(), cells.len());
    assert!(totals.solve_us > 0, "solve time attributed: {totals:?}");

    // Chrome trace: loads as JSON, B/E nest properly per thread.
    let chrome = read_artifact(&dir, "TRACE_scan_defense.json");
    let n = check_chrome_trace(&chrome).unwrap_or_else(|e| panic!("chrome: {e}"));
    assert_eq!(n, 2 * stats.spans.len(), "one B and one E per span");

    // Event stream: parses, monotonic in file order.
    let events = read_artifact(&dir, "EVENTS_scan_defense.jsonl");
    let count = check_events_jsonl(&events).unwrap_or_else(|e| panic!("events: {e}"));
    assert!(count >= 2, "run lifecycle events present");

    // And the directory-level validator agrees with all of the above.
    validate_run_dir(&dir).unwrap_or_else(|e| panic!("validate: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An experiment that opens nested spans and panics while they are open.
struct PanicsMidSpan;

impl Experiment for PanicsMidSpan {
    fn name(&self) -> &'static str {
        "panics_mid_span"
    }

    fn describe(&self) -> &'static str {
        "opens spans, then panics (test-only)"
    }

    fn run(&self, _cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let _outer = ril_trace::span("cell", ril_trace::Phase::Cell);
        let _inner = ril_trace::span("solve", ril_trace::Phase::Solve);
        ctx.note("about to panic with two spans open");
        panic!("trace streams must survive this");
    }
}

#[test]
fn spans_balance_even_when_the_experiment_panics() {
    let dir = temp_out("panic");
    let cfg = test_config(&dir);
    let exps: Vec<Box<dyn Experiment>> = vec![Box::new(PanicsMidSpan)];
    let records = run_experiments(&exps, &cfg);
    assert!(records[0].outcome.is_err(), "the panic is reported");

    let spans = read_artifact(&dir, "SPANS_panics_mid_span.jsonl");
    let stats = check_spans_jsonl(&spans).unwrap_or_else(|e| panic!("spans: {e}"));
    // Root + cell + solve, all closed: the guards unwound cleanly.
    assert_eq!(stats.spans.len(), 3, "{:?}", stats.spans);
    let chrome = read_artifact(&dir, "TRACE_panics_mid_span.json");
    check_chrome_trace(&chrome).unwrap_or_else(|e| panic!("chrome: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An experiment whose sweep fans spans out across worker threads.
struct WideSweep;

impl Experiment for WideSweep {
    fn name(&self) -> &'static str {
        "wide_sweep"
    }

    fn describe(&self) -> &'static str {
        "multi-worker span fan-out (test-only)"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let items: Vec<usize> = (0..32).collect();
        let done = ctx.sweep(cfg.threads, &items, |_, &i| {
            let mut cell = ril_trace::span("cell", ril_trace::Phase::Cell);
            cell.record_str("label", format!("item/{i}"));
            // Hold each cell open long enough that one worker cannot
            // drain the whole queue before the others start claiming.
            std::thread::sleep(Duration::from_millis(5));
            for _ in 0..4 {
                let _s = ril_trace::span("solve", ril_trace::Phase::Solve);
                ctx.note(&format!("worker note {i}"));
            }
            i
        });
        assert_eq!(done.len(), items.len());
        Ok(ExperimentOutput::summary("swept"))
    }
}

#[test]
fn concurrent_sweep_keeps_streams_whole() {
    let dir = temp_out("sweep");
    let cfg = test_config(&dir);
    let exps: Vec<Box<dyn Experiment>> = vec![Box::new(WideSweep)];
    let records = run_experiments(&exps, &cfg);
    assert!(records[0].outcome.is_ok(), "{:?}", records[0].outcome);

    let spans = read_artifact(&dir, "SPANS_wide_sweep.jsonl");
    let stats = check_spans_jsonl(&spans).unwrap_or_else(|e| panic!("spans: {e}"));
    // 1 root + 32 cells + 128 solves, every cell parented to the root,
    // every solve parented to a cell — across 4 worker threads.
    assert_eq!(stats.spans.len(), 1 + 32 + 128);
    let root = stats.spans.iter().find(|s| s.parent == 0).unwrap();
    for cell in stats.spans.iter().filter(|s| s.name == "cell") {
        assert_eq!(cell.parent, root.id, "cells parent to the run root");
    }
    let tids: std::collections::HashSet<u64> = stats
        .spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.tid)
        .collect();
    assert!(tids.len() > 1, "sweep actually ran on multiple threads");

    let events = read_artifact(&dir, "EVENTS_wide_sweep.jsonl");
    let count = check_events_jsonl(&events).unwrap_or_else(|e| panic!("events: {e}"));
    assert!(count >= 128, "concurrent notes all landed whole");
    let _ = std::fs::remove_dir_all(&dir);
}
