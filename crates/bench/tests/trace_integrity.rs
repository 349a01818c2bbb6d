//! Run-record integrity, end to end: a real experiment run leaves one
//! span log `SPANS_*.jsonl` (spans, notes, errors, metrics) that passes
//! the reader (every line parses, per-thread timestamps monotonic,
//! begin/end balanced, parents resolve) and no other stream; spans stay
//! balanced and notes land even when the experiment panics mid-span; a
//! multi-worker sweep keeps the log whole; and `ril-bench trace` renders
//! a Chrome trace whose `B`/`E` events nest per thread.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ril_bench::experiment::{find, run_experiments, Experiment, RunContext};
use ril_bench::experiment::{ExperimentError, ExperimentOutput};
use ril_bench::{trace_report, validate_run_dir, LogLevel, RunConfig};
use ril_trace::json::JsonValue;
use ril_trace::{breakdown, check_spans_jsonl, NoteKind, SpanStats};

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
    }
}

fn read_spans(dir: &Path, experiment: &str) -> SpanStats {
    let name = format!("SPANS_{experiment}.jsonl");
    let text = std::fs::read_to_string(dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    check_spans_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Checks a rendered Chrome trace: every `B` is closed by an `E` of the
/// same name on the same thread, innermost first (the nesting Perfetto
/// needs). Returns the event count.
fn check_chrome_nesting(text: &str) -> usize {
    let doc = JsonValue::parse(text).expect("chrome trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |k| ev.get(k).unwrap_or_else(|| panic!("event {i}: no {k}"));
        let tid = field("tid").as_u64().expect("tid");
        let name = field("name").as_str().expect("name");
        let stack = stacks.entry(tid).or_default();
        match field("ph").as_str() {
            Some("B") => stack.push(name),
            Some("E") => assert_eq!(stack.pop(), Some(name), "event {i}: E out of order"),
            other => panic!("event {i}: unexpected ph {other:?}"),
        }
    }
    assert!(stacks.values().all(Vec::is_empty), "unclosed B events");
    events.len()
}

#[test]
fn real_run_produces_valid_traced_artifacts() {
    let dir = temp_out("real");
    let cfg = test_config(&dir);
    let exps: Vec<Box<dyn Experiment>> = vec![find("scan_defense").expect("registered")];
    let records = run_experiments(&exps, &cfg);
    assert!(records[0].outcome.is_ok(), "{:?}", records[0].outcome);

    // The span log is the run's one stream besides its manifest and
    // tables.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            !name.starts_with("EVENTS_") && !name.starts_with("TRACE_"),
            "a run writes no {name}"
        );
    }

    // Span log: parses, balanced, monotonic per thread — and carries
    // the whole hierarchy (experiment root, labelled cells, solves), the
    // run's lifecycle notes and the metrics trailer.
    let stats = read_spans(&dir, "scan_defense");
    let roots: Vec<_> = stats.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "experiment");
    let cells: Vec<_> = stats.spans.iter().filter(|s| s.name == "cell").collect();
    assert!(!cells.is_empty(), "sweep cells are traced");
    assert!(
        cells.iter().all(|c| c.label().is_some()),
        "cells carry labels"
    );
    assert!(
        stats.spans.iter().any(|s| s.name == "solve"),
        "CDCL solves are traced"
    );
    let messages: Vec<&str> = stats.notes.iter().map(|n| n.message.as_str()).collect();
    assert!(messages[0].starts_with("start: "), "{messages:?}");
    assert!(
        messages.last().unwrap().starts_with("done in "),
        "{messages:?}"
    );
    assert!(
        stats.metrics.counter("sat.solves") > 0,
        "metrics trailer has solver counters: {:?}",
        stats.metrics.counters
    );

    // The attacks under the cells actually attribute their time: every
    // non-cached cell's subtree lands encode/solve/verify buckets.
    let (cell_breakdowns, totals) = breakdown(&stats);
    assert_eq!(cell_breakdowns.len(), cells.len());
    assert!(totals.solve_us > 0, "solve time attributed: {totals:?}");

    // The directory-level validator agrees, and `trace` renders a Chrome
    // trace with one B and one E per span, nested per thread.
    validate_run_dir(&dir).unwrap_or_else(|e| panic!("validate: {e}"));
    trace_report(&dir).unwrap_or_else(|e| panic!("trace: {e}"));
    let chrome = std::fs::read_to_string(dir.join("TRACE_scan_defense.json")).unwrap();
    assert_eq!(check_chrome_nesting(&chrome), 2 * stats.spans.len());
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

    let stats = read_spans(&dir, "panics_mid_span");
    // Root + cell + solve, all closed: the guards unwound cleanly.
    assert_eq!(stats.spans.len(), 3, "{:?}", stats.spans);
    // The experiment's note landed under a span that began, and the
    // run's failure record follows it.
    let note = stats
        .notes
        .iter()
        .find(|n| n.message == "about to panic with two spans open")
        .expect("the experiment's note is in the span log");
    assert_eq!(note.kind, NoteKind::Note);
    assert!(stats.spans.iter().any(|s| s.id == note.parent));
    let last = stats.notes.last().unwrap();
    assert_eq!(last.kind, NoteKind::Error);
    assert!(last.message.contains("panicked"), "{}", last.message);

    trace_report(&dir).unwrap_or_else(|e| panic!("trace: {e}"));
    let chrome = std::fs::read_to_string(dir.join("TRACE_panics_mid_span.json")).unwrap();
    assert_eq!(check_chrome_nesting(&chrome), 2 * stats.spans.len());
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

    let stats = read_spans(&dir, "wide_sweep");
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

    // All 128 concurrent worker notes arrived whole, four per item.
    let mut per_item: HashMap<&str, usize> = HashMap::new();
    for note in &stats.notes {
        if let Some(item) = note.message.strip_prefix("worker note ") {
            *per_item.entry(item).or_default() += 1;
        }
    }
    assert_eq!(per_item.len(), 32);
    assert!(per_item.values().all(|&n| n == 4), "{per_item:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
